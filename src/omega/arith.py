"""Integer arithmetic: factoring, part-extraction, primitive prime divisors."""

import math
from functools import lru_cache

import numpy as np

from .record import Record

_SIEVE_BOUND = 10_000
# Squarings the first rho walk of a split may take: rounds up to a cycle
# bound of 2^11, which splits Phi_17(10) = 2071723 * 5363222357.
_RHO_BUDGET = 1 << 13


def _sieve(bound):
    """The primes up to bound, as a list of ints."""
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags).tolist()


SMALL_PRIMES = _sieve(_SIEVE_BOUND)
_SMALL_SET = set(SMALL_PRIMES)


@lru_cache(maxsize=None)
def _pm1_primes():
    """The primes up to 10^5 that Pollard p-1 raises to, built on first use
    (1 ms): p-1 runs only where the budgeted rho fails, which it does
    nowhere on the claim catalog's grids."""
    return _sieve(100_000)


# Miller-Rabin with these bases is a proof of primality below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROOF_BOUND = 3_317_044_064_679_887_385_961_981


def _mr_witness(n, a):
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a, n):
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"the Jacobi symbol wants an odd n > 0, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n):
    # Selfridge parameter choice: first D in 5, -7, 9, -11, ... with (D|n) = -1.
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == 0:
            return abs(D) == n
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Compute U_d, V_d by the binary double-and-add chain.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, V + D * U
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n):
    """Deterministic below ~3.3e24, Baillie-PSW above (no known failures)."""
    if n < 2:
        return False
    if n <= _SIEVE_BOUND:
        return n in _SMALL_SET
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return False
    if n < _MR_PROOF_BOUND:
        return not any(_mr_witness(n, a) for a in _MR_BASES)
    if _mr_witness(n, 2):
        return False
    r = math.isqrt(n)
    if r * r == n:
        return False
    return _strong_lucas(n)


def _pminus1(n, bound):
    # Pollard p-1 first stage; cheap and effective when some p-1 is smooth.
    a = 2
    for p in _pm1_primes():
        if p > bound:
            break
        a = pow(a, p ** int(math.log(bound, p)), n)
        if a == 1:
            return None
    g = math.gcd(a - 1, n)
    return g if 1 < g < n else None


def _brent(n, budget=math.inf):
    # Pollard rho with Brent's cycle finding, c = 1, 2, ... in turn: some
    # proper factor of an odd composite n, or None once the next round of
    # the walk would take it past budget squarings.
    if n % 2 == 0:
        return 2
    c, steps = 1, 0
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            if steps + 2 * r > budget:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            steps += r + min(k, r)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1


@lru_cache(maxsize=None)
def _primorial():
    """The product of SMALL_PRIMES, built on first use (0.6 ms)."""
    return math.prod(SMALL_PRIMES)


def _small_primes_of(n):
    """The primes of SMALL_PRIMES dividing n, ascending: trial division of
    g = gcd(n, their product), or of n itself up to _SIEVE_BOUND, where the
    gcd costs more than the loop; none when g = 1, and only until p^2 > g,
    where the rest of g is one prime or 1."""
    g = n if n <= _SIEVE_BOUND else math.gcd(n, _primorial())
    for p in SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            yield p
            while g % p == 0:
                g //= p
    if g > 1:
        yield g


def _factor(n):
    """Unbounded engine: prime -> exponent dict, smallest primes first.
    After the primes of SMALL_PRIMES, a part with none of them is prime if
    it is at most _SIEVE_BOUND^2; otherwise a budgeted rho, Pollard p-1 at
    two bounds, and an unbounded rho split it in turn."""
    if n < 1:
        raise ValueError(f"factoring wants n >= 1, got {n}")
    out = {}
    for p in _small_primes_of(n):
        out[p] = 0
        while n % p == 0:
            out[p] += 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m <= _SIEVE_BOUND**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = (_brent(m, _RHO_BUDGET) or _pminus1(m, 10_000) or _pminus1(m, 100_000)
             or _brent(m))
        if not 1 < d < m:
            raise RuntimeError(f"no proper split of {m}: got {d}")
        stack += [d, m // d]
    return dict(sorted(out.items()))


class Factored(Record):
    """An integer together with its prime factorization."""

    _fields, _extra = ("n",), ("factors",)

    def __init__(self, n, factors):
        if any(e < 1 for e in factors.values()):
            raise ValueError(f"exponents must be positive: {factors}")
        if math.prod(p**e for p, e in factors.items()) != n:
            raise ValueError("factorization does not multiply back")
        vars(self).update(n=n, factors=factors)

    def primes(self):
        return tuple(sorted(self.factors))

    def __str__(self):
        if self.n == 1:
            return "1"
        parts = []
        for p in sorted(self.factors):
            e = self.factors[p]
            parts.append(f"{p}^{e}" if e > 1 else f"{p}")
        return " * ".join(parts)


_FACTORIZE_MAX = 2**63 - 1


def factorize(n):
    """Factor n for 1 <= n <= 2^63 - 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"factorize wants an int, got {n!r}")
    if not 1 <= n <= _FACTORIZE_MAX:
        raise ValueError(f"factorize domain is 1..2^63-1, got {n}")
    return Factored(n, _factor(n))


def r_part(n, r):
    """Split n = a*b where a collects the primes of r, b the rest: returns (a, b)."""
    if not isinstance(n, int) or not isinstance(r, int) or n < 1 or r < 2:
        raise ValueError(f"r_part wants n >= 1 and r >= 2, got {n}, {r}")
    if not (n <= _FACTORIZE_MAX and r <= _FACTORIZE_MAX):
        raise ValueError("r_part domain is bounded by 2^63-1")
    a = 1
    for p in _factor(r):
        while n % p == 0:
            a *= p
            n //= p
    return a, n


def divisors(n):
    """Sorted list of positive divisors."""
    if n < 1:
        raise ValueError(f"divisors wants n >= 1, got {n}")
    out = [1]
    for p, e in _factor(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def cyclotomic_value(n, q):
    """Value of the n-th cyclotomic polynomial at q, by Moebius inversion over
    the squarefree quotients n/d, the subsets of the primes of n."""
    if n < 1 or q < 2:
        raise ValueError(f"cyclotomic_value wants n >= 1 and q >= 2, got {n}, {q}")
    terms = [(n, 1)]
    for p in _factor(n):
        terms += [(d // p, -mu) for d, mu in terms]
    num = den = 1
    for d, mu in terms:
        if mu == 1:
            num *= q**d - 1
        else:
            den *= q**d - 1
    if num % den:
        raise RuntimeError(f"cyclotomic quotient for ({n}, {q}) is not exact")
    return num // den


def smallest_prime_factor(n):
    if n < 2:
        raise ValueError(f"smallest_prime_factor wants n >= 2, got {n}")
    small = next(_small_primes_of(n), None)
    if small is not None:
        return small
    if n <= _SIEVE_BOUND**2 or is_prime(n):
        return n
    return min(_factor(n))


def zsigmondy(q, n):
    """Smallest prime dividing q^n - 1 but no q^i - 1 with i < n.

    Wants q >= 2 and n >= 3; the only such pair with no primitive prime
    divisor is (2, 6), reported as None.
    """
    if not isinstance(q, int) or not isinstance(n, int) or q < 2 or n < 3:
        raise ValueError(f"zsigmondy domain is q >= 2, n >= 3, got q={q}, n={n}")
    phi = cyclotomic_value(n, q)
    # A prime factor of phi is primitive unless it divides n: strip those by gcds.
    while (g := math.gcd(phi, n)) > 1:
        phi //= g
    if phi == 1:
        if (q, n) != (2, 6):
            raise RuntimeError(f"primitive divisor missing outside the known gap at {(q, n)}")
        return None
    r = smallest_prime_factor(phi)
    if r % n != 1:
        raise RuntimeError(f"primitive prime divisor {r} of {q}^{n} - 1 is not 1 mod {n}")
    return r


def is_prime_power(q):
    """Return the prime p with q = p^k, or None."""
    if q < 2:
        return None
    f = _factor(q)
    if len(f) == 1:
        return next(iter(f))
    return None


# Catalogued gcd identities. Each row is checked pointwise; the suite is the
# evidence trail for the simplifications used in the order descriptors. Each
# left side is a gcd with some m, so the power of q in it is taken mod m.


def _odd_prime_powers(bound):
    """p^k -> (p, k) for every odd prime power up to bound."""
    out = {}
    for p in _sieve(bound)[1:]:
        pk, k = p, 1
        while pk <= bound:
            out[pk], pk, k = (p, k), pk * p, k + 1
    return out


def _e6_rows(q, _):
    m = q * q - q + 1
    lhs = math.gcd((pow(q, 5, m) - 1) * (q + 1), m)
    rhs = math.gcd(q + 1, 3)
    yield {"id": "e6-gcd", "q": q, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


def _sp_rows(q, odd_powers):
    if q not in odd_powers:
        return
    p, k = odd_powers[q]
    for n in range(2, 13):
        eps = 1 if (k * (n - 1)) % 2 == 1 else -1
        lhs = math.gcd(pow(q, n - 1, p + 1) - eps, p + 1)
        yield {"id": "sp-gcd", "q": q, "n": n, "lhs": lhs, "rhs": 2, "ok": lhs == 2}


# row id -> the rows of that identity at one q, given the odd prime powers
_GCD_ROWS = {"e6-gcd": _e6_rows, "sp-gcd": _sp_rows}


def gcd_identity_suite(q_range, ids=tuple(_GCD_ROWS)):
    """Evaluate the catalogued gcd identities named by ids, by default all of
    them, at each applicable q; list of rows."""
    qs = list(q_range)
    odd_powers = _odd_prime_powers(max([2, *qs])) if "sp-gcd" in ids else {}
    rows = []
    for q in qs:
        if q < 2:
            raise ValueError(f"gcd identities want q >= 2, got {q}")
        for row_id in ids:
            rows.extend(_GCD_ROWS[row_id](q, odd_powers))
    return rows
