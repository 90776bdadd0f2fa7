import math
import random

import pytest

from omega.arith import (
    SMALL_PRIMES,
    _GCD_ROWS,
    _RHO_BUDGET,
    Factored,
    _brent,
    _factor,
    _jacobi,
    _pminus1,
    _sieve,
    cyclotomic_value,
    divisors,
    factorize,
    gcd_identity_suite,
    is_prime,
    is_prime_power,
    r_part,
    smallest_prime_factor,
    zsigmondy,
)


# Reference implementations, kept deliberately naive.


def ref_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ref_zsigmondy(q, n):
    m = q**n - 1
    for r in sorted(ref_factor(m)):
        if all((q**i - 1) % r for i in range(1, n)):
            return r
    return None


def mobius(n):
    if n < 1:
        raise ValueError(f"mobius wants n >= 1, got {n}")
    mu = 1
    for _, e in _factor(n).items():
        if e >= 2:
            return 0
        mu = -mu
    return mu


def looped_cyclotomic_value(n, q):
    """Moebius inversion over every divisor d of n, each n/d factored anew."""
    num = den = 1
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            num *= q**d - 1
        elif mu == -1:
            den *= q**d - 1
    return num // den


def ref_gcd_rows(q_range, ids=("e6-gcd", "sp-gcd")):
    """The gcd identity rows with full powers of q, each q factored anew."""
    rows = []
    for q in q_range:
        for row_id in ids:
            if row_id == "e6-gcd":
                lhs = math.gcd((q**5 - 1) * (q + 1), q * q - q + 1)
                rhs = math.gcd(q + 1, 3)
                rows.append({"id": row_id, "q": q, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs})
                continue
            (p, k), *others = _factor(q).items()
            if others or p == 2:
                continue
            for n in range(2, 13):
                eps = 1 if (k * (n - 1)) % 2 == 1 else -1
                lhs = math.gcd(q ** (n - 1) - eps, p + 1)
                rows.append({"id": row_id, "q": q, "n": n, "lhs": lhs, "rhs": 2, "ok": lhs == 2})
    return rows


def test_factorize_frozen():
    assert factorize(51840).factors == {2: 7, 3: 4, 5: 1}
    assert factorize(5115).factors == {3: 1, 5: 1, 11: 1, 31: 1}
    assert factorize(1).factors == {}
    assert factorize(2**61 - 1).factors == {2**61 - 1: 1}


def test_factorize_matches_reference():
    rng = random.Random(7)
    for n in list(range(1, 400)) + [rng.randrange(1, 10**9) for _ in range(60)]:
        assert factorize(n).factors == ref_factor(n), n


def test_factorize_rejects_bad_input():
    for bad in (0, -5, 2**63, 1.5, "12", True):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factored_validates():
    with pytest.raises(ValueError):
        Factored(10, {2: 1, 3: 1})
    assert str(Factored(51840, {2: 7, 3: 4, 5: 1})) == "2^7 * 3^4 * 5"
    assert str(Factored(1, {})) == "1"
    assert Factored(12, {2: 2, 3: 1}).primes() == (2, 3)


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(3) and is_prime(10007)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    # Carmichael numbers and strong pseudoprimes to small bases.
    for n in (561, 1105, 1729, 2047, 8911, 3215031751):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
    assert is_prime(2**89 - 1)
    assert not is_prime((2**61 - 1) ** 2)


def test_is_prime_matches_sieve():
    flags = [True] * 5000
    flags[0] = flags[1] = False
    for i in range(2, 71):
        if flags[i]:
            for j in range(i * i, 5000, i):
                flags[j] = False
    for n in range(5000):
        assert is_prime(n) == flags[n], n


@pytest.mark.parametrize("bound", [100, 10_000])
def test_sieve_matches_trial_division(bound):
    want = [n for n in range(2, bound + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert _sieve(bound) == want
    if bound == 10_000:
        assert SMALL_PRIMES == want


def test_r_part_frozen():
    assert r_part(48, 2) == (16, 3)
    assert r_part(5115, 15) == (15, 341)
    assert r_part(1, 7) == (1, 1)
    assert r_part(7**3, 7) == (343, 1)


def test_r_part_reconstructs():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 10**7)
        r = rng.randrange(2, 1000)
        a, b = r_part(n, r)
        assert a * b == n
        assert math.gcd(b, r) == 1 or all(b % p for p in ref_factor(r))
        for p in ref_factor(a):
            assert r % p == 0 or any(r % pp == 0 for pp in ref_factor(p))


def test_r_part_rejects_bad_input():
    with pytest.raises(ValueError):
        r_part(0, 2)
    with pytest.raises(ValueError):
        r_part(10, 1)


def test_mobius_and_divisors():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_argument_checks_hold_without_asserts():
    # raised as ValueError, so the checks stay under python -O
    for call, match in [
        (lambda: _factor(0), "n >= 1"),
        (lambda: _jacobi(2, 4), "odd n > 0"),
        (lambda: _jacobi(2, -3), "odd n > 0"),
        (lambda: mobius(0), "n >= 1"),
        (lambda: divisors(-4), "n >= 1"),
        (lambda: cyclotomic_value(0, 2), "n >= 1 and q >= 2"),
        (lambda: cyclotomic_value(3, 1), "n >= 1 and q >= 2"),
        (lambda: smallest_prime_factor(1), "n >= 2"),
    ]:
        with pytest.raises(ValueError, match=match):
            call()


def test_cyclotomic_values():
    assert cyclotomic_value(1, 5) == 4
    assert cyclotomic_value(2, 5) == 6
    assert cyclotomic_value(6, 2) == 3
    assert cyclotomic_value(12, 2) == 13
    # Product of cyclotomic values over divisors rebuilds q^n - 1.
    for q in (2, 3, 9, 49):
        for n in range(1, 16):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_value(d, q)
            assert prod == q**n - 1


def test_cyclotomic_values_match_the_divisor_loop():
    for q in (*range(2, 14), 1000, 2**31 - 1):
        for n in range(1, 121):
            assert cyclotomic_value(n, q) == looped_cyclotomic_value(n, q), (n, q)


def test_zsigmondy_frozen():
    assert zsigmondy(2, 6) is None
    assert zsigmondy(2, 3) == 7
    assert zsigmondy(3, 4) == 5
    assert zsigmondy(2, 9) == 73
    assert zsigmondy(2, 18) == 19
    assert zsigmondy(4, 9) == 19


def test_zsigmondy_matches_reference():
    for q in (2, 3, 4, 5, 7, 9):
        for n in range(3, 13):
            assert zsigmondy(q, n) == ref_zsigmondy(q, n), (q, n)


def test_zsigmondy_rejects_bad_input():
    for q, n in ((1, 5), (2, 2), (2, 0), (0, 3)):
        with pytest.raises(ValueError):
            zsigmondy(q, n)


def test_zsigmondy_residue_property():
    # Primitive prime divisors are 1 mod n.
    for q in range(2, 30):
        for n in range(3, 16):
            r = zsigmondy(q, n)
            if r is not None:
                assert r % n == 1, (q, n, r)
                assert (q**n - 1) % r == 0


def test_smallest_prime_factor():
    assert smallest_prime_factor(2**61 - 1) == 2**61 - 1
    assert smallest_prime_factor(3 * (2**61 - 1)) == 3
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(2, 10**8)
        assert smallest_prime_factor(n) == min(ref_factor(n))


# One number per stage of _factor: the budgeted rho (Phi_17(7), Phi_17(10)),
# the first semiprime past the prime shortcut at 10^8 with no factor below
# 10^4, a prime below it, the square test and a prime cube, and a semiprime
# that passes the rho budget and both p-1 bounds.  Near 10^6 every rho walk
# splits within the budget, so its factors are near 2 * 10^6.
PAST_BUDGET = (2013653, 2053757)
STAGE_CASES = [cyclotomic_value(17, 7), cyclotomic_value(17, 10), 10007 * 10009, 99999989,
               10007**2, 10007**3, math.prod(PAST_BUDGET)]


@pytest.mark.parametrize("n", STAGE_CASES)
def test_factoring_stages_match_reference(n):
    want = ref_factor(n)
    assert _factor(n) == want
    assert smallest_prime_factor(n) == min(want)


def test_factoring_stage_reached():
    assert _brent(cyclotomic_value(17, 7), _RHO_BUDGET) == 14009
    assert _brent(cyclotomic_value(17, 10), _RHO_BUDGET) == 2071723
    n = math.prod(PAST_BUDGET)
    assert _brent(n, _RHO_BUDGET) is None
    assert _pminus1(n, 10_000) is None and _pminus1(n, 100_000) is None
    assert _brent(n) in PAST_BUDGET


def test_is_prime_power():
    assert is_prime_power(8) == 2
    assert is_prime_power(9) == 3
    assert is_prime_power(7) == 7
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None


def test_gcd_identity_rows():
    rows = gcd_identity_suite(range(2, 100))
    assert all(r["ok"] for r in rows)
    ids = {r["id"] for r in rows}
    assert ids == {"e6-gcd", "sp-gcd"}
    sp = [r for r in rows if r["id"] == "sp-gcd"]
    # Odd prime powers below 100: 29 of them, times n in 2..12.
    assert len(sp) == 29 * 11
    assert all(r["rhs"] == 2 for r in sp)
    with pytest.raises(ValueError):
        gcd_identity_suite([1])


@pytest.mark.parametrize("row_id", sorted(_GCD_ROWS))
def test_gcd_rows_of_one_identity(row_id):
    every = gcd_identity_suite(range(2, 401))
    assert gcd_identity_suite(range(2, 401), (row_id,)) == [
        r for r in every if r["id"] == row_id]
    with pytest.raises(ValueError):
        gcd_identity_suite([1], (row_id,))


@pytest.mark.parametrize("q_range", [
    range(2, 5001),
    range(2188, 2500),
    [3**7, 1000, 2, 9, 5**5, 7, 4, 3, 2**10, 4999, 3],
], ids=["2..5000", "2188..2499", "unsorted"])
def test_gcd_rows_match_full_powers(q_range):
    assert gcd_identity_suite(q_range) == ref_gcd_rows(q_range)
    for row_id in _GCD_ROWS:
        assert gcd_identity_suite(q_range, (row_id,)) == ref_gcd_rows(q_range, (row_id,))


@pytest.mark.parametrize("q_range", [[1], [5, 7, 0], range(-3, 9)])
def test_gcd_rows_want_q_of_two_or_more(q_range):
    bad = next(q for q in q_range if q < 2)
    for ids in (("e6-gcd", "sp-gcd"), ("e6-gcd",), ("sp-gcd",)):
        with pytest.raises(ValueError, match=f"q >= 2, got {bad}$"):
            gcd_identity_suite(q_range, ids)
