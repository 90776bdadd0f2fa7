"""Exact arithmetic in GF(p^k) for p^k <= 2^16, table-driven for small fields."""

from functools import lru_cache, reduce

import numpy as np

from ..arith import _factor, is_prime

_TABLE_LIMIT = 2048
# Digits per block while the addition table is built.
_ADD_BLOCK = 1 << 16

# Polynomials over GF(p) as coefficient lists, low degree first.


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a, f, p):
    a = list(a)
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) >= len(f):
        c = a[-1] * inv_lead % p
        if c:
            shift = len(a) - len(f)
            for i, x in enumerate(f):
                a[shift + i] = (a[shift + i] - c * x) % p
        a.pop()
    return _ptrim(a)


def _irreducible(f, p):
    """True when no monic g of degree 1..k//2 divides the monic f of degree k."""
    k = len(f) - 1
    return all(_pmod(f, _code_to_poly(m, p), p)
               for d in range(1, k // 2 + 1) for m in range(p**d, 2 * p**d))


def _code_to_poly(m, p):
    out = []
    while m:
        out.append(m % p)
        m //= p
    return out


def _poly_to_code(a, p):
    out = 0
    for c in reversed(a):
        out = out * p + c
    return out


class Field:
    """GF(p^k); elements are integer codes in [0, p^k), base-p digit encoding."""

    def __init__(self, p, k, modulus):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = tuple(modulus)
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise ValueError(f"modulus {self.modulus} is not monic of degree {k}")
        q = self.q
        # Discrete log tables from a multiplicative generator.
        g = self._find_generator()
        self.generator = g
        exp = np.zeros(max(q - 1, 1), dtype=np.uint32)
        c = 1
        for i in range(q - 1):
            exp[i] = c
            c = self._mul_slow(c, g)
        if c != 1 or sorted(exp) != list(range(1, q)):
            raise ValueError(f"modulus {self.modulus} is not irreducible over GF({p})")
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        digits = np.zeros((q, k), dtype=np.int64)
        m = np.arange(q)
        for i in range(k):
            digits[:, i] = m % p
            m = m // p
        self._digits = digits
        self._powers = p ** np.arange(k)
        dtype = np.uint8 if q <= 256 else np.uint16
        self.code_dtype = dtype
        # a * b == mul_exp[mul_log[a] + mul_log[b]] for all codes: mul_log[0]
        # lies past every sum of two logs, and mul_exp is zero from there on
        n = max(q - 1, 1)
        self.mul_log = np.where(np.arange(q) == 0, 2 * n, log).astype(np.int32)
        self.mul_exp = np.concatenate([exp, exp, np.zeros(2 * n + 1, exp.dtype)]).astype(dtype)
        # odd p only (p = 2 adds by XOR), built in blocks of rows to bound
        # the (rows, q, k) digit temporaries of add_many
        a, self.add_table = np.arange(q), None
        if p != 2 and q <= _TABLE_LIMIT:
            table, step = np.empty((q, q), dtype=dtype), max(1, _ADD_BLOCK // (q * k))
            for lo in range(0, q, step):
                table[lo:lo + step] = self.add_many(a[lo:lo + step, None], a)
            self.add_table = table
        inv = np.zeros(q, dtype=dtype)
        if q > 1:
            inv[exp] = exp[(-np.arange(q - 1)) % (q - 1)]
        self.inv_table = inv
        self.neg_table = ((-digits % p) @ self._powers).astype(dtype)

    def _mul_slow(self, a, b):
        prod = _pmul(_code_to_poly(a, self.p), _code_to_poly(b, self.p), self.p)
        return _poly_to_code(_pmod(prod, list(self.modulus), self.p), self.p)

    def _find_generator(self):
        q = self.q
        if q == 2:
            return 1
        rs = list(_factor(q - 1))
        for c in range(2, q):
            if all(self._pow_slow(c, (q - 1) // r) != 1 for r in rs):
                return c
        raise RuntimeError("no generator found")

    def _pow_slow(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self._mul_slow(out, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return out

    # Vectorized arithmetic on arrays of codes (any shape, broadcastable).

    def add_many(self, a, b):
        """a + b as codes of code_dtype: XOR for p = 2, a lookup in the
        addition table of odd p while q <= _TABLE_LIMIT, else digit by digit."""
        if self.add_table is not None:
            return self.add_table[a, b]
        if self.p == 2:
            return np.bitwise_xor(a, b).astype(self.code_dtype, copy=False)
        s = (self._digits[a] + self._digits[b]) % self.p
        return (s @ self._powers).astype(self.code_dtype)

    def mul_many(self, a, b):
        return self.mul_exp[self.mul_log[a] + self.mul_log[b]]

    def matmul(self, A, B):
        """A[i] @ B[i] for code stacks, either side possibly one 2-D matrix:
        int matmul mod p for prime fields, else summed log/exp lookups."""
        if self.k == 1:
            # exact in uint16 while a sum of d products of codes < p stays below 2^16
            wide = np.int64 if A.shape[-1] * (self.p - 1) ** 2 >= 1 << 16 else np.uint16
            return (np.matmul(A.astype(wide), B.astype(wide)) % self.p).astype(self.code_dtype)
        la, lb = self.mul_log[A], self.mul_log[B]
        return reduce(self.add_many, (self.mul_exp[la[..., :, j, None] + lb[..., None, j, :]]
                                      for j in range(A.shape[-1])))

    def matpow(self, A, e):
        """A[i]^e for a code stack A, or one matrix, and e >= 0: square and
        multiply along the bits of e from the top."""
        if not e:
            return np.broadcast_to(np.eye(A.shape[-1], dtype=self.code_dtype), A.shape).copy()
        out = A.astype(self.code_dtype)
        for bit in bin(e)[3:]:
            out = self.matmul(out, out)
            if bit == "1":
                out = self.matmul(out, A)
        return out

    # Scalar convenience wrappers.

    def add(self, a, b):
        return int(self.add_many(np.int64(a), np.int64(b)))

    def mul(self, a, b):
        return int(self.mul_many(a, b))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self.inv_table[a])

    def neg(self, a):
        return int(self.neg_table[a])

    def pow(self, a, e):
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError(f"0 ** {e} is undefined")
            return 0
        return int(self.mul_exp[int(self.mul_log[a]) * e % (self.q - 1)])

    def frob(self, a, i=1):
        """a^(p^i)."""
        return self.pow(a, self.p**i)

    def basis(self):
        """Codes of a GF(p)-basis: 1, x, x^2, ..., x^(k-1)."""
        return [self.p**i for i in range(self.k)]

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))


def build_field(p, k=1):
    """GF(p^k) with the deterministic modulus: the least monic irreducible of
    degree k (smallest integer code), found by trial division and proved again
    by Field's exp table."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1 or p**k > 2**16:
        raise ValueError(f"field size cap is 2^16, got {p}^{k}")
    return _least_field(p, k)


@lru_cache(maxsize=None)
def _least_field(p, k):
    # for k = 1 there is no divisor degree to try, so x, the first code, is taken
    for m in range(p**k, 2 * p**k):
        f = _code_to_poly(m, p)
        if _irreducible(f, p):
            return Field(p, k, f)
