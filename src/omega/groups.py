"""Group spec strings and factored orders for the finite groups of Lie type."""

import math
import re

from .arith import Factored, _factor, cyclotomic_value, divisors, is_prime_power
from .record import Record

FAMILIES = ("A", "2A", "B", "C", "D", "2D", "3D4", "G2", "F4", "E6", "2E6", "E7")

_FIXED_RANK = {"3D4": 4, "G2": 2, "F4": 4, "E6": 6, "2E6": 6, "E7": 7}
_MIN_RANK = {"A": 1, "2A": 1, "B": 2, "C": 2, "D": 4, "2D": 4}


class GroupSpec(Record):
    """A family, rank, q and version; p and k, with q = p^k, are derived."""

    _fields, _extra = ("family", "rank", "q", "version"), ("p", "k")

    def __init__(self, family, rank, q, version="simple"):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if version not in ("universal", "simple"):
            raise ValueError(f"unknown version {version!r}")
        fixed = _FIXED_RANK.get(family)
        if fixed is not None and rank != fixed:
            raise ValueError(f"{family} has rank {fixed}, got {rank}")
        if fixed is None and rank < _MIN_RANK[family]:
            raise ValueError(f"family {family} wants rank >= {_MIN_RANK[family]}")
        p = is_prime_power(q)
        if p is None:
            raise ValueError(f"q must be a prime power >= 2, got {q}")
        vars(self).update(family=family, rank=rank, q=q, version=version, p=p, k=_factor(q)[p])

    def __str__(self):
        v = "u" if self.version == "universal" else "s"
        if self.family in _FIXED_RANK:
            return f"{self.family}({self.q}){v}"
        return f"{self.family}({self.rank},{self.q}){v}"


_ARGS = re.compile(r"\((\d+)(?:,(\d+))?\)(.*)")


def parse_group_spec(text):
    """Parse 'C(2,4)u', 'E6(2)s', '2A(3,3)u'. Version defaults to simple."""
    if not isinstance(text, str):
        raise ValueError(f"group spec must be a string, got {text!r}")
    s = text.strip()
    family = None
    for f in sorted(FAMILIES, key=len, reverse=True):
        if s.startswith(f):
            family, rest = f, s[len(f) :]
            break
    if family is None:
        raise ValueError(f"no known family in {text!r}")
    m = _ARGS.fullmatch(rest)
    if m is None:
        raise ValueError(f"malformed group spec {text!r}")
    a, b, tail = m.groups()
    if tail == "" :
        version = "simple"
    elif tail == "u":
        version = "universal"
    elif tail == "s":
        version = "simple"
    else:
        raise ValueError(f"unknown version suffix {tail!r} in {text!r}")
    if family in _FIXED_RANK:
        if b is not None:
            raise ValueError(f"{family} takes a single argument (q), got {text!r}")
        rank, q = _FIXED_RANK[family], int(a)
    else:
        if b is None:
            raise ValueError(f"{family} wants (rank,q), got {text!r}")
        rank, q = int(a), int(b)
    return GroupSpec(family, rank, q, version)


# Universal order polynomials, kept as cyclotomic data: the q-power exponent and
# a multiset of cyclotomic indices. q^i - 1 contributes {d : d | i} and q^i + 1
# contributes {d : d | 2i, d not | i}.


def _minus(i):
    return divisors(i)


def _plus(i):
    return [d for d in divisors(2 * i) if i % d]


def _cyclo_profile(spec):
    n = spec.rank
    fam = spec.family
    if fam == "A":
        return n * (n + 1) // 2, [d for i in range(2, n + 2) for d in _minus(i)]
    if fam == "2A":
        out = []
        for i in range(2, n + 2):
            out += _minus(i) if i % 2 == 0 else _plus(i)
        return n * (n + 1) // 2, out
    if fam in ("B", "C"):
        return n * n, [d for i in range(1, n + 1) for d in _minus(2 * i)]
    if fam == "D":
        return n * (n - 1), _minus(n) + [d for i in range(1, n) for d in _minus(2 * i)]
    if fam == "2D":
        return n * (n - 1), _plus(n) + [d for i in range(1, n) for d in _minus(2 * i)]
    if fam == "3D4":
        return 12, [3, 6, 12] + _minus(6) + _minus(2)
    if fam == "G2":
        return 6, _minus(6) + _minus(2)
    if fam == "F4":
        return 24, _minus(12) + _minus(8) + _minus(6) + _minus(2)
    if fam == "E6":
        return 36, [d for i in (12, 9, 8, 6, 5, 2) for d in _minus(i)]
    if fam == "2E6":
        return 36, _minus(12) + _plus(9) + _minus(8) + _minus(6) + _plus(5) + _minus(2)
    if fam == "E7":
        return 63, [d for i in (18, 14, 12, 10, 8, 6, 2) for d in _minus(i)]
    raise RuntimeError(f"no order profile for family {fam!r}")


def center_order(spec):
    """Order of the center of the universal version."""
    fam, n, q = spec.family, spec.rank, spec.q
    if fam == "A":
        return math.gcd(n + 1, q - 1)
    if fam == "2A":
        return math.gcd(n + 1, q + 1)
    if fam in ("B", "C"):
        return math.gcd(2, q - 1)
    if fam == "D":
        return math.gcd(4, q**n - 1) if n % 2 else math.gcd(2, q - 1) ** 2
    if fam == "2D":
        return math.gcd(4, q**n + 1)
    if fam == "E6":
        return math.gcd(3, q - 1)
    if fam == "2E6":
        return math.gcd(3, q + 1)
    if fam == "E7":
        return math.gcd(2, q - 1)
    return 1


def group_order(spec):
    """|G| as a Factored value; the simple version divides out the center."""
    qexp, cyclos = _cyclo_profile(spec)
    factors = {spec.p: spec.k * qexp}
    for d in cyclos:
        for r, e in _factor(cyclotomic_value(d, spec.q)).items():
            factors[r] = factors.get(r, 0) + e
    if spec.version == "simple":
        for r, e in _factor(center_order(spec)).items():
            factors[r] -= e
            if factors[r] < 0:
                raise RuntimeError(f"the center of {spec} does not divide its order")
    factors = {r: e for r, e in sorted(factors.items()) if e > 0}
    n = 1
    for r, e in factors.items():
        n *= r**e
    return Factored(n, factors)
