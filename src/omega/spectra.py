"""Divisor-closed spectrum descriptors, closed-form spectra, prime graphs."""

import math

from .arith import _factor
from .groups import GroupSpec
from .record import Record

_SCOPES = ("full", "p_prime_only", "mixed_only")


class SpectrumDescriptor(Record):
    """A divisor-closed set of integers, held by its maximal generators."""

    _fields = ("generators", "scope", "context")

    def __init__(self, generators, scope="full", context=None):
        if scope not in _SCOPES:
            raise ValueError(f"scope {scope!r} is not one of {_SCOPES}")
        if list(generators) != sorted(generators) or any(a < 1 for a in generators):
            raise ValueError(f"generators must be sorted positive integers: {generators}")
        for i, a in enumerate(generators):
            for b in generators[i + 1 :]:
                if not b % a:
                    raise ValueError(f"not an antichain: {a} divides {b}")
        if scope == "p_prime_only" and context is not None:
            if any(g % context.p == 0 for g in generators):
                raise ValueError(f"a generator is divisible by p = {context.p}")
        vars(self).update(generators=generators, scope=scope, context=context)

    def __contains__(self, m):
        return contains(self, m)

    def primes(self):
        out = set()
        for g in self.generators:
            out |= set(_factor(g))
        return tuple(sorted(out))


def canonicalize(values, scope="full", context=None):
    """Drop every value dividing another; sort. Same divisor-closed set, minimal form."""
    vals = list(values)
    if not vals:
        raise ValueError("canonicalize wants a non-empty list")
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in vals):
        raise ValueError(f"values must be positive integers: {vals!r}")
    vals = sorted(set(vals), reverse=True)
    kept = []
    for v in vals:
        if not any(k % v == 0 for k in kept):
            kept.append(v)
    return SpectrumDescriptor(tuple(sorted(kept)), scope, context)


def contains(desc, m):
    """Membership of m in the divisor-closed set."""
    if m < 1:
        raise ValueError(f"membership wants m >= 1, got {m}")
    return any(g % m == 0 for g in desc.generators)


def _sign(eps):
    if eps in (1, "+", "+1"):
        return 1
    if eps in (-1, "-", "-1"):
        return -1
    raise ValueError(f"sign must be +1 or -1, got {eps!r}")


def e6_semisimple_spectrum(q, eps):
    """Semisimple-order descriptor for the simple group of type E6 (eps=+1) or
    twisted E6 (eps=-1): divisors of nine numbers, d = (3, q-eps)."""
    e = _sign(eps)
    spec = GroupSpec("E6" if e == 1 else "2E6", 6, q, "simple")
    d = math.gcd(3, q - e)
    entries = [
        (q**6 + e * q**3 + 1, d),
        ((q**4 - q**2 + 1) * (q**2 + e * q + 1), d),
        ((q**5 - e) * (q + e), d),
        (q**5 - e, 1),
        ((q**4 + 1) * (q**2 - 1), d),
        (q**6 - 1, d),
        ((q**3 - e) * (q + e), 1),
        ((q**4 - 1) * (q**2 - e * q + 1), d),
        (q**4 - 1, 1),
    ]
    if any(num % den for num, den in entries):
        raise RuntimeError(f"an E6 order family at q = {q} is not divisible by its gcd")
    return canonicalize([num // den for num, den in entries], "p_prime_only", spec)


def e7_semisimple_spectrum(q):
    """Semisimple-order descriptor for the universal group of type E7:
    divisors of nine expression families, each taken at both signs."""
    spec = GroupSpec("E7", 7, q, "universal")
    d2 = math.gcd(2, q - 1)
    nums = []
    for e in (1, -1):
        if (q**4 + 1) * (q**2 + 1) * (q - e) % d2:
            raise RuntimeError(f"an E7 order family at q = {q} is not divisible by {d2}")
        nums += [
            (q**6 + e * q**3 + 1) * (q - e),
            q**7 - e,
            (q**4 - q**2 + 1) * (q**3 - e),
            (q**5 - e) * (q**2 + e * q + 1),
            (q**5 - e) * (q + e),
            (q**4 + 1) * (q**2 + 1) * (q - e) // d2,
            (q**4 + 1) * (q**2 - 1),
            (q**4 - 1) * (q**2 + e * q + 1),
            q**6 - 1,
        ]
    return canonicalize(nums, "p_prime_only", spec)


def d43_mixed_spectrum(q):
    """Mixed-order descriptor for triality D4 at even q: divisors of
    2(q^3+1), 2(q^3-1), 4(q^2+q+1), 4(q^2-q+1)."""
    if q % 2:
        raise ValueError(f"mixed-order list is catalogued for even q only, got q={q}")
    spec = GroupSpec("3D4", 4, q, "simple")
    nums = [
        2 * (q**3 + 1),
        2 * (q**3 - 1),
        4 * (q**2 + q + 1),
        4 * (q**2 - q + 1),
    ]
    return canonicalize(nums, "mixed_only", spec)


def _signed_partitions(n, max_part):
    # Parts are (size, eps) with eps in {1, -1}; nonincreasing in (size, eps)
    # to enumerate each signed multiset once.
    if n == 0:
        yield ()
        return
    for size in range(min(n, max_part[0]), 0, -1):
        for eps in (1, -1):
            if (size, eps) > max_part:
                continue
            for rest in _signed_partitions(n - size, (size, eps)):
                yield ((size, eps),) + rest


def symplectic_torus_spectrum(n, q):
    """Semisimple orders of Sp_2n(q) from its maximal tori: all values
    lcm(q^n_1 - e_1, ..., q^n_k - e_k) over signed partitions of n."""
    if n < 2 or q < 2:
        raise ValueError(f"torus spectrum wants n >= 2 and q >= 2, got ({n}, {q})")
    spec = GroupSpec("C", n, q, "universal")
    vals = set()
    for parts in _signed_partitions(n, (n, 1)):
        vals.add(math.lcm(*(q**s - e for s, e in parts)))
    return canonicalize(vals, "p_prime_only", spec)


class PrimeGraph(Record):
    _fields = ("vertices", "edges")

    def __init__(self, vertices, edges):
        if list(vertices) != sorted(vertices):
            raise ValueError(f"vertices {vertices} are not sorted")
        for r, t in edges:
            if not (r < t and r in vertices and t in vertices):
                raise ValueError(f"edge {(r, t)} is not an ordered pair of vertices")
        vars(self).update(vertices=vertices, edges=edges)

    def adjacent(self, r, t):
        return (min(r, t), max(r, t)) in set(self.edges)


def prime_graph(desc):
    """Graph on the primes of the set; r and t joined iff rt is in the set."""
    verts = desc.primes()
    edges = []
    for i, r in enumerate(verts):
        for t in verts[i + 1 :]:
            if contains(desc, r * t):
                edges.append((r, t))
    return PrimeGraph(tuple(verts), tuple(edges))


def pg_nonadjacency_witnesses(graph):
    """For each vertex r, the smallest vertex t != r with no edge {r,t}, else None."""
    adj = {v: set() for v in graph.vertices}
    for r, t in graph.edges:
        adj[r].add(t)
        adj[t].add(r)
    out = {}
    for r in graph.vertices:
        out[r] = next((t for t in graph.vertices if t != r and t not in adj[r]), None)
    return out
