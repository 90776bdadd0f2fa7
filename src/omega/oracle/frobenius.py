"""Frobenius subgroup witnesses and an exhaustive pass/fail verifier."""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ..arith import _factor, is_prime_power, r_part
from .action import _moved_ranks
from .field import build_field
from .kernel import _eliminate, _kernel, _make_codec
from .matgroup import (Matrix, MatrixGroup, _elementary, _lookup, classical_generators,
                       enumerate_group)

VERIFY_CAP = 1 << 20


class WitnessSearchError(RuntimeError):
    """No element with the required normalizing behaviour exists."""


@dataclass(frozen=True)
class FrobeniusWitness:
    kind: str
    params: tuple
    kernel_gens: tuple
    complement_gens: tuple
    kernel_order: int
    complement_order: int


@dataclass(frozen=True)
class FrobeniusVerdict:
    ok: bool
    kernel_order: int
    complement_order: int
    reason: str = ""
    counterexample: tuple = None


def _singer_block(q, k):
    """Multiplication by a generator of GF(q^k)* as a k x k matrix over GF(q):
    the companion matrix of a primitive polynomial, found by direct search."""
    p = is_prime_power(q)
    if p is None:
        raise ValueError(f"{q} is not a prime power")
    fld = build_field(p, _factor(q)[p])
    total = q**k - 1
    fac = sorted(_factor(total))
    for coeffs in itertools.product(range(q), repeat=k):
        if coeffs[0] == 0:
            continue
        comp = np.zeros((k, k), dtype=np.uint16)
        for i in range(1, k):
            comp[i, i - 1] = 1
        for i in range(k):
            comp[i, k - 1] = fld.neg(coeffs[i])
        m = Matrix(fld, comp)
        if not (m**total).is_identity():
            continue
        if all(not (m ** (total // r)).is_identity() for r in fac):
            return m, fld
    raise WitnessSearchError(f"no primitive degree-{k} polynomial over GF({q})")


def _translations(fld, n):
    """The n x n translations of the hyperplane of coordinates 1 .. n-1 along
    coordinate 0, one per position and basis element of fld."""
    return tuple(_elementary(fld, n, (0, j, b)) for j in range(1, n) for b in fld.basis())


def _sl_hyperplane_witness(n, q):
    """Inside SL_n(q): translations of a hyperplane, normalized by a power of a
    Singer cycle of the complementary block, adjusted to determinant one.  The
    determinant adjustment twists the action on the translations, so only the
    part of q^(n-1)-1 coprime to gcd(n, q-1) survives as a free complement;
    the right Singer power is found by searching."""
    if n < 2:
        raise ValueError(f"wants n >= 2, got {n}")
    singer, fld = _singer_block(q, n - 1)
    big_order = q ** (n - 1) - 1
    d = math.gcd(n, q - 1)
    e = big_order if d == 1 else r_part(big_order, d)[1]
    if e == 1:
        raise WitnessSearchError(f"free complement degenerates for (n, q) = ({n}, {q})")
    for u in range(1, big_order):
        if math.gcd(big_order, u) != big_order // e:
            continue
        t = singer**u
        ech = _eliminate(fld, t.a[None])
        big = np.eye(n, dtype=np.uint16)
        big[0, 0] = fld.inv(int(ech.det[0]))
        big[1:, 1:] = t.a
        # conjugation sends the translation row w to det^-1 * w * t^-1; the
        # complement is free exactly when no proper power of that map fixes
        # a nonzero vector, i.e. every act^j - 1 with 0 < j < e is invertible
        act = Matrix(fld, fld.mul_many(ech.inverse[0].T, int(big[0, 0])))
        powers = list(itertools.accumulate([act] * e, operator.matmul))
        if not powers[-1].is_identity():
            continue
        if (_moved_ranks(fld, np.array([g.a for g in powers[:-1]])) == n - 1).all():
            return FrobeniusWitness(
                kind="sl-hyperplane",
                params=(n, q),
                kernel_gens=_translations(fld, n),
                complement_gens=(Matrix(fld, big),),
                kernel_order=q ** (n - 1),
                complement_order=e,
            )
    raise WitnessSearchError(f"no free Singer power for (n, q) = ({n}, {q})")


def _gl_affine_witness(q, k):
    """Inside GL_(k+1)(q): the affine group of the line GF(q^k), kernel the
    translations, complement a Singer cycle."""
    singer, fld = _singer_block(q, k)
    big = np.eye(k + 1, dtype=np.uint16)
    big[1:, 1:] = singer.a
    return FrobeniusWitness(
        kind="gl-affine",
        params=(q, k),
        kernel_gens=_translations(fld, k + 1),
        complement_gens=(Matrix(fld, big),),
        kernel_order=q**k,
        complement_order=q**k - 1,
    )


def _mult_order(j, n):
    m, x = 1, j % n
    while x != 1:
        x = (x * j) % n
        m += 1
        if m > n:
            raise RuntimeError(f"{j} has no multiplicative order mod {n}")
    return m


def _sp_torus_witness(n, q):
    """Inside Sp_2n(q), q even, n a power of two: a cyclic kernel of order
    q^n + 1 with a cyclic complement of order 2n found by search."""
    if q % 2 or n < 1 or n & (n - 1):
        raise ValueError(f"needs even q and a 2-power n, got (n, q) = ({n}, {q})")
    group = classical_generators(f"C({n},{q})u")
    table = enumerate_group(group)
    fld = group.field
    orders = table.orders()
    target = q**n + 1
    s_candidates = np.flatnonzero(orders == target)
    if not len(s_candidates):
        raise WitnessSearchError(f"no element of order {target} in Sp_{2 * n}({q})")
    s = table.element(int(s_candidates[0]))
    good_j = sorted(j for j in range(2, target) if _mult_order(j, target) == 2 * n)
    sj_blocks = {j: (s**j).a for j in good_j}
    kern = _kernel(fld, group.dim)
    cand = np.flatnonzero(orders == 2 * n)
    for lo in range(0, len(cand), 1 << 14):
        sel = cand[lo:lo + (1 << 14)]
        X = kern.of_keys(table.payload.keys[sel])
        cs = kern.right(X, s.a)
        for j in good_j:
            sjc = kern.left(sj_blocks[j], X)
            hit = (cs == sjc).reshape(len(sel), -1).all(axis=1)
            if hit.any():
                c = table.element(int(sel[np.flatnonzero(hit)[0]]))
                return FrobeniusWitness(
                    kind="sp-torus",
                    params=(n, q),
                    kernel_gens=(s,),
                    complement_gens=(c,),
                    kernel_order=target,
                    complement_order=2 * n,
                )
    raise WitnessSearchError(
        f"no order-{2 * n} element conjugates the torus by a full-order power")


_KINDS = {
    "sl-hyperplane": lambda params: _sl_hyperplane_witness(*params),
    "gl-affine": lambda params: _gl_affine_witness(*params),
    "sp-torus": lambda params: _sp_torus_witness(*params),
}


def frobenius_witness(kind, params):
    if kind not in _KINDS:
        raise ValueError(f"unknown witness kind {kind!r}; have {sorted(_KINDS)}")
    return _KINDS[kind](tuple(params))


def verify_frobenius(kernel_gens, complement_gens, cap=VERIFY_CAP):
    """Exhaustive Frobenius check: trivial intersection, normalization, and a
    fixed-point-free complement action. Returns a verdict with counterexample."""
    fld = kernel_gens[0].field
    dim = kernel_gens[0].dim
    kg = MatrixGroup(fld, dim, tuple(kernel_gens))
    cg = MatrixGroup(fld, dim, tuple(complement_gens))
    kt = enumerate_group(kg, cap)
    ct = enumerate_group(cg, cap)
    k_keys = kt.payload.keys
    kern = _kernel(fld, dim)
    K = kern.of_keys(k_keys)
    _, both = _lookup(k_keys, ct.payload.keys)
    if int(both.sum()) != 1:
        shared = next(m for m in map(ct.element, np.flatnonzero(both).tolist())
                      if not m.is_identity())
        return FrobeniusVerdict(
            ok=False, kernel_order=kt.size, complement_order=ct.size,
            reason="kernel and complement intersect beyond the identity",
            counterexample=(shared, shared),
        )
    C = _make_codec(fld, dim).decode(ct.payload.keys)
    for a, a_inv in zip(C, _eliminate(fld, C).inverse):
        c = Matrix(fld, a)
        if c.is_identity():
            continue
        conj_keys = kern.keys(kern.right(kern.left(a, K), a_inv))
        _, inside = _lookup(k_keys, conj_keys)
        if not inside.all():
            bad = int(np.flatnonzero(~inside)[0])
            return FrobeniusVerdict(
                ok=False, kernel_order=kt.size, complement_order=ct.size,
                reason="complement element does not normalize the kernel",
                counterexample=(c, kt.element(bad)),
            )
        fixed = conj_keys == k_keys
        if int(fixed.sum()) > 1:
            bad = next(m for m in map(kt.element, np.flatnonzero(fixed).tolist())
                       if not m.is_identity())
            return FrobeniusVerdict(
                ok=False, kernel_order=kt.size, complement_order=ct.size,
                reason="complement element fixes a nontrivial kernel element",
                counterexample=(c, bad),
            )
    return FrobeniusVerdict(ok=True, kernel_order=kt.size, complement_order=ct.size)
