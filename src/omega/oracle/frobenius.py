"""Frobenius subgroup witnesses and an exhaustive pass/fail verifier."""

import math

import numpy as np

from ..arith import _factor, is_prime_power, r_part
from ..record import Record
from .field import build_field
from .kernel import _eliminate, _kernel
from .matgroup import (Matrix, _classes, _closure, _elementary, _lookup, classical_generators,
                       enumerate_group)

VERIFY_CAP = 1 << 20
# Keyed products per block of verify_frobenius: each of aK and Ka has about
# this many keys.
_VERIFY_BLOCK = 1 << 20
# Companion matrices per code stack of the Singer cycle search.
_SINGER_BLOCK = 512


class WitnessSearchError(RuntimeError):
    """No element with the required normalizing behaviour exists."""


class FrobeniusWitness(Record):
    _fields = ("kind", "params", "kernel_gens", "complement_gens", "kernel_order",
               "complement_order")

    def __init__(self, kind, params, kernel_gens, complement_gens, kernel_order,
                 complement_order):
        vars(self).update(kind=kind, params=params, kernel_gens=kernel_gens,
                          complement_gens=complement_gens, kernel_order=kernel_order,
                          complement_order=complement_order)


class FrobeniusVerdict(Record):
    _fields = ("ok", "kernel_order", "complement_order", "reason", "counterexample")

    def __init__(self, ok, kernel_order, complement_order, reason="", counterexample=None):
        vars(self).update(ok=ok, kernel_order=kernel_order, complement_order=complement_order,
                          reason=reason, counterexample=counterexample)


def _singer_block(q, k):
    """Multiplication by a generator of GF(q^k)* as a k x k matrix over GF(q):
    the companion matrix of a primitive polynomial, the first in
    lexicographic order of the coefficients (constant term nonzero).  The
    candidates go in blocks of _SINGER_BLOCK, each one code stack raised to
    q^k - 1 and, for its survivors, to (q^k - 1)/r for each prime r."""
    p = is_prime_power(q)
    if p is None:
        raise ValueError(f"{q} is not a prime power")
    fld = build_field(p, _factor(q)[p])
    total, eye = q**k - 1, np.eye(k, dtype=fld.code_dtype)

    def is_one(stack, e):
        return (fld.matpow(stack, e) == eye).all(axis=(1, 2))

    for lo in range(q ** (k - 1), q**k, _SINGER_BLOCK):
        coeffs = np.arange(lo, min(lo + _SINGER_BLOCK, q**k))[:, None] // q ** np.arange(k)[::-1] % q
        comp = np.zeros((len(coeffs), k, k), dtype=fld.code_dtype)
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1
        comp[:, :, k - 1] = fld.neg_table[coeffs]
        hit = np.flatnonzero(is_one(comp, total))
        for r in sorted(_factor(total)):
            hit = hit[~is_one(comp[hit], total // r)]
        if len(hit):
            return Matrix(fld, comp[hit[0]]), fld
    raise WitnessSearchError(f"no primitive degree-{k} polynomial over GF({q})")


def _hyperplane_witness(kind, params, fld, lam, t, order):
    """Kernel: the translations of coordinates 1 .. n-1 along coordinate 0, n = len(t) + 1,
    one per position and basis element of fld.  Complement: diag(lam, t), of order order."""
    n = len(t) + 1
    big = np.eye(n, dtype=np.uint16)
    big[0, 0], big[1:, 1:] = lam, t
    return FrobeniusWitness(
        kind=kind,
        params=params,
        kernel_gens=tuple(Matrix(fld, _elementary(fld, n, (0, j, b))) for j in range(1, n)
                          for b in fld.basis()),
        complement_gens=(Matrix(fld, big),),
        kernel_order=fld.q ** (n - 1),
        complement_order=order,
    )


def _sl_hyperplane_witness(n, q):
    """Inside SL_n(q): translations of a hyperplane, normalized by t =
    singer^((q^(n-1) - 1) / e), a power of a Singer cycle of the complementary
    block, adjusted to determinant one; e is the part of q^(n-1) - 1 coprime
    to gcd(n, q - 1).  Conjugation sends the translation row w to lam * w *
    t^-1, lam = det(t)^-1.  Let alpha be an eigenvalue of t^-1, of order e;
    then lam = alpha^M with M = (q^(n-1) - 1)/(q - 1), and act = lam (t^-1)^T
    has the eigenvalues alpha^(M + q^i).  So act^e = lam^e I = I, and, as
    alpha^M lies in GF(q), act^j fixes a nonzero vector exactly when
    (alpha * alpha^M)^j = 1.  A prime r dividing both e and 1 + M divides
    q^(n-1) - 1 = M (q - 1) but not M, so it divides q - 1; then M = n - 1
    (mod r), so r divides n, and hence gcd(n, q - 1), which e is coprime to.
    So no such r exists: act^j - 1 is invertible for 0 < j < e, and the
    complement, generated by diag(lam, t) of order e, acts freely."""
    if n < 2:
        raise ValueError(f"wants n >= 2, got {n}")
    singer, fld = _singer_block(q, n - 1)
    big_order = q ** (n - 1) - 1
    d = math.gcd(n, q - 1)
    e = big_order if d == 1 else r_part(big_order, d)[1]
    if e == 1:
        raise WitnessSearchError(f"free complement degenerates for (n, q) = ({n}, {q})")
    t = singer ** (big_order // e)
    _, det, _ = _eliminate(fld, t.a[None])
    return _hyperplane_witness("sl-hyperplane", (n, q), fld, fld.inv(int(det[0])), t.a, e)


def _gl_affine_witness(q, k):
    """Inside GL_(k+1)(q): the affine group of the line GF(q^k), kernel the
    translations, complement a Singer cycle."""
    singer, fld = _singer_block(q, k)
    return _hyperplane_witness("gl-affine", (q, k), fld, 1, singer.a, q**k - 1)


def _sp_torus_witness(n, q):
    """Inside Sp_2n(q), q even, n a power of two: a cyclic kernel of order
    q^n + 1 with a cyclic complement of order 2n found by search."""
    if q % 2 or n < 1 or n & (n - 1):
        raise ValueError(f"needs even q and a 2-power n, got (n, q) = ({n}, {q})")
    group = classical_generators(f"C({n},{q})u")
    table = enumerate_group(group)
    # orders are class functions, and a rep is its class's least index
    reps, label, _, orders = _classes(table.payload)
    target = q**n + 1
    s_candidates = reps[orders == target]
    if not len(s_candidates):
        raise WitnessSearchError(f"no element of order {target} in Sp_{2 * n}({q})")
    s = table.element(int(s_candidates[0]))
    # per block of candidates c, the least j and then the least c with c s = s^j c;
    # 2n is a power of two, so j has order 2n mod q^n + 1 iff j^n != 1 == j^2n
    powers = np.stack([(s**j).a for j in range(2, target)
                       if pow(j, n, target) != 1 == pow(j, 2 * n, target)])
    kern = _kernel(group.field, group.dim)
    cand = np.flatnonzero((orders == 2 * n)[label])
    for lo in range(0, len(cand), 1 << 14):
        sel = cand[lo:lo + (1 << 14)]
        K = table.payload.keys[sel]
        _, hit = np.nonzero(kern.left(powers, K) == kern.right(K, s.a))
        if len(hit):
            return FrobeniusWitness(
                kind="sp-torus",
                params=(n, q),
                kernel_gens=(s,),
                complement_gens=(table.element(int(sel[hit[0]])),),
                kernel_order=target,
                complement_order=2 * n,
            )
    raise WitnessSearchError(
        f"no order-{2 * n} element conjugates the torus by a full-order power")


_KINDS = {
    "sl-hyperplane": _sl_hyperplane_witness,
    "gl-affine": _gl_affine_witness,
    "sp-torus": _sp_torus_witness,
}


def frobenius_witness(kind, params):
    if kind not in _KINDS:
        raise ValueError(f"unknown witness kind {kind!r}; have {sorted(_KINDS)}")
    return _KINDS[kind](*params)


def verify_frobenius(kernel_gens, complement_gens):
    """Exhaustive Frobenius check: nontrivial kernel and complement, trivial
    intersection, normalization, and a fixed-point-free complement action.
    Returns a verdict with a counterexample, or none for a trivial group.
    One elimination checks that every generator is invertible; then it reads
    only the two groups' key sets: no classes or orders are built.
    A complement element a normalizes K iff aK = Ka, and fixes k iff ak = ka,
    so no inverse is taken: per block of complement elements, the rows aK
    and Ka of keyed products are compared as sorted rows and entrywise.  The
    first non-identity element in key order that fails is reported, a
    normalization failure before a fixed point."""
    if not (kernel_gens and complement_gens):
        raise ValueError("the kernel and the complement each need a generator")
    fld, dim, nk = kernel_gens[0].field, kernel_gens[0].dim, len(kernel_gens)
    gens = (*kernel_gens, *complement_gens)
    if any(g.field != fld or g.dim != dim for g in gens):
        raise ValueError(f"generator is not a {dim}x{dim} matrix over {fld}")
    gens = np.stack([g.a for g in gens])
    singular = np.flatnonzero(_eliminate(fld, gens)[0] < dim)
    if len(singular):
        raise ValueError(f"{'kernel' if singular[0] < nk else 'complement'} generator not invertible")
    k_keys = _closure(fld, dim, gens[:nk], VERIFY_CAP)[0]
    c_keys = _closure(fld, dim, gens[nk:], VERIFY_CAP)[0]
    ko, co = len(k_keys), len(c_keys)
    if 1 in (ko, co):
        side = "kernel" if ko == 1 else "complement"
        return FrobeniusVerdict(False, ko, co, f"{side} is trivial")
    kern, codec = _kernel(fld, dim), _kernel(fld, dim).codec

    def nontrivial(keys):
        return next(m for m in (Matrix(fld, a) for a in codec.decode(keys))
                    if not m.is_identity())

    def refuted(reason, a_keys, k_mask):
        return FrobeniusVerdict(
            ok=False, kernel_order=ko, complement_order=co, reason=reason,
            counterexample=(Matrix(fld, codec.decode(a_keys)[0]), nontrivial(k_keys[k_mask])),
        )

    both = _lookup(k_keys, c_keys)
    if int(both.sum()) != 1:
        shared = nontrivial(c_keys[both])
        return FrobeniusVerdict(
            ok=False, kernel_order=ko, complement_order=co,
            reason="kernel and complement intersect beyond the identity",
            counterexample=(shared, shared),
        )
    K = codec.decode(k_keys)
    step = max(1, _VERIFY_BLOCK // ko)
    for lo in range(0, co, step):
        part = c_keys[lo:lo + step]
        aK, Ka = kern.left(codec.decode(part), k_keys), kern.left(K, part).T
        fixed = aK == Ka
        normal = (np.sort(aK, axis=1) == np.sort(Ka, axis=1)).all(axis=1)
        bad = np.flatnonzero((~normal | (fixed.sum(axis=1) > 1)) & (part != codec.one))
        if not len(bad):
            continue
        i = bad[0]
        if not normal[i]:
            # a k a^-1 lies in K iff a k lies in K a
            return refuted("complement element does not normalize the kernel",
                           part[i:i + 1], ~np.isin(aK[i], Ka[i]))
        return refuted("complement element fixes a nontrivial kernel element",
                       part[i:i + 1], fixed[i])
    return FrobeniusVerdict(ok=True, kernel_order=ko, complement_order=co)
