"""Module actions, minimal polynomials, split-extension spectra."""

import numpy as np

from ..arith import _factor, is_prime_power
from ..record import Record
from .field import build_field
from .kernel import _eliminate, _kernel
from .matgroup import DEFAULT_CAP, ElementTable, MatrixGroup, _classes, enumerate_group


def min_poly_degree(g):
    """Degree of the minimal polynomial of g as a matrix."""
    # once g^m lies in the span of lower powers, so do all higher ones
    deg = int(_eliminate(g.field, np.array([[(g**i).a.ravel() for i in range(g.dim + 1)]]))[0][0])
    if deg > g.dim:
        raise RuntimeError("minimal polynomial degree exceeds the dimension")
    return deg


class ModuleAction(Record):
    """A matrix group acting on its natural module V = field^dim_V."""

    _fields = ("image_group",)

    def __init__(self, image_group):
        vars(self).update(image_group=image_group)

    @property
    def dim_V(self):
        return self.image_group.dim

    @property
    def field(self):
        return self.image_group.field


def permutation_module(perm_gens, r):
    """Permutation matrices over GF(r) for permutations of {0..m-1}."""
    perms = [tuple(s) for s in perm_gens]
    if not perms:
        raise ValueError("need at least one permutation")
    deg = len(perms[0])
    if not 1 <= deg <= 64:
        raise ValueError(f"degree {deg} out of range 1..64")
    for s in perms:
        if sorted(s) != list(range(deg)):
            raise ValueError(f"not a permutation of 0..{deg - 1}: {s}")
    p = is_prime_power(r)
    if p is None:
        raise ValueError(f"{r} is not a prime power")
    fld = build_field(p, _factor(r)[p])
    # column i of the matrix of s is the unit vector s(i)
    mats = np.zeros((len(perms), deg, deg), dtype=np.uint16)
    mats[np.arange(len(perms))[:, None], perms, np.arange(deg)] = 1
    return ModuleAction(MatrixGroup(fld, deg, mats))


def _power_sums(rec, idx, orders):
    """The code stack of N(x) = 1 + x + ... + x^(m-1) for the elements x at
    indices idx of a group record, m their orders, all at once by Horner's rule."""
    fld = rec.field
    R = _kernel(fld, rec.dim).codec.decode(rec.keys[idx])
    eye = np.eye(rec.dim, dtype=fld.code_dtype)
    N = np.broadcast_to(eye, R.shape).copy()
    for step in range(1, int(orders.max(initial=1))):
        on = orders > step
        N[on] = fld.add_many(fld.matmul(N[on], R[on]), eye)
    return N


def semidirect_spectrum(action, cap=DEFAULT_CAP):
    """Exact order data of V x| S from the order law: (v,s) has order |s| when
    N(s) = 1 + s + ... + s^(|s|-1) kills v, and p*|s| otherwise (p the
    characteristic).  N(g s g^-1) = g N(s) g^-1, so N(s) kills q^(d - rank N(s))
    vectors for every s in a class; the result is kept on the group's record."""
    table = enumerate_group(action.image_group, cap)
    rec = table.payload
    if rec.semidirect is not None:
        return rec.semidirect
    fld, d = action.field, action.dim_V
    reps, _, sizes, orders = _classes(rec)
    vcount, hist = fld.q**d, {}
    ranks, _, _ = _eliminate(fld, _power_sums(rec, reps, orders))
    for m, size, rank in zip(orders.tolist(), sizes.tolist(), ranks.tolist()):
        pure = size * fld.q ** (d - rank)
        for order, count in ((m, pure), (m * fld.p, size * vcount - pure)):
            if count:
                hist[order] = hist.get(order, 0) + count
    total = vcount * table.size
    if sum(hist.values()) != total:
        raise RuntimeError(f"semidirect histogram sums to {sum(hist.values())}, not {total}")
    rec.semidirect = ElementTable(size=total, order_histogram=hist, spectrum=tuple(sorted(hist)))
    return rec.semidirect


def _cover_witness(action, m):
    """The first s of order m, in key order, whose power sum N(s) is nonzero,
    paired with the unit vector of the first nonzero column of N(s); None when
    every power sum vanishes.  N(g s g^-1) = g N(s) g^-1, so the property holds
    for a whole class or for none of it, and the first element that has it is
    its class's least index: a representative."""
    table = enumerate_group(action.image_group)
    reps, _, _, orders = _classes(table.payload)
    reps = reps[orders == m]
    N = _power_sums(table.payload, reps, np.full(len(reps), m))
    hit = np.flatnonzero(N.any(axis=(1, 2)))
    if not len(hit):
        return None
    v = np.zeros(action.dim_V, dtype=np.uint16)
    v[int(np.flatnonzero(N[hit[0]].any(axis=0))[0])] = 1
    return table.element(int(reps[hit[0]])), v
