"""Module actions, fixed spaces, minimal polynomials, split-extension spectra."""

import itertools
from dataclasses import dataclass

import numpy as np

from ..arith import is_prime_power
from .field import build_field
from .matgroup import (
    DEFAULT_CAP,
    ElementTable,
    Matrix,
    MatrixGroup,
    _batch_mul_chunked,
    _make_codec,
    enumerate_group,
)


def _echelon_insert(fld, basis, row):
    """Insert a vector into a back-reduced echelon basis. True if independent.

    basis maps pivot position -> normalized row with zeros at all other pivots.
    """
    row = [int(x) for x in row]
    for piv, brow in basis.items():
        c = row[piv]
        if c:
            s = fld.neg(c)
            row = [fld.add(x, fld.mul(s, y)) for x, y in zip(row, brow)]
    piv = next((i for i, x in enumerate(row) if x), None)
    if piv is None:
        return False
    s = fld.inv(row[piv])
    row = [fld.mul(s, x) for x in row]
    for opiv, brow in basis.items():
        c = brow[piv]
        if c:
            s = fld.neg(c)
            basis[opiv] = [fld.add(x, fld.mul(s, y)) for x, y in zip(brow, row)]
    basis[piv] = row
    return True


def field_rank(fld, rows):
    basis = {}
    for row in rows:
        _echelon_insert(fld, basis, row)
    return len(basis)


def fixed_space_dim(g, action=None):
    """Dimension of the 1-eigenspace of g on its column space."""
    fld = g.field
    if action is not None:
        assert g.dim == action.dim_V and fld == action.field, "dimension mismatch"
    d = g.dim
    gm1 = [[fld.sub(int(g.a[i][j]), 1 if i == j else 0) for j in range(d)]
           for i in range(d)]
    return d - field_rank(fld, gm1)


def min_poly_degree(g, action=None):
    """Degree of the minimal polynomial of g as a matrix."""
    fld = g.field
    if action is not None:
        assert g.dim == action.dim_V and fld == action.field, "dimension mismatch"
    basis = {}
    power = Matrix.identity(fld, g.dim)
    deg = 0
    while _echelon_insert(fld, basis, power.a.ravel()):
        deg += 1
        power = power @ g
        assert deg <= g.dim**2
    assert deg <= g.dim, "minimal polynomial degree exceeds the dimension"
    return deg


@dataclass(frozen=True)
class ModuleAction:
    """A group acting on V = field^dim_V through one image matrix per generator."""

    image_group: MatrixGroup
    dim_V: int
    source_perms: tuple = None
    label: str = ""

    def __post_init__(self):
        assert self.dim_V == self.image_group.dim
        if self.source_perms is not None:
            assert len(self.source_perms) == len(self.image_group.generators)
            self._spot_check_relators()

    @property
    def field(self):
        return self.image_group.field

    def _spot_check_relators(self):
        """Random generator words that are trivial on points must act trivially."""
        rng = np.random.default_rng(2024)
        perms = self.source_perms
        mats = self.image_group.generators
        deg = len(perms[0])
        for _ in range(25):
            word = rng.integers(0, len(perms), rng.integers(1, 7))
            pt = list(range(deg))
            for w in word:
                pt = [perms[w][i] for i in pt]
            if pt != list(range(deg)):
                continue
            m = Matrix.identity(self.field, self.dim_V)
            for w in word:
                m = mats[w] @ m
            assert m.is_identity(), "image fails a relator of the source"


def natural_action(group):
    return ModuleAction(group, group.dim, label="natural")


def permutation_module(perm_gens, r):
    """Permutation matrices over GF(r) for permutations of {0..m-1}."""
    perms = [tuple(s) for s in perm_gens]
    assert perms, "need at least one permutation"
    deg = len(perms[0])
    assert 1 <= deg <= 64, "degree out of range"
    for s in perms:
        assert len(s) == deg and sorted(s) == list(range(deg)), \
            f"not a permutation of 0..{deg - 1}: {s}"
    p = is_prime_power(r)
    if p is None:
        raise ValueError(f"{r} is not a prime power")
    k = 1
    while p**k < r:
        k += 1
    fld = build_field(p, k)
    mats = []
    for s in perms:
        m = np.zeros((deg, deg), dtype=np.uint16)
        for i, j in enumerate(s):
            m[j, i] = 1
        mats.append(Matrix(fld, m))
    group = MatrixGroup(fld, deg, tuple(mats))
    return ModuleAction(group, deg, source_perms=tuple(perms), label=f"perm{deg}")


def _all_vectors(q, d):
    grids = np.meshgrid(*([np.arange(q)] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _zero_counts(fld, mats, vecs):
    """For each matrix N in the stack, the number of vectors v with Nv = 0."""
    n, d = mats.shape[0], mats.shape[1]
    vc = vecs.shape[0]
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, (1 << 22) // (d * d * vc))
    vt = vecs.T
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        m = mats[lo:hi]
        if fld.k == 1:
            r = np.matmul(m.astype(np.int64), vt.astype(np.int64)) % fld.p
        else:
            t = fld.mul_table[m[:, :, :, None], vt[None, None, :, :]]
            if fld.p == 2:
                r = np.bitwise_xor.reduce(t, axis=2)
            else:
                r = t[:, :, 0, :]
                for i in range(1, d):
                    r = fld.add_table[r, t[:, :, i, :]]
        out[lo:hi] = (r == 0).all(axis=1).sum(axis=1)
    return out


def _batch_add(fld, A, B):
    if fld.p == 2:
        return A ^ B
    if fld.k == 1:
        return ((A.astype(np.int64) + B) % fld.p).astype(A.dtype)
    return fld.add_table[A, B]


_SEMI_MEMO = {}


def semidirect_spectrum(action, cap=DEFAULT_CAP):
    """Exact order data of V x| S from the order law: (v,s) has order |s| when
    (sum of s^i, i < |s|) kills v, and p*|s| otherwise (p the characteristic)."""
    memo_key = (action.image_group.key(), action.dim_V)
    if memo_key in _SEMI_MEMO:
        return _SEMI_MEMO[memo_key]
    table = enumerate_group(action.image_group, cap)
    fld = action.field
    d = action.dim_V
    p = fld.p
    orders = table.orders()
    stack = table.payload["stack"]
    vcount = fld.q**d
    hist = {}

    def bump(m, c):
        if c:
            hist[m] = hist.get(m, 0) + int(c)

    brute = vcount <= 1 << 12 and (fld.k == 1 or fld.mul_table is not None)
    vecs = _all_vectors(fld.q, d) if brute else None
    codec = _make_codec(fld, d)
    eye = np.eye(d, dtype=fld.code_dtype)
    for m in sorted(set(orders.tolist())):
        idx = np.flatnonzero(orders == m)
        cls = stack[idx]
        nsum = np.broadcast_to(eye, cls.shape).copy()
        cur = None
        for _ in range(m - 1):
            cur = cls if cur is None else _batch_mul_chunked(fld, cur, cls)
            nsum = _batch_add(fld, nsum, cur)
        if brute:
            # rank is a conjugation invariant, so duplicate sums collapse
            _, first, counts = np.unique(
                codec.keys(nsum), return_index=True, return_counts=True)
            kappa = _zero_counts(fld, nsum[first], vecs)
            pure = int((kappa * counts).sum())
        else:
            pure = sum(
                fld.q ** (d - field_rank(fld, nsum[i])) for i in range(len(idx)))
        bump(m, pure)
        bump(m * p, vcount * len(idx) - pure)
    size = vcount * table.size
    assert sum(hist.values()) == size
    result = ElementTable(
        size=size,
        order_histogram=hist,
        spectrum=tuple(sorted(hist)),
        payload={"action": action, "group_table": table},
    )
    _SEMI_MEMO[memo_key] = result
    return result
