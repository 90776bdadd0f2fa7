"""Module actions, fixed spaces, minimal polynomials, split-extension spectra."""

from dataclasses import dataclass

import numpy as np

from ..arith import is_prime_power
from .field import build_field
from .kernel import _Codes, _eliminate, _kernel
from .matgroup import DEFAULT_CAP, ElementTable, Matrix, MatrixGroup, enumerate_group


def field_rank(fld, rows):
    return _eliminate(fld, rows).rank


def fixed_space_dim(g, action=None):
    """Dimension of the 1-eigenspace of g on its column space."""
    fld = g.field
    if action is not None:
        assert g.dim == action.dim_V and fld == action.field, "dimension mismatch"
    minus_one = fld.neg_table[np.eye(g.dim, dtype=np.uint16)]
    return len(_eliminate(fld, _Codes(fld).add(g.a, minus_one)).nullspace)


def min_poly_degree(g, action=None):
    """Degree of the minimal polynomial of g as a matrix."""
    fld = g.field
    if action is not None:
        assert g.dim == action.dim_V and fld == action.field, "dimension mismatch"
    # once g^m lies in the span of lower powers, so do all higher ones
    deg = field_rank(fld, [(g**i).a.ravel() for i in range(g.dim + 1)])
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


def _zero_counts(fld, mats):
    """For each matrix N in the stack, the number of vectors v with Nv = 0."""
    d = mats.shape[1]
    vecs = np.indices((fld.q,) * d).reshape(d, -1)
    out = np.empty(len(mats), dtype=np.int64)
    chunk = max(1, (1 << 22) // vecs.size)
    for lo in range(0, len(mats), chunk):
        r = _Codes(fld).right(mats[lo:lo + chunk], vecs)
        out[lo:lo + chunk] = (r == 0).all(axis=1).sum(axis=1)
    return out


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
    kern = _kernel(fld, d)
    X = kern.of_table(table.payload["stack"], table.payload["keys"])
    vcount = fld.q**d
    hist = {}

    def bump(m, c):
        if c:
            hist[m] = hist.get(m, 0) + int(c)

    brute = vcount <= 1 << 12
    eye = kern.pack(np.eye(d, dtype=fld.code_dtype)[None])
    for m in sorted(set(orders.tolist())):
        idx = np.flatnonzero(orders == m)
        cls = X[idx]
        # 1 + s + ... + s^(m-1), by Horner's rule
        nsum = np.broadcast_to(eye, cls.shape).copy()
        for _ in range(m - 1):
            nsum = kern.add(kern.pair(nsum, cls), eye)
        # rank is a conjugation invariant, so duplicate sums collapse
        _, first, counts = np.unique(
            kern.keys(nsum), return_index=True, return_counts=True)
        sums = kern.unpack(nsum[first])
        if brute:
            pure = int((_zero_counts(fld, sums) * counts).sum())
        else:
            pure = sum(int(c) * fld.q ** (d - field_rank(fld, s))
                       for s, c in zip(sums, counts))
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
