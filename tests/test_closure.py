"""The coset closure against a naive all-generator BFS, its cap bound and
its membership tests, the closed-form order check, and the unitary root
elements against a scalar search."""

import itertools
import tracemalloc
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omega.oracle import (
    CapExceeded,
    Matrix,
    MatrixGroup,
    build_field,
    classical_generators,
    enumerate_group,
    frobenius_witness,
    permutation_module,
)
from omega.oracle import matgroup
from omega.oracle.kernel import _make_codec
from omega.oracle.matgroup import _closure


def closure(group, cap):
    """_closure on the generators of a MatrixGroup."""
    return _closure(group.field, group.dim, group.generators, cap)


def naive_closure(group):
    """Every generator applied to every element, level by level, with a dict
    of raw bytes for the known set; stack and keys sorted by the codec key."""
    fld, d = group.field, group.dim
    eye = Matrix(fld, np.eye(d, dtype=np.uint16))
    gens = [Matrix(fld, g) for g in group.generators]
    seen = {eye.a.tobytes(): eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g @ x
                if y.a.tobytes() not in seen:
                    seen[y.a.tobytes()] = y
                    nxt.append(y)
        frontier = nxt
    stack = np.stack([m.a for m in seen.values()]).astype(fld.code_dtype)
    keys = _make_codec(fld, d).keys(stack)
    order = np.argsort(keys)
    return stack[order], keys[order]


def _wide_sym4():
    # 7x7 over GF(3): 98 bits per matrix, so the keys are raw bytes
    fld, gens = build_field(3), []
    for perm in ((1, 0, 2, 3), (1, 2, 3, 0)):
        m = np.eye(7, dtype=np.uint16)
        m[:4, :4] = 0
        for i, j in enumerate(perm):
            m[j, i] = 1
        gens.append(m)
    return fld, 7, np.array(gens)


def _frobenius(kind, params, part):
    w = frobenius_witness(kind, params)
    gens = w.kernel_gens + (w.complement_gens if part == "group" else ())
    return gens[0].field, gens[0].dim, np.array([g.a for g in gens])


def _classical(spec):
    g = classical_generators(spec)
    return g.field, g.dim, g.generators


def _perm_module(perms, r):
    g = permutation_module(perms, r).image_group
    return g.field, g.dim, g.generators


# packed GF(2^k) words, prime-field and GF(p^k) code stacks, raw byte keys,
# and unnamed groups: permutation-module images and Frobenius subgroups
CASES = {
    "A(1,3)u": lambda: _classical("A(1,3)u"),
    "A(1,4)u": lambda: _classical("A(1,4)u"),
    "A(1,9)u": lambda: _classical("A(1,9)u"),
    "A(2,2)u": lambda: _classical("A(2,2)u"),
    "2A(2,2)u": lambda: _classical("2A(2,2)u"),
    "wide Sym4": _wide_sym4,
    "Sym4 on GF(2)^4": lambda: _perm_module([(1, 0, 2, 3), (1, 2, 3, 0)], 2),
    "Sym3 on GF(9)^3": lambda: _perm_module([(1, 0, 2), (1, 2, 0)], 9),
    "Frobenius kernel": lambda: _frobenius("sl-hyperplane", (3, 4), "kernel"),
    "Frobenius group": lambda: _frobenius("sl-hyperplane", (4, 2), "group"),
    "affine Frobenius group": lambda: _frobenius("gl-affine", (3, 2), "group"),
}


@lru_cache(maxsize=None)
def case(name):
    fld, d, gens = CASES[name]()
    return fld, d, gens, naive_closure(MatrixGroup(fld, d, gens))


@st.composite
def generator_lists(draw):
    """A case, and its generators shuffled among redundant ones: repeats, the
    identity, and products of other generators."""
    name = draw(st.sampled_from(sorted(CASES)))
    fld, d, gens, want = case(name)
    picks = st.sampled_from(range(len(gens)))
    extra = [np.eye(d, dtype=np.uint16)] * draw(st.integers(0, 2))
    extra += [gens[i] for i in draw(st.lists(picks, max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        word = draw(st.lists(picks, min_size=2, max_size=4))
        extra.append(reduce(fld.matmul, gens[word]))
    order = draw(st.permutations([*gens, *extra]))
    return name, MatrixGroup(fld, d, order), want


@settings(max_examples=60, deadline=None, database=None)
@given(generator_lists())
def test_closure_matches_naive_bfs(drawn):
    name, group, (want_stack, want_keys) = drawn
    keys, _ = closure(group, matgroup.DEFAULT_CAP)
    stack = _make_codec(group.field, group.dim).decode(keys)
    assert stack.dtype == want_stack.dtype, name
    assert (keys == want_keys).all() and (stack == want_stack).all(), name


def test_redundant_generators_change_no_table():
    group = classical_generators("2A(2,2)u")
    gens, fld = group.generators, group.field
    extra = [fld.matmul(gens[0], gens[1]), np.eye(3, dtype=np.uint16)]
    padded = MatrixGroup(fld, group.dim, [*extra, *gens, *gens[:2]])
    a, b = closure(group, matgroup.DEFAULT_CAP), closure(padded, matgroup.DEFAULT_CAP)
    assert (a[0] == b[0]).all()
    assert enumerate_group(padded).order_histogram == enumerate_group(group).order_histogram


@pytest.mark.parametrize("spec, cap", [("2A(3,2)u", 2000), ("A(2,4)u", 5000), ("A(1,5)u", 50)])
@pytest.mark.parametrize("chunk", [None, 16])
def test_cap_overshoot_is_at_most_one_chunk(spec, cap, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(matgroup, "_CAP_CHUNK", chunk)
    with pytest.raises(CapExceeded) as e:
        closure(classical_generators(spec), cap)
    assert e.value.cap == cap
    assert cap < e.value.found <= cap + matgroup._CAP_CHUNK


@pytest.mark.parametrize("spec, chunk", [
    ("A(2,2)u", 5), ("2A(2,2)u", 5), ("A(1,9)u", 5), ("A(2,4)u", None), ("2A(3,2)u", 64)])
def test_stepped_levels_build_the_same_table(spec, chunk, monkeypatch):
    group = classical_generators(spec)
    keys, _ = closure(group, matgroup.DEFAULT_CAP)
    # a cap of exactly |G| sends the late levels through ever smaller steps
    if chunk is not None:
        monkeypatch.setattr(matgroup, "_CAP_CHUNK", chunk)
    k2, _ = closure(group, len(keys))
    assert (k2 == keys).all()


@pytest.mark.parametrize("spec", ["A(2,4)u", "C(2,3)u", "2A(3,2)u"])
def test_membership_tests_are_per_coset(spec, monkeypatch):
    # one lookup per product would be about (generators adopted) x |G|; the
    # closure looks up only one needle per supplied generator, fewer than
    # one per coset
    needles = []
    lookup = matgroup._lookup

    def counted(keys, pk):
        needles.append(len(pk))
        return lookup(keys, pk)

    monkeypatch.setattr(matgroup, "_lookup", counted)
    group = classical_generators(spec)
    keys, _ = closure(group, matgroup.DEFAULT_CAP)
    assert 0 < sum(needles) <= len(group.generators) and sum(needles) < len(keys) / 50


def test_cap_exceeded_names_the_cosets_and_the_subgroup():
    cap = 5000
    with pytest.raises(CapExceeded) as e:
        closure(classical_generators("A(2,4)u"), cap)
    err = e.value
    assert err.found == min(err.cosets * err.subgroup, cap + matgroup._CAP_CHUNK)
    assert err.cosets * err.subgroup > cap and 60480 % err.subgroup == 0
    assert f"{err.cosets} cosets of a subgroup of order {err.subgroup}" in str(err)


@pytest.mark.parametrize("spec, chunk", [("A(2,2)u", 5), ("A(1,9)u", 5), ("A(2,4)u", 64),
                                         ("C(2,3)u", 64), ("2A(3,2)u", 64)])
def test_one_left_call_per_part(spec, chunk, monkeypatch):
    # the first generator's m powers take ceil(log2 m) left calls, by one
    # matrix each; after that, each part of a round makes one left call, by
    # the whole stack adopted so far, and takes the least key of each row
    # once; _lookup runs only to test each generator for adoption, one needle
    # each, and never per product or per coset; a cap of exactly |G| splits
    # the late rounds into more parts
    group = classical_generators(spec)
    kern, gens = matgroup._kernel(group.field, group.dim), group.generators
    left, lookup, least = type(kern).left, matgroup._lookup, type(kern.codec).least
    stacks, lookups, parts = [], [], []

    def counted_left(self, g, K):
        stacks.append(g)
        return left(self, g, K)

    def counted_lookup(keys, pk):
        lookups.append(len(pk))
        return lookup(keys, pk)

    def counted_least(self, rows):
        parts.append(len(rows))
        return least(self, rows)

    monkeypatch.setattr(type(kern), "left", counted_left)
    monkeypatch.setattr(matgroup, "_lookup", counted_lookup)
    monkeypatch.setattr(type(kern.codec), "least", counted_least)
    calls = []
    for stepped in (False, True):
        if stepped:
            monkeypatch.setattr(matgroup, "_CAP_CHUNK", chunk)
        stacks.clear()
        lookups.clear()
        parts.clear()
        keys, adopted = closure(group, len(keys) if stepped else matgroup.DEFAULT_CAP)
        first = (Matrix(group.field, gens[adopted[0]]).order() - 1).bit_length()
        assert all(g.ndim == 2 for g in stacks[:first])
        later = stacks[first:]
        assert lookups == [1] * len(gens) and len(later) == len(parts) > 0
        assert all(g.ndim == 3 for g in later) and (later[-1] == gens[adopted]).all()
        calls.append(len(later))
    assert calls[1] > calls[0]


@pytest.mark.parametrize("cap", [3, 5, 7])
@pytest.mark.parametrize("chunk", [2, 4096])
def test_first_generator_powers_keep_the_cap(cap, chunk, monkeypatch):
    # a complement of order 8, whose powers go 1, 2, 4, then as the cap
    # allows: at cap 7 with chunk 2 the identity comes in the part that
    # passes the cap
    (c,) = frobenius_witness("gl-affine", (3, 2)).complement_gens
    assert len(_closure(c.field, c.dim, c.a[None], 8)[0]) == 8
    monkeypatch.setattr(matgroup, "_CAP_CHUNK", chunk)
    with pytest.raises(CapExceeded) as e:
        _closure(c.field, c.dim, c.a[None], cap)
    assert cap < e.value.found <= cap + chunk
    assert e.value.cap == cap and e.value.subgroup == 1


def test_wrong_name_raises_even_under_memo():
    right = classical_generators("A(1,3)u")
    wrong = MatrixGroup(right.field, right.dim, right.generators,
                        classical_generators("A(1,5)u").name)
    enumerate_group(right)  # the shared memo entry is now present
    with pytest.raises(RuntimeError, match="enumerated 24 elements"):
        enumerate_group(wrong)
    assert enumerate_group(right).size == 24


def hermitian_image(t, form, k_base):
    """t^T F conj(t), with conj the entrywise p^k_base-power, one Matrix
    product at a time."""
    fld = t.field
    conj = np.array([fld.frob(x, k_base) for x in range(fld.q)], dtype=np.uint16)
    return Matrix(fld, t.a.T) @ form @ Matrix(fld, conj[t.a])


def su3_reference(fld2, k_base):
    """The unipotent triangles, upper then lower for each nonzero (a, b, c),
    kept when t^T F conj(t) = F, one Matrix product at a time."""
    form = Matrix(fld2, np.eye(3, dtype=np.uint16)[::-1])
    out = []
    for a, b, c in itertools.product(range(fld2.q), repeat=3):
        if not (a or b or c):
            continue
        up = np.eye(3, dtype=np.uint16)
        up[0, 1], up[0, 2], up[1, 2] = a, b, c
        lo = np.eye(3, dtype=np.uint16)
        lo[1, 0], lo[2, 0], lo[2, 1] = a, b, c
        for t in (Matrix(fld2, up), Matrix(fld2, lo)):
            if hermitian_image(t, form, k_base) == form:
                out.append(t)
    return out


def transvection_reference(fld2, dim, k_base):
    """I + lam v w^T, w = conj(F v), v isotropic with first nonzero entry 1,
    lam of trace zero, built entry by entry."""
    conj = lambda x: fld2.frob(x, k_base)
    lams = [c for c in range(1, fld2.q) if fld2.add(c, conj(c)) == 0]
    out = []
    for v in itertools.product(range(fld2.q), repeat=dim):
        nz = next((i for i, x in enumerate(v) if x), None)
        if nz is None or v[nz] != 1:
            continue
        w = [conj(v[dim - 1 - j]) for j in range(dim)]
        norm = 0
        for i in range(dim):
            norm = fld2.add(norm, fld2.mul(v[i], w[i]))
        if norm:
            continue
        for lam in lams:
            m = np.eye(dim, dtype=np.uint16)
            for i, j in itertools.product(range(dim), repeat=2):
                m[i, j] = fld2.add(int(m[i, j]), fld2.mul(fld2.mul(lam, v[i]), w[j]))
            out.append(Matrix(fld2, m))
    return out


@pytest.mark.parametrize("d, q", [(2, 2), (2, 3), (2, 4), (2, 9), (3, 2), (3, 3), (4, 2)])
def test_su_root_elements_generate_the_reference_group(d, q):
    # the root elements keep the form and close to the same keys as the
    # scalar search: every unipotent triangle for d = 3, else every transvection
    group = classical_generators(f"2A({d - 1},{q})u")
    fld2, k_base = group.field, group.name.k
    form = Matrix(fld2, np.eye(d, dtype=np.uint16)[::-1])
    for t in group.generators:
        assert hermitian_image(Matrix(fld2, t), form, k_base) == form
    ref = su3_reference(fld2, k_base) if d == 3 else transvection_reference(fld2, d, k_base)
    want, _ = _closure(fld2, d, np.array([t.a for t in ref]), matgroup.DEFAULT_CAP)
    keys, _ = closure(group, matgroup.DEFAULT_CAP)
    assert len(keys) == len(want) and (keys == want).all()


@pytest.mark.parametrize("q", [4, 5])
def test_su3_closure_has_the_closed_form_order(q):
    # |SU_3(q)| = q^3 (q^2 - 1) (q^3 + 1)
    keys, _ = closure(classical_generators(f"2A(2,{q})u"), matgroup.DEFAULT_CAP)
    assert len(keys) == q**3 * (q**2 - 1) * (q**3 + 1)


@pytest.mark.parametrize("spec", ["2A(2,8)u", "2A(4,4)u"])
def test_su_generators_are_built_in_small_memory(spec):
    # no list of GF(q^2)^d: a search over it peaks at 86 and 125 MB on these
    matgroup._universal.cache_clear()
    tracemalloc.start()
    try:
        gens = classical_generators(spec).generators
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gens) <= 20 and peak < 1 << 20
