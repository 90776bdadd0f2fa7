import itertools
from functools import reduce

import numpy as np
import pytest

from omega.groups import parse_group_spec
from omega.oracle import (
    CapExceeded,
    ElementTable,
    Matrix,
    MatrixGroup,
    ModuleAction,
    build_field,
    classical_generators,
    enumerate_group,
    min_poly_degree,
    permutation_module,
    semidirect_spectrum,
)
from omega.oracle.action import _cover_witness
from omega.oracle.kernel import _eliminate, _make_codec


def _moved_ranks(fld, stack):
    """rank(g - 1) for each matrix g of a code stack: the codimension of its
    fixed space."""
    minus_one = fld.neg_table[np.eye(stack.shape[-1], dtype=np.uint16)]
    return _eliminate(fld, fld.add_many(stack, minus_one))[0]


def mat_vec(fld, g, v):
    out = []
    for i in range(g.dim):
        acc = 0
        for j in range(g.dim):
            acc = fld.add(acc, fld.mul(int(g.a[i, j]), v[j]))
        out.append(acc)
    return tuple(out)


def vec_add(fld, a, b):
    return tuple(fld.add(x, y) for x, y in zip(a, b))


def pair_model_histogram(action):
    """Literal split extension on (vector, matrix) pairs: closure, then orders."""
    group = action.image_group
    fld = group.field
    d = group.dim
    zero = (0,) * d
    ident = Matrix(fld, np.eye(d))
    gens = [(zero, Matrix(fld, g)) for g in group.generators]
    for i in range(d):
        v = [0] * d
        v[i] = 1
        gens.append((tuple(v), ident))

    def mul(x, y):
        return (vec_add(fld, x[0], mat_vec(fld, x[1], y[0])), x[1] @ y[1])

    def key(x):
        return (x[0], x[1].a.tobytes())

    seen = {key((zero, ident)): (zero, ident)}
    frontier = [(zero, ident)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                k = key(y)
                if k not in seen:
                    seen[k] = y
                    nxt.append(y)
        frontier = nxt
    hist = {}
    for x in seen.values():
        n, y = 1, x
        while key(y) != key((zero, ident)):
            y = mul(y, x)
            n += 1
            assert n <= 64
        hist[n] = hist.get(n, 0) + 1
    return hist


def test_semidirect_matches_literal_pair_model():
    group = classical_generators(parse_group_spec("A(1,2)u"))
    table = semidirect_spectrum(ModuleAction(group))
    assert table.size == 24
    assert table.spectrum == (1, 2, 3, 4)
    assert table.order_histogram == pair_model_histogram(ModuleAction(group))


def test_semidirect_perm_module_matches_literal():
    # Sym(3) on its permutation module over GF(2)
    action = permutation_module(((1, 0, 2), (1, 2, 0)), 2)
    table = semidirect_spectrum(action)
    assert table.size == 48
    assert table.order_histogram == pair_model_histogram(action)
    assert table.spectrum == (1, 2, 3, 4, 6)


def test_semidirect_odd_characteristic():
    group = classical_generators(parse_group_spec("A(1,3)u"))
    action = ModuleAction(group)
    table = semidirect_spectrum(action)
    assert table.size == 9 * 24
    assert table.order_histogram == pair_model_histogram(action)
    # every power sum of a nontrivial element vanishes here (s^2 = -I kills the
    # order-4 ones), so the split extension adds no new orders at all
    assert table.spectrum == (1, 2, 3, 4, 6)


@pytest.mark.parametrize("q", [3, 9, 27, 3**7])
def test_semidirect_sym3_closed_form(q):
    # 3^7 is past the field's full addition table
    table = semidirect_spectrum(permutation_module(((1, 0, 2), (1, 2, 0)), q))
    assert table.order_histogram == {
        1: 1, 2: 3 * q, 3: q**3 - 1 + 2 * q**2, 6: 3 * (q**3 - q), 9: 2 * (q**3 - q**2)}


def test_semidirect_of_plus_minus_one_past_the_table_limit():
    # GF(3^7) has no addition table, and its 1 x 1 keys take the wide kernel:
    # (v, 1) has order 3 for v != 0, and N(-1) = 0 gives every (v, -1) order 2
    fld = build_field(3, 7)
    assert fld.add_table is None
    group = MatrixGroup(fld, 1, [[[fld.neg(1)]]])
    table = semidirect_spectrum(ModuleAction(group))
    assert table.order_histogram == {1: 1, 2: 2187, 3: 2186}


def null_count_histogram(action, one_short=False):
    """Per element s of order m: the vectors v with N(s) v = 0, where
    N(s) = 1 + s + ... + s^(m-1), go to order m and the rest to p*m.  With
    one_short, a mutant of that law: q^(d - rank N(s) - 1) killed vectors
    wherever N(s) is singular, a dimension short."""
    fld = action.field
    d = action.dim_V
    table = enumerate_group(action.image_group)
    # every vector of GF(q)^d as a column
    vecs = np.array(list(itertools.product(range(fld.q), repeat=d)), dtype=np.uint16).T
    hist = {}
    for i in range(table.size):
        s = table.element(i)
        m = s.order()
        tot = np.zeros((d, d), dtype=np.uint16)
        pw = Matrix(fld, np.eye(d))
        for _ in range(m):
            tot = fld.add_many(tot, pw.a).astype(np.uint16)
            pw = pw @ s
        image = reduce(fld.add_many, (fld.mul_many(tot[:, j, None], vecs[j][None, :])
                                      for j in range(d)))
        killed = int((image == 0).all(axis=0).sum())
        if one_short and killed > 1:
            killed //= fld.q
        for order, count in ((m, killed), (m * fld.p, vecs.shape[1] - killed)):
            if count:
                hist[order] = hist.get(order, 0) + count
    return hist


NULL_COUNT_CASES = {
    "Sym3 on GF(3)^3": lambda: permutation_module(((1, 0, 2), (1, 2, 0)), 3),
    "Sym3 on GF(4)^3": lambda: permutation_module(((1, 0, 2), (1, 2, 0)), 4),
    "Sym3 on GF(7)^3": lambda: permutation_module(((1, 0, 2), (1, 2, 0)), 7),
    "C(2,2)u natural": lambda: ModuleAction(classical_generators("C(2,2)u")),
}


@pytest.mark.parametrize("name", sorted(NULL_COUNT_CASES))
def test_semidirect_matches_per_element_null_count(name):
    action = NULL_COUNT_CASES[name]()
    table = semidirect_spectrum(action)
    assert table.order_histogram == null_count_histogram(action)


@pytest.mark.parametrize("spec", ["A(1,2)u", "A(1,3)u", "A(1,4)u"])
def test_table_rejects_one_short_semidirect_histogram(spec):
    # the mutant keeps the size, the sum and a divisor-closed spectrum: only
    # Frobenius' theorem on the counts catches it
    hist = null_count_histogram(ModuleAction(classical_generators(spec)), one_short=True)
    with pytest.raises(ValueError, match="not a multiple of"):
        ElementTable(size=sum(hist.values()), order_histogram=hist, spectrum=tuple(sorted(hist)))


def per_element_cover_witness(action, m):
    """The first s of order m, in key order, with N(s) = 1 + s + ... + s^(m-1)
    nonzero, and the unit vector of its first nonzero column; None when every
    N(s) vanishes.  Every element of order m is summed, one power at a time
    for all of them at once."""
    fld = action.image_group.field
    table = enumerate_group(action.image_group)
    rec = table.payload
    idx = np.flatnonzero(table.orders() == m)
    S = _make_codec(fld, rec.dim).decode(rec.keys[idx])
    tot = pw = np.broadcast_to(np.eye(rec.dim, dtype=S.dtype), S.shape)
    for _ in range(m - 1):
        pw = fld.matmul(pw, S)
        tot = fld.add_many(tot, pw)
    hit = np.flatnonzero(tot.any(axis=(1, 2)))
    if not len(hit):
        return None
    v = np.zeros(rec.dim, dtype=np.uint16)
    v[int(np.flatnonzero(tot[hit[0]].any(axis=0))[0])] = 1
    return table.element(int(idx[hit[0]])), v


COVER_CASES = {
    "A(1,4)u natural": lambda: ModuleAction(classical_generators("A(1,4)u")),
    "C(2,2)u natural": lambda: ModuleAction(classical_generators("C(2,2)u")),
    # odd p: for most orders every power sum vanishes
    "C(2,3)u natural": lambda: ModuleAction(classical_generators("C(2,3)u")),
    "Sym3 on GF(9)^3": lambda: permutation_module(((1, 0, 2), (1, 2, 0)), 9),
}


@pytest.mark.parametrize("name", sorted(COVER_CASES))
def test_cover_witness_matches_per_element_search(name):
    action = COVER_CASES[name]()
    found = []
    for m in enumerate_group(action.image_group).spectrum:
        want, got = per_element_cover_witness(action, m), _cover_witness(action, m)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0] and got[1].tolist() == want[1].tolist()
        found.append(want is not None)
    assert any(found)


def test_semidirect_result_kept_on_group_table():
    action = ModuleAction(classical_generators("A(1,2)u"))
    first = semidirect_spectrum(action)
    assert enumerate_group(action.image_group).payload.semidirect is first
    again = ModuleAction(classical_generators("A(1,2)u"))
    assert semidirect_spectrum(again) is first


def test_semidirect_repeat_call_checks_the_cap():
    action = ModuleAction(classical_generators("A(1,3)u"))
    semidirect_spectrum(action)
    with pytest.raises(CapExceeded):
        semidirect_spectrum(action, cap=23)


def test_permutation_module_validation():
    with pytest.raises(ValueError):
        permutation_module(((0, 0, 1),), 2)
    with pytest.raises(ValueError):
        permutation_module((), 2)
    with pytest.raises(ValueError):
        permutation_module(((0, 1), (0, 1, 2)), 2)
    with pytest.raises(ValueError):
        permutation_module(((1, 0),), 6)
    act = permutation_module(((1, 2, 3, 0),), 4)
    assert act.image_group.field.q == 4
    assert act.dim_V == 4
    act = permutation_module(((1, 0, 2), (1, 2, 0)), 3)
    assert act.dim_V == 3 and act.field.q == 3


def test_wide_permutation_matrices():
    # degree beyond the classical-model sizes exercises the wide key path
    cyc = tuple(range(1, 16)) + (0,)
    act = permutation_module((cyc,), 3)
    table = enumerate_group(act.image_group)
    assert table.size == 16
    assert table.spectrum == (1, 2, 4, 8, 16)


def fixed_space_dims(group):
    """Per element g of the group, dim - rank(g - 1), checked against the
    count of vectors v with g v = v, which is q^dim of the fixed space."""
    fld, d = group.field, group.dim
    stack = _make_codec(fld, d).decode(enumerate_group(group).payload.keys)
    dims = d - _moved_ranks(fld, stack)
    vecs = np.array(list(itertools.product(range(fld.q), repeat=d)), dtype=np.uint16).T
    fixed = (fld.matmul(stack, vecs) == vecs).all(axis=1).sum(axis=1)
    assert (fixed == fld.q ** dims).all()
    return dims


def test_fixed_space_dims():
    # all of Sym(3) fixes the all-ones vector mod 2
    action = permutation_module(((1, 0, 2), (1, 2, 0)), 2)
    assert sorted(fixed_space_dims(action.image_group)) == [1, 1, 2, 2, 2, 3]


def test_fixed_space_can_vanish():
    # the natural SL2(3)-module has fixed-point-free elements (e.g. -I)
    assert 0 in fixed_space_dims(classical_generators(parse_group_spec("A(1,3)u")))
    # same for order-3 elements on the natural SL2(2)-module
    group2 = classical_generators(parse_group_spec("A(1,2)u"))
    orders = enumerate_group(group2).orders()
    assert (orders == 3).any() and (fixed_space_dims(group2)[orders == 3] == 0).all()


def test_field_rank():
    def field_rank(fld, rows):
        return int(_eliminate(fld, np.array(rows, dtype=np.uint16)[None])[0][0])

    fld = build_field(2, 2)
    assert field_rank(fld, [[1, 2], [2, 1]]) == 2
    # second row is x times the first, x being code 2
    assert field_rank(fld, [[1, 2], [2, 3]]) == 1
    assert field_rank(fld, np.zeros((3, 3))) == 0
    f3 = build_field(3, 1)
    assert field_rank(f3, [[1, 2], [2, 2]]) == 2
    assert field_rank(f3, [[1, 2], [2, 1]]) == 1


def test_min_poly_degrees():
    f2 = build_field(2, 1)
    ident = Matrix(f2, np.eye(3))
    assert min_poly_degree(ident) == 1
    jordan = Matrix(f2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert min_poly_degree(jordan) == 3
    # a 4-cycle on the degree-6 permutation module: minimal polynomial x^4 - 1
    act = permutation_module(((1, 2, 3, 0, 4, 5),), 3)
    g = Matrix(act.field, act.image_group.generators[0])
    assert g.order() == 4
    assert min_poly_degree(g) == 4


def test_regular_unipotent_min_poly():
    group = classical_generators(parse_group_spec("C(2,4)u"))
    table = enumerate_group(group)
    orders = table.orders()
    degs = set()
    for i in np.nonzero(orders == 4)[0][:64]:
        degs.add(min_poly_degree(table.element(int(i))))
    assert degs == {4}
