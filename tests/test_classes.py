"""Conjugacy classes and the class functions computed from them: element
orders, the center and orders in G/Z, each against a direct computation."""

import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from omega.groups import group_order, parse_group_spec
from omega.oracle import (
    Matrix,
    MatrixGroup,
    ModuleAction,
    cached_spectrum_table,
    classical_generators,
    enumerate_group,
    frobenius_witness,
    permutation_module,
    semidirect_spectrum,
    spectrum_table,
    verify_frobenius,
)
from omega.oracle import action, frobenius, matgroup
from omega.oracle.kernel import _eliminate, _Packed, _Wide, _kernel, _make_codec
from omega.oracle.matgroup import _TABLE_MEMO, GroupRecord, _classes, _least_powers, _table


@pytest.fixture
def fresh_memo():
    """No table and no universal group known, as in a fresh process."""
    saved = dict(_TABLE_MEMO)
    _TABLE_MEMO.clear()
    matgroup._universal.cache_clear()
    yield
    _TABLE_MEMO.clear()
    _TABLE_MEMO.update(saved)


def _frobenius_group(params=(4, 2)):
    w = frobenius_witness("sl-hyperplane", params)
    gens = w.kernel_gens + w.complement_gens
    return MatrixGroup(gens[0].field, gens[0].dim, [g.a for g in gens])


# packed GF(2^k) words, prime-field and GF(p^k) code stacks, and unnamed groups
ORDER_CASES = {
    "A(1,4)u": lambda: classical_generators("A(1,4)u"),
    "A(1,7)u": lambda: classical_generators("A(1,7)u"),
    "A(2,2)u": lambda: classical_generators("A(2,2)u"),
    "2A(2,2)u": lambda: classical_generators("2A(2,2)u"),
    "C(2,2)u": lambda: classical_generators("C(2,2)u"),
    "Sym3 on GF(9)^3": lambda: permutation_module([(1, 0, 2), (1, 2, 0)], 9).image_group,
    "Frobenius group": _frobenius_group,
}


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_orders_match_scalar_order(name):
    table = enumerate_group(ORDER_CASES[name]())
    orders = table.orders()
    assert orders.dtype == np.int64
    assert orders.tolist() == [table.element(i).order() for i in range(table.size)]


def stepped_orders(rec, block=1 << 16):
    """Per-element orders without classes: the table decoded a block of
    elements at a time, and every element's powers stepped at once by
    Field.matmul, each element dropped when it reaches the identity."""
    fld, codec, n = rec.field, _make_codec(rec.field, rec.dim), len(rec.keys)
    eye, orders = np.eye(rec.dim, dtype=fld.code_dtype), np.zeros(n, dtype=np.int64)
    for lo in range(0, n, block):
        X = codec.decode(rec.keys[lo:lo + block])
        idx, cur = np.arange(lo, lo + len(X)), X
        for m in range(1, n + 1):
            done = (cur == eye).all(axis=(1, 2))
            orders[idx[done]] = m
            idx, cur, X = idx[~done], cur[~done], X[~done]
            if not len(idx):
                break
            cur = fld.matmul(cur, X)
        assert not len(idx), "an element's order exceeds the group's"
    return orders


@pytest.mark.parametrize("spec", ["2A(3,2)u", "C(2,3)u", "A(2,4)u"])
def test_orders_match_stepped_powers(spec):
    # at 10^4 - 10^5 elements: classes merged or split by a fault in the
    # conjugation permutations or the label propagation would show here
    table = enumerate_group(classical_generators(spec))
    assert (stepped_orders(table.payload) == table.orders()).all()


def stepped_power_sum_ranks(rec, orders, block=1 << 16):
    """Per element x, without classes, the rank of N(x) = 1 + x + ... +
    x^(|x| - 1): the table decoded a block of elements at a time, every
    element's powers stepped at once by Field.matmul and added up, and one
    _eliminate over the block's sums."""
    fld, codec, n = rec.field, _make_codec(rec.field, rec.dim), len(rec.keys)
    eye, ranks = np.eye(rec.dim, dtype=fld.code_dtype), np.zeros(n, dtype=np.int64)
    for lo in range(0, n, block):
        X = codec.decode(rec.keys[lo:lo + block])
        m = orders[lo:lo + len(X)]
        power = np.broadcast_to(eye, X.shape).copy()
        N = power.copy()
        for k in range(1, int(m.max())):
            on = m > k
            power[on] = fld.matmul(power[on], X[on])
            N[on] = fld.add_many(N[on], power[on])
        ranks[lo:lo + len(X)] = _eliminate(fld, N)[0]
    return ranks


def stepped_semidirect_histogram(rec, orders):
    """The order histogram of V x| G, V the natural module, counted element by
    element from the per-element orders: (v, x) has order |x| when N(x) kills
    v and p|x| otherwise, and N(x) kills q^(d - rank N(x)) vectors; (order,
    rank) pairs by np.unique."""
    fld, d = rec.field, rec.dim
    pairs, counts = np.unique(np.stack([orders, stepped_power_sum_ranks(rec, orders)], axis=1),
                              axis=0, return_counts=True)
    hist = Counter()
    for (m, rank), count in zip(pairs.tolist(), counts.tolist()):
        hist[m] += count * fld.q ** (d - rank)
        hist[m * fld.p] += count * (fld.q**d - fld.q ** (d - rank))
    return {m: c for m, c in hist.items() if c}


@pytest.mark.parametrize("spec", ["2A(3,2)u", "C(2,3)u", "A(2,4)u"])
def test_semidirect_matches_stepped_power_sums(spec):
    # V x| G recounted with none of the oracle's classes, orders or power sums:
    # a class merged, split or given a wrong N(s) rank changes the histogram
    group = classical_generators(spec)
    cover = semidirect_spectrum(ModuleAction(group))
    rec = enumerate_group(group).payload
    want = stepped_semidirect_histogram(rec, stepped_orders(rec))
    assert cover.order_histogram == want
    size = group.field.q**group.dim * group_order(parse_group_spec(spec)).n
    assert cover.size == sum(want.values()) == size


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_sl2_class_count(q):
    table = enumerate_group(classical_generators(f"A(1,{q})u"))
    reps, label, sizes, _ = _classes(table.payload)
    # SL2(q) has q + 1 classes for even q and q + 4 for odd q
    assert len(reps) == (q + 1 if q % 2 == 0 else q + 4)
    assert sizes.sum() == table.size
    assert all(table.size % int(s) == 0 for s in sizes)
    assert (np.bincount(label) == sizes).all()
    # each representative is the least index of its class
    assert (label[reps] == np.arange(len(reps))).all()
    by_class = np.argsort(label, kind="stable")
    assert (by_class[np.r_[0, np.cumsum(sizes)[:-1]]] == reps).all()


def _codes_of(table):
    rec = table.payload
    return _make_codec(rec.field, rec.dim).decode(rec.keys)


def commuting_filter(group):
    """The code stack of the elements that commute with every generator, in
    key order: the center, found without classes."""
    stack, fld = _codes_of(enumerate_group(group)), group.field
    mask = np.ones(len(stack), dtype=bool)
    for g in group.generators:
        same = fld.matmul(stack, g) == fld.matmul(g, stack)
        mask &= same.reshape(len(stack), -1).all(axis=1)
    return stack[mask]


CENTER_SPECS = ["A(1,3)u", "A(1,5)u", "2A(2,2)u", "C(2,2)u", "A(2,4)u", "C(2,3)u", "2A(3,2)u"]


@pytest.mark.parametrize("spec", CENTER_SPECS)
def test_center_matches_commuting_filter(spec):
    # the center is the singleton classes
    group = classical_generators(spec)
    table = enumerate_group(group)
    reps, _, sizes, _ = _classes(table.payload)
    center, want = _codes_of(table)[reps[sizes == 1]], commuting_filter(group)
    assert center.shape == want.shape and (center == want).all()


@pytest.mark.parametrize("spec", CENTER_SPECS)
def test_orders_live_on_the_classes(spec):
    # one order per class, expanded per element only by table.orders(), and
    # the histogram counted from the class sizes
    table = enumerate_group(classical_generators(spec))
    rec = table.payload
    reps, label, _, class_orders = _classes(rec)
    assert len(class_orders) == len(reps)
    orders = table.orders()
    assert orders.shape == label.shape and (orders == class_orders[label]).all()
    counts = np.bincount(orders)
    assert table.order_histogram == {m: int(counts[m]) for m in np.flatnonzero(counts)}


@pytest.mark.parametrize("spec", ["2A(3,2)u", "C(2,3)u", "A(2,4)u"])
def test_class_tuple_invariants(spec):
    # the class of x has size |G : C(x)|, and x and Z(G) lie in C(x): classes
    # merged or split by a fault in _classes break one of these
    rec = enumerate_group(classical_generators(spec)).payload
    reps, label, sizes, orders = _classes(rec)
    n, center = len(rec.keys), reps[sizes == 1]
    assert len(reps) == len(sizes) == len(orders) and sizes.sum() == n
    assert (n % sizes == 0).all()
    assert (n // sizes % orders == 0).all()
    assert (n // sizes % len(center) == 0).all()
    codec = _make_codec(rec.field, rec.dim)
    identity = np.searchsorted(rec.keys, codec.one)
    assert rec.keys[identity] == codec.one and sizes[label[identity]] == 1
    Z = codec.decode(rec.keys[center])
    for g in rec.generators:
        assert (rec.field.matmul(Z, g) == rec.field.matmul(g, Z)).all()


def naive_quotient_histogram(group, Z):
    """Orders of the cosets xZ, for Z a code stack, each coset named by its
    least key."""
    fld, stack = group.field, _codes_of(enumerate_group(group))
    codec = _make_codec(fld, group.dim)
    zk = codec.keys(Z)
    coset = np.min([codec.keys(fld.matmul(stack, z)) for z in Z], axis=0)
    _, first = np.unique(coset, return_index=True)
    reps = stack[first]
    cur, m = reps.copy(), np.ones(len(reps), dtype=np.int64)
    alive = ~np.isin(codec.keys(cur), zk)
    while alive.any():
        cur[alive] = fld.matmul(cur[alive], reps[alive])
        m[alive] += 1
        alive[alive] = ~np.isin(codec.keys(cur[alive]), zk)
    return dict(Counter(m.tolist()))


@pytest.mark.parametrize("spec", ["A(1,5)u", "A(2,4)u"])
def test_quotient_matches_coset_count(spec):
    group, simple = classical_generators(spec), spec[:-1] + "s"
    Z = commuting_filter(group)
    assert len(Z) > 1
    q = spectrum_table(simple)
    assert q.order_histogram == naive_quotient_histogram(group, Z)
    assert q.size == group_order(parse_group_spec(simple)).n


def test_cache_loaded_table_has_the_same_classes(tmp_path, fresh_memo):
    fresh = enumerate_group(classical_generators("A(2,4)u"))
    want = _classes(fresh.payload)
    cached_spectrum_table("A(2,4)u", cache_dir=tmp_path)
    _TABLE_MEMO.clear()
    loaded = cached_spectrum_table("A(2,4)u", cache_dir=tmp_path)
    # a loaded table conjugates by every generator of the group, a fresh
    # one by the generators its closure adopted
    assert loaded is not fresh
    assert len(loaded.payload.generators) == 8 > len(fresh.payload.generators)
    assert (loaded.orders() == fresh.orders()).all()
    got = _classes(loaded.payload)
    assert all((a == b).all() for a, b in zip(got, want))


def test_simple_table_reuses_classes(fresh_memo):
    first = spectrum_table("C(2,3)s")
    rec = enumerate_group(classical_generators("C(2,3)u")).payload
    kept = rec.classes
    second = spectrum_table("C(2,3)s")
    assert len(kept) == 4 and rec.classes is kept
    assert second.order_histogram == first.order_histogram
    assert second.payload is first.payload is None


def _sym(n, deg, q):
    """Sym_n on GF(q)^deg, by permutation matrices that fix points n..deg-1."""
    rest = tuple(range(n, deg))
    cycle = tuple(range(1, n)) + (0,)
    return permutation_module([(1, 0) + tuple(range(2, n)) + rest, cycle + rest], q).image_group


# How _classes builds each conjugation's permutation: by the packed sort, or
# by _lookup on uint64 words too wide to carry an index (64-bit keys) or on
# byte keys
CLASS_CASES = {
    "A(1,4)u": ("sort", lambda: classical_generators("A(1,4)u")),
    "C(2,2)u": ("sort", lambda: classical_generators("C(2,2)u")),
    "2A(2,2)u": ("sort", lambda: classical_generators("2A(2,2)u")),
    "Sym3 on GF(2)^8": ("words", lambda: _sym(3, 8, 2)),
    "Sym4 on GF(9)^4": ("words", lambda: _sym(4, 4, 9)),
    "Sym3 on GF(3)^6": ("bytes", lambda: _sym(3, 6, 3)),
}


def reference_classes(table, group):
    """Reps, labels and sizes from Matrix @ and **: a union-find over
    conjugation by every generator, each set rooted at its least index; g^-1
    is g^(|g| - 1), so no elimination is involved."""
    elements = [table.element(i) for i in range(table.size)]
    index = {m: i for i, m in enumerate(elements)}
    parent = list(range(table.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in (Matrix(group.field, a) for a in group.generators):
        g_inv = g ** (g.order() - 1)
        for i, x in enumerate(elements):
            a, b = find(i), find(index[g @ x @ g_inv])
            parent[max(a, b)] = min(a, b)
    roots = [find(i) for i in range(table.size)]
    reps = sorted(set(roots))
    label = np.array([reps.index(r) for r in roots], dtype=np.int32)
    return np.array(reps, dtype=np.intp), label, np.bincount(label)


@pytest.mark.parametrize("name", sorted(CLASS_CASES))
def test_classes_match_a_reference(name, fresh_memo):
    path, make = CLASS_CASES[name]
    group = make()
    table = enumerate_group(group)
    rec = GroupRecord(group.field, group.dim, table.payload.keys, table.payload.generators,
                      table.payload.inverses)
    assert rec.keys.dtype.kind == ("V" if path == "bytes" else "u")
    with mock.patch.object(matgroup, "_lookup", wraps=matgroup._lookup) as lookup:
        got = _classes(rec)
    # _least_powers looks up the identity; a permutation looks up in the keys
    assert any(call.args[0] is rec.keys for call in lookup.call_args_list) == (path != "sort")
    for have, want in zip(got[:3], reference_classes(table, group)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert (have == want).all()


def test_conjugate_outside_the_table_raises():
    # a subgroup of one generator, not normal, under conjugation by all of
    # them: a transvection of SL2(3) takes the packed sort, a transposition
    # of Sym3 takes _lookup on 64-bit words and on byte keys
    for group in (classical_generators("A(1,3)u"), _sym(3, 8, 2), _sym(3, 6, 3)):
        sub = enumerate_group(MatrixGroup(group.field, group.dim, group.generators[:1]))
        rec = GroupRecord(group.field, group.dim, sub.payload.keys, group.generators,
                          group.inverses)
        with pytest.raises(RuntimeError, match="conjugate left the set"):
            _classes(rec)


def test_classes_memory_budget(fresh_memo):
    """Traced peak of _classes on C(2,3)u, per element: 46.2 bytes, at the
    odd-p conjugation, class orders included; once 52.2 with an argsort per
    generator, 50.9 with the packed sort, 58.9 with a persistent uint64 index
    array and 62.9 with intp permutations."""
    rec = enumerate_group(classical_generators("C(2,3)u")).payload
    fresh = GroupRecord(rec.field, rec.dim, rec.keys, rec.generators, rec.inverses)
    _kernel(rec.field, rec.dim)
    tracemalloc.start()
    try:
        _classes(fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 55 * len(rec.keys)


def test_gf2k_classes_memory_budget(fresh_memo):
    """Traced peak of _classes on A(2,4)u, whose GF(4) keys conjugate in one
    table pass, per element: 44.0 bytes, class orders included, since the
    permutations and the previous labels go before the classes are
    numbered, within the budget of C(2,3)u above."""
    rec = enumerate_group(classical_generators("A(2,4)u")).payload
    fresh = GroupRecord(rec.field, rec.dim, rec.keys, rec.generators, rec.inverses)
    assert _kernel(rec.field, rec.dim).linear
    tracemalloc.start()
    try:
        _classes(fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 55 * len(rec.keys)


def stepped_least_powers(rec, target):
    """Per class rep, the least m >= 1 with x^m in target, one Field.matmul
    per power: the loop the doubling replaced."""
    reps = _classes(rec)[0]
    codec = _make_codec(rec.field, rec.dim)
    R = codec.decode(rec.keys[reps])
    m, idx, cur = np.ones(len(R), dtype=np.int64), np.arange(len(R)), R
    for _ in range(len(rec.keys)):
        out = ~np.isin(codec.keys(cur), target)
        if not out.any():
            return m
        idx, cur = idx[out], cur[out]
        m[idx] += 1
        cur = rec.field.matmul(cur, R[idx])
    raise AssertionError("an order exceeds the group's")


# largest least powers into 1 that are not powers of two: 21, 18 and 14
@pytest.mark.parametrize("spec, top", [("A(2,4)u", 21), ("C(2,3)u", 18), ("A(1,7)u", 14)])
def test_least_powers_by_doubling_match_stepping(spec, top):
    # the identity and the center: class orders, and orders in G/Z
    rec = enumerate_group(classical_generators(spec)).payload
    reps, _, sizes, _ = _classes(rec)
    one, center = _make_codec(rec.field, rec.dim).one, rec.keys[reps[sizes == 1]]
    for target in (one, center):
        want = stepped_least_powers(rec, target)
        with mock.patch.object(rec.field, "matmul", wraps=rec.field.matmul) as matmul:
            got = _least_powers(rec, reps, target)
        assert got.dtype == np.int64 and (got == want).all()
        # ceil(log2 m) stacked products for the largest m
        assert matmul.call_count == (int(want.max()) - 1).bit_length()
    assert stepped_least_powers(rec, one).max() == top


def test_target_without_the_identity_is_refused():
    rec = enumerate_group(classical_generators("A(2,4)u")).payload
    reps, _, sizes, _ = _classes(rec)
    center = rec.keys[reps[sizes == 1]]
    assert len(center) == 3
    target = center[center != _make_codec(rec.field, rec.dim).one[0]]
    with mock.patch.object(rec.field, "matmul", side_effect=AssertionError), \
            pytest.raises(RuntimeError, match="order runaway"):
        _least_powers(rec, reps, target)


def test_unreachable_target_raises():
    rec = enumerate_group(classical_generators("A(1,3)u")).payload
    # a key past the largest one names no element, so no power reaches it
    with pytest.raises(RuntimeError, match="order runaway"):
        _least_powers(rec, _classes(rec)[0], rec.keys[-1:] + np.uint64(1))


def _sym3(q):
    return permutation_module([(1, 0, 2), (1, 2, 0)], q)


# odd-characteristic groups, all with packed words; rows over GF(7)^3, GF(9)^3
# and GF(5)^4 add in two chunks
PACKED_CASES = {
    "A(1,5)u": lambda: classical_generators("A(1,5)u"),
    "A(1,9)u": lambda: classical_generators("A(1,9)u"),
    "A(2,3)u": lambda: classical_generators("A(2,3)u"),
    "C(2,3)u": lambda: classical_generators("C(2,3)u"),
    "Frobenius group (3, 3)": lambda: _frobenius_group((3, 3)),
    "Sym3 on GF(7)^3": lambda: _sym3(7).image_group,
    "Sym3 on GF(9)^3": lambda: _sym3(9).image_group,
    "Sym4 on GF(5)^4": lambda: permutation_module([(1, 0, 2, 3), (1, 2, 3, 0)], 5).image_group,
}


def _oracle_run(make):
    """Everything the oracle derives from one fresh enumeration."""
    _TABLE_MEMO.clear()
    group = make()
    table = enumerate_group(group)
    rec, (reps, label, sizes, _) = table.payload, _classes(table.payload)
    center = reps[sizes == 1]
    zk = rec.keys[center]
    quotient = _table(_least_powers(rec, reps, zk), sizes, zn=len(zk))
    arrays = [rec.keys, _codes_of(table), rec.generators, reps, label, sizes,
              table.orders(), _codes_of(table)[center], _least_powers(rec, reps, zk)]
    return arrays, (table.order_histogram, quotient.order_histogram)


@pytest.mark.parametrize("name", sorted(PACKED_CASES))
def test_packed_words_match_code_stacks(name, fresh_memo):
    group = PACKED_CASES[name]()
    assert isinstance(_kernel(group.field, group.dim), _Packed)
    packed, packed_hists = _oracle_run(PACKED_CASES[name])
    codes = mock.MagicMock(side_effect=_Wide)
    with mock.patch.object(matgroup, "_kernel", codes):
        unpacked, unpacked_hists = _oracle_run(PACKED_CASES[name])
    assert codes.called
    assert unpacked_hists == packed_hists
    for got, want in zip(unpacked, packed):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()


@pytest.mark.parametrize("q", [3, 7])
def test_packed_semidirect_and_frobenius_match_code_stacks(q, fresh_memo):
    def run():
        _TABLE_MEMO.clear()
        w = frobenius_witness("sl-hyperplane", (3, q))
        return (semidirect_spectrum(_sym3(q)).order_histogram,
                verify_frobenius(w.kernel_gens, w.complement_gens))
    packed = run()
    with mock.patch.object(matgroup, "_kernel", _Wide), \
            mock.patch.object(frobenius, "_kernel", _Wide):
        assert run() == packed
    assert packed[1].ok


def test_one_elimination_per_stack(fresh_memo):
    """Generators (whose elimination also gives the conjugating inverses)
    and N(rep) ranks are each eliminated as one stack, the witness's Singer
    power once, and a passing Frobenius check eliminates its kernel and
    complement generators together, once, and builds no MatrixGroup: it
    compares aK with Ka, with no inverse of a."""
    def counted(module):
        return mock.patch.object(module, "_eliminate", wraps=module._eliminate)

    with counted(matgroup) as elim:
        group = classical_generators("2A(3,2)u")
        assert elim.call_count == 1 and len(elim.call_args[0][1]) == len(group.generators) == 6
    rec = GroupRecord(group.field, group.dim, enumerate_group(group).payload.keys,
                      group.generators, group.inverses)
    # the classes conjugate with the inverses the group's elimination gave
    with counted(matgroup) as elim:
        _classes(rec)
        assert elim.call_count == 0
    with counted(action) as elim:
        semidirect_spectrum(_sym3(3))
        assert elim.call_count == 1
    with counted(frobenius) as elim:
        w = frobenius_witness("sl-hyperplane", (3, 3))
        # the Singer power's det, and no power of its action
        assert elim.call_count == 1 and len(elim.call_args[0][1]) == 1
    with counted(frobenius) as elim, counted(matgroup) as group_elim, \
            mock.patch.object(matgroup.MatrixGroup, "__init__", side_effect=AssertionError):
        assert verify_frobenius(w.kernel_gens, w.complement_gens).ok
        assert elim.call_count == 1 and group_elim.call_count == 0
        assert len(elim.call_args[0][1]) == len(w.kernel_gens) + len(w.complement_gens)


def test_one_elimination_per_group(tmp_path, fresh_memo):
    """The group's validating elimination gives the inverses that the classes
    conjugate with, for enumerated and for cache-loaded records."""
    with mock.patch.object(matgroup, "_eliminate", wraps=matgroup._eliminate) as elim:
        group = classical_generators("C(2,3)u")
        fresh = enumerate_group(group)
        assert elim.call_count == 1
    # spectrum_table finds the same group built; the center and the
    # quotient eliminate nothing
    with mock.patch.object(matgroup, "_eliminate", wraps=matgroup._eliminate) as elim:
        spectrum_table("C(2,3)s")
        assert elim.call_count == 0
    cached_spectrum_table("C(2,3)u", cache_dir=tmp_path)
    _TABLE_MEMO.clear()
    loaded = cached_spectrum_table("C(2,3)u", cache_dir=tmp_path)
    assert loaded is not fresh
    for rec in (fresh.payload, loaded.payload):
        gens = rec.generators
        assert rec.inverses.shape == gens.shape
        assert (group.field.matmul(rec.inverses, gens) == np.eye(group.dim, dtype=gens.dtype)).all()


@pytest.mark.parametrize("spec", ["2A(3,2)u", "A(2,4)s"])
def test_one_elimination_per_cached_request(tmp_path, fresh_memo, spec):
    """A cached request builds its group once: the load or the enumeration
    and the save, and the table or the center and quotient, all use it."""
    for _ in ("miss", "hit"):
        _TABLE_MEMO.clear()
        matgroup._universal.cache_clear()
        with mock.patch.object(matgroup, "_eliminate", wraps=matgroup._eliminate) as elim:
            cached_spectrum_table(spec, cache_dir=tmp_path)
        assert elim.call_count == 1
