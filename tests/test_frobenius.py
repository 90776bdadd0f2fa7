import functools
import itertools
import math
import operator

import numpy as np
import pytest

from omega.arith import _factor, is_prime_power, r_part
from omega.claims import CATALOG
from omega.oracle import (
    CapExceeded,
    FrobeniusVerdict,
    Matrix,
    WitnessSearchError,
    build_field,
    classical_generators,
    enumerate_group,
    frobenius_witness,
    verify_frobenius,
)
from omega.oracle import frobenius, matgroup
from omega.oracle.frobenius import (VERIFY_CAP, _singer_block, _sl_hyperplane_witness,
                                    _sp_torus_witness)
from omega.oracle.kernel import _eliminate, _kernel, _make_codec
from omega.oracle.matgroup import _TABLE_MEMO, _closure

from test_action import _moved_ranks


@pytest.fixture
def fresh_memo():
    saved = dict(_TABLE_MEMO)
    _TABLE_MEMO.clear()
    yield
    _TABLE_MEMO.clear()
    _TABLE_MEMO.update(saved)


def test_singer_block_orders():
    for q, k in ((2, 2), (2, 3), (3, 2), (4, 2)):
        m, fld = _singer_block(q, k)
        assert fld.q == q and m.dim == k
        total = q**k - 1
        assert (m**total).is_identity()
        for d in range(1, total):
            if total % d == 0 and d < total:
                assert not (m**d).is_identity()


def looped_singer(q, k):
    """The Singer cycle search one companion matrix at a time, as a plain
    reference: the first in itertools.product order whose power q^k - 1 is
    the identity and whose power (q^k - 1)/r is not, for each prime r."""
    fld = build_field(is_prime_power(q), _factor(q)[is_prime_power(q)])
    total = q**k - 1
    for coeffs in itertools.product(range(q), repeat=k):
        if coeffs[0] == 0:
            continue
        comp = np.zeros((k, k), dtype=np.uint16)
        for i in range(1, k):
            comp[i, i - 1] = 1
        for i in range(k):
            comp[i, k - 1] = fld.neg(coeffs[i])
        m = Matrix(fld, comp)
        if (m**total).is_identity() and all(
                not (m ** (total // r)).is_identity() for r in _factor(total)):
            return m, fld
    return None


SMALL_SINGER = [(q, k) for q in range(2, 82) if is_prime_power(q)
                for k in range(1, 7) if q**k <= 81]


@pytest.mark.parametrize("block", [None, 2])
def test_stacked_singer_matches_loop(block, monkeypatch):
    # blocks of two candidates put most first hits past a block boundary
    if block is not None:
        monkeypatch.setattr(frobenius, "_SINGER_BLOCK", block)
    for q, k in SMALL_SINGER:
        assert _singer_block(q, k) == looped_singer(q, k), (q, k)


@pytest.mark.parametrize("q, k, column", [
    (9, 3, (8, 0, 8)), (7, 4, (4, 0, 6, 6)), (8, 4, (2, 0, 0, 1)), (9, 4, (8, 0, 0, 2))])
def test_singer_block_pins(q, k, column):
    # the one-at-a-time search's hits, as field codes of the last column;
    # the companion's subdiagonal is all ones
    m, fld = _singer_block(q, k)
    assert tuple(m.a[:, -1]) == column
    assert (m.a[:, :-1] == np.eye(k, k - 1, -1, dtype=np.uint16)).all()


def test_sl_hyperplane_witnesses():
    w = frobenius_witness("sl-hyperplane", (3, 2))
    assert (w.kernel_order, w.complement_order) == (4, 3)
    v = verify_frobenius(w.kernel_gens, w.complement_gens)
    assert v.ok and (v.kernel_order, v.complement_order) == (4, 3)
    assert v.reason == "" and v.counterexample is None

    # gcd(n, q-1) = 3 cuts the free complement down to the coprime part
    w = frobenius_witness("sl-hyperplane", (3, 4))
    assert (w.kernel_order, w.complement_order) == (16, 5)
    assert verify_frobenius(w.kernel_gens, w.complement_gens).ok

    w = frobenius_witness("sl-hyperplane", (4, 2))
    v = verify_frobenius(w.kernel_gens, w.complement_gens)
    assert v.ok and (v.kernel_order, v.complement_order) == (8, 7)


def _action_powers(fld, lam, t, e):
    """act^1 .. act^e for act = lam (t^-1)^T, the action of diag(lam, t) on
    the translation rows."""
    _, _, inverse = _eliminate(fld, t[None])
    act = Matrix(fld, fld.mul_many(inverse[0].T, lam))
    return list(itertools.accumulate([act] * e, operator.matmul))


def _free_order(n, q):
    """e: the part of q^(n-1) - 1 coprime to gcd(n, q - 1)."""
    big_order, d = q ** (n - 1) - 1, math.gcd(n, q - 1)
    return big_order if d == 1 else r_part(big_order, d)[1]


def _searched_complement(n, q):
    """The complement generator by search: the first Singer power u with
    gcd(q^(n-1) - 1, u) = (q^(n-1) - 1)/e whose action on the translations
    has act^e = 1 and no fixed vector under act^j for 0 < j < e."""
    singer, fld = frobenius._singer_block(q, n - 1)
    big_order, e = q ** (n - 1) - 1, _free_order(n, q)
    for u in range(1, big_order):
        if math.gcd(big_order, u) != big_order // e:
            continue
        t = (singer**u).a
        _, det, _ = _eliminate(fld, t[None])
        lam = fld.inv(int(det[0]))
        powers = _action_powers(fld, lam, t, e)
        if powers[-1].is_identity() and (
                _moved_ranks(fld, np.array([g.a for g in powers[:-1]])) == n - 1).all():
            big = np.eye(n, dtype=np.uint16)
            big[0, 0], big[1:, 1:] = lam, t
            return Matrix(fld, big)
    return None


HYPERPLANE_GRID = [(n, q) for n in range(2, 6) for q in (2, 3, 4, 5, 7, 8, 9)
                   if _free_order(n, q) > 1]


@pytest.mark.parametrize("n, q", HYPERPLANE_GRID)
def test_sl_hyperplane_complement_is_free_without_search(n, q, monkeypatch):
    # the witness and the search share one Singer cycle search
    monkeypatch.setattr(frobenius, "_singer_block", functools.cache(_singer_block))
    w = _sl_hyperplane_witness(n, q)
    (c,) = w.complement_gens
    assert c == _searched_complement(n, q)
    # act^e = 1 and act^j - 1 has full rank for 0 < j < e
    fld, e = c.field, w.complement_order
    powers = _action_powers(fld, int(c.a[0, 0]), c.a[1:, 1:], e)
    assert powers[-1].is_identity()
    assert (_moved_ranks(fld, np.array([g.a for g in powers[:-1]])) == n - 1).all()


def test_sl_hyperplane_degenerate():
    # (q-1) loses all its primes to gcd(2, q-1) here
    with pytest.raises(WitnessSearchError):
        frobenius_witness("sl-hyperplane", (2, 5))


def test_gl_affine_witnesses():
    for (q, k), orders in (((4, 1), (4, 3)), ((2, 2), (4, 3)), ((3, 2), (9, 8))):
        w = frobenius_witness("gl-affine", (q, k))
        v = verify_frobenius(w.kernel_gens, w.complement_gens)
        assert v.ok and (v.kernel_order, v.complement_order) == orders


def test_sp_torus_witness_small():
    w = frobenius_witness("sp-torus", (2, 2))
    v = verify_frobenius(w.kernel_gens, w.complement_gens)
    assert v.ok
    assert (v.kernel_order, v.complement_order) == (5, 4)


@pytest.mark.parametrize("params, torus, complement", [
    ((2, 2), [[0, 0, 0, 1], [0, 0, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1]],
     [[0, 0, 1, 1], [0, 0, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]]),
    ((2, 4), [[0, 0, 0, 1], [0, 0, 1, 1], [1, 1, 0, 2], [1, 0, 1, 1]],
     [[0, 0, 2, 2], [0, 0, 0, 3], [3, 0, 0, 1], [2, 2, 3, 0]]),
])
def test_sp_torus_search_picks_the_same_complement(params, torus, complement):
    """The search takes, in the first block of candidates c with a hit, the
    least j and then the least c with c s = s^j c: pinned matrices."""
    w = frobenius_witness("sp-torus", params)
    assert [g.a.tolist() for g in w.kernel_gens] == [torus]
    assert [g.a.tolist() for g in w.complement_gens] == [complement]


def looped_mult_order(j, n):
    """The multiplicative order of j mod n, one product at a time."""
    m, x = 1, j % n
    while x != 1:
        x = x * j % n
        m += 1
        if m > n:
            raise RuntimeError(f"{j} has no multiplicative order mod {n}")
    return m


def reference_sp_torus(n, q, block=1 << 14):
    """The torus search element by element: s the first element of order
    q^n + 1 in the per-element orders, the candidates c every element of
    order 2n, and, per block of candidates, the least j of multiplicative
    order 2n mod q^n + 1 and then the least c with c s = s^j c, compared as
    matrices by Field.matmul."""
    group = classical_generators(f"C({n},{q})u")
    table = enumerate_group(group)
    fld, target, orders = group.field, q**n + 1, table.orders()
    s = table.element(int(np.flatnonzero(orders == target)[0]))
    js = [j for j in range(2, target) if looped_mult_order(j, target) == 2 * n]
    codec, cand = _make_codec(fld, group.dim), np.flatnonzero(orders == 2 * n)
    for lo in range(0, len(cand), block):
        C = codec.decode(table.payload.keys[cand[lo:lo + block]])
        cs = fld.matmul(C, s.a)
        for j in js:
            hit = np.flatnonzero((fld.matmul((s**j).a, C) == cs).all(axis=(1, 2)))
            if len(hit):
                return s, table.element(int(cand[lo + hit[0]]))
    return s, None


@pytest.mark.parametrize("params", [(2, 2), (2, 4)])
def test_sp_torus_search_matches_a_per_element_reference(params):
    # the search reads class reps and class masks; the reference expands
    # every element's order and loops over multiplicative orders
    w = _sp_torus_witness(*params)
    s, c = reference_sp_torus(*params)
    assert c is not None
    assert w.kernel_gens == (s,) and w.complement_gens == (c,)


def test_witness_checks_hold_without_asserts():
    with pytest.raises(ValueError, match="6 is not a prime power"):
        _singer_block(6, 2)
    for n in (1, 0):
        with pytest.raises(ValueError, match="n >= 2"):
            _sl_hyperplane_witness(n, 3)
    for n, q in ((2, 3), (3, 2), (0, 2)):
        with pytest.raises(ValueError, match="even q and a 2-power n"):
            _sp_torus_witness(n, q)


def test_unknown_kind():
    with pytest.raises(ValueError):
        frobenius_witness("torus-of-babel", (2, 2))


def test_verify_rejects_intersection():
    f3 = build_field(3, 1)
    g = Matrix(f3, [[1, 1], [0, 1]])
    v = verify_frobenius((g,), (g,))
    assert not v.ok
    assert "intersect" in v.reason
    assert v.counterexample is not None
    assert all(not m.is_identity() for m in v.counterexample)


def test_verify_rejects_central_complement():
    # -I centralizes the unipotent kernel, so it fixes nontrivial elements
    f3 = build_field(3, 1)
    k = Matrix(f3, [[1, 1], [0, 1]])
    c = Matrix(f3, [[2, 0], [0, 2]])
    v = verify_frobenius((k,), (c,))
    assert not v.ok
    assert "fixes" in v.reason


def test_verify_rejects_non_normalizing_complement():
    f3 = build_field(3, 1)
    k = Matrix(f3, [[1, 1], [0, 1]])
    c = Matrix(f3, [[0, 1], [2, 0]])  # order 4, conjugates upper to lower
    v = verify_frobenius((k,), (c,))
    assert not v.ok
    assert "normalize" in v.reason


def test_verdict_shape():
    v = FrobeniusVerdict(True, 5, 4)
    assert v.ok and v.reason == "" and v.counterexample is None


def _no_classes(rec):
    raise AssertionError("verify_frobenius built conjugacy classes")


@pytest.mark.parametrize("kind, params", [("sl-hyperplane", (3, 3)), ("gl-affine", (3, 2))])
def test_verify_reads_key_sets_only(kind, params, monkeypatch, fresh_memo):
    w = frobenius_witness(kind, params)
    monkeypatch.setattr(matgroup, "_classes", _no_classes)
    v = verify_frobenius(w.kernel_gens, w.complement_gens)
    assert v == FrobeniusVerdict(True, w.kernel_order, w.complement_order)
    assert not _TABLE_MEMO  # never written


def test_verify_rejects_singular_generators():
    f3 = build_field(3, 1)
    k, c = Matrix(f3, [[1, 1], [0, 1]]), Matrix(f3, [[2, 0], [0, 1]])
    singular = Matrix(f3, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="kernel generator not invertible"):
        verify_frobenius((k, singular), (c,))
    with pytest.raises(ValueError, match="complement generator not invertible"):
        verify_frobenius((k,), (c, singular))


def test_verify_keeps_the_cap(fresh_memo, monkeypatch):
    w = frobenius_witness("sl-hyperplane", (3, 3))
    monkeypatch.setattr(frobenius, "VERIFY_CAP", 4)
    with pytest.raises(CapExceeded) as err:
        verify_frobenius(w.kernel_gens, w.complement_gens)
    assert 4 < err.value.found <= 4 + matgroup._CAP_CHUNK
    assert err.value.cap == 4


def test_verify_refuses_a_trivial_kernel_or_complement():
    """A Frobenius group has a nontrivial kernel and a nontrivial
    complement: a trivial one is refused with no counterexample."""
    w = frobenius_witness("sl-hyperplane", (3, 3))
    one = (Matrix(w.kernel_gens[0].field, np.eye(3)),)
    assert verify_frobenius(w.kernel_gens, one) == FrobeniusVerdict(
        False, 9, 1, "complement is trivial")
    assert verify_frobenius(one, w.complement_gens) == FrobeniusVerdict(
        False, 1, 8, "kernel is trivial")
    assert verify_frobenius(one, one) == FrobeniusVerdict(False, 1, 1, "kernel is trivial")


def test_verify_wants_a_generator_on_each_side():
    w = frobenius_witness("sl-hyperplane", (3, 3))
    for kernel_gens, complement_gens in (((), w.complement_gens), (w.kernel_gens, ()), ((), ())):
        with pytest.raises(ValueError, match="each need a generator"):
            verify_frobenius(kernel_gens, complement_gens)


def looped_verify(kernel_gens, complement_gens, cap=VERIFY_CAP):
    """The Frobenius check one complement element at a time, as a plain
    reference: each non-identity element a, in key order, conjugates the
    kernel by its inverse from an elimination; a k a^-1 outside K refutes
    normalization, a k a^-1 = k for k != 1 a free action."""
    fld, dim = kernel_gens[0].field, kernel_gens[0].dim
    k_keys = _closure(fld, dim, np.stack([g.a for g in kernel_gens]), cap)[0]
    c_keys = _closure(fld, dim, np.stack([g.a for g in complement_gens]), cap)[0]
    ko, co = len(k_keys), len(c_keys)
    codec, kern = _make_codec(fld, dim), _kernel(fld, dim)

    def nontrivial(keys):
        return next(m for m in (Matrix(fld, a) for a in codec.decode(keys))
                    if not m.is_identity())

    def refuted(reason, example):
        return FrobeniusVerdict(False, ko, co, reason, example)

    both = np.isin(c_keys, k_keys)
    if int(both.sum()) != 1:
        shared = nontrivial(c_keys[both])
        return refuted("kernel and complement intersect beyond the identity", (shared, shared))
    C = codec.decode(c_keys)
    _, _, inverses = _eliminate(fld, C)
    for a, a_inv in zip(C, inverses):
        c = Matrix(fld, a)
        if c.is_identity():
            continue
        conj_keys = kern.right(kern.left(a, k_keys), a_inv)
        inside = np.isin(conj_keys, k_keys)
        if not inside.all():
            return refuted("complement element does not normalize the kernel",
                           (c, nontrivial(k_keys[~inside])))
        fixed = conj_keys == k_keys
        if int(fixed.sum()) > 1:
            return refuted("complement element fixes a nontrivial kernel element",
                           (c, nontrivial(k_keys[fixed])))
    return FrobeniusVerdict(True, ko, co)


def _rejected_cases():
    """The three rejecting cases above; the unitriangular 3 x 3 group over
    GF(2) with the swap of coordinates 0 and 1, which keeps the elements
    with no (0, 1) entry in it, the first non-identity ones in key order,
    and moves the others out; and two over GF(2) in dimension 9, whose keys
    are too wide to pack: the translations of the affine line over GF(2^8)
    with a swap that moves row 0 (no normalizer), and with one that swaps
    coordinates 1 and 2 (fixes w with w1 = w2)."""
    f3, f2 = build_field(3, 1), build_field(2, 1)
    k = Matrix(f3, [[1, 1], [0, 1]])
    translations = frobenius_witness("gl-affine", (2, 8)).kernel_gens

    def swap(n, i, j):
        m = np.eye(n, dtype=np.uint16)
        m[[i, j]] = m[[j, i]]
        return Matrix(f2, m)

    upper = (Matrix(f2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
             Matrix(f2, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]))
    return {
        "intersect": ((k,), (k,)),
        "central": ((k,), (Matrix(f3, [[2, 0], [0, 2]]),)),
        "non-normalizing": ((k,), (Matrix(f3, [[0, 1], [2, 0]]),)),
        "partly-normalizing": (upper, (swap(3, 0, 1),)),
        "wide-non-normalizing": (translations, (swap(9, 0, 1),)),
        "wide-fixing": (translations, (swap(9, 1, 2),)),
    }


C15_POINTS = [(p["kind"], tuple(p["args"]))
              for p in next(c for c in CATALOG if c.id == "C15").grid]
WITNESSES = C15_POINTS + [("sp-torus", (2, 2)), ("gl-affine", (2, 8))]


@pytest.mark.parametrize("kind, params", WITNESSES, ids=str)
def test_stacked_verify_matches_loop_on_witnesses(kind, params, monkeypatch):
    w = frobenius_witness(kind, params)
    want = looped_verify(w.kernel_gens, w.complement_gens)
    assert want.ok
    assert verify_frobenius(w.kernel_gens, w.complement_gens) == want
    # blocks of three complement elements: gl-affine (2, 8)'s 255 x 256
    # products take 85 blocks
    monkeypatch.setattr(frobenius, "_VERIFY_BLOCK", 3 * w.kernel_order)
    assert verify_frobenius(w.kernel_gens, w.complement_gens) == want


@pytest.mark.parametrize("case", sorted(_rejected_cases()))
def test_stacked_verify_matches_loop_on_rejections(case, monkeypatch):
    kernel_gens, complement_gens = _rejected_cases()[case]
    want = looped_verify(kernel_gens, complement_gens)
    assert not want.ok and want.counterexample is not None
    assert verify_frobenius(kernel_gens, complement_gens) == want
    # one complement element per block: the failing one is in a later block
    monkeypatch.setattr(frobenius, "_VERIFY_BLOCK", 1)
    assert verify_frobenius(kernel_gens, complement_gens) == want
