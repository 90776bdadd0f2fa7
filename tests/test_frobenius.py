import functools
import itertools
import math
import operator

import numpy as np
import pytest

from omega.arith import r_part
from omega.oracle import (
    CapExceeded,
    FrobeniusVerdict,
    Matrix,
    WitnessSearchError,
    build_field,
    frobenius_witness,
    verify_frobenius,
)
from omega.oracle import frobenius, matgroup
from omega.oracle.action import _moved_ranks
from omega.oracle.frobenius import (_mult_order, _singer_block, _sl_hyperplane_witness,
                                    _sp_torus_witness)
from omega.oracle.kernel import _eliminate
from omega.oracle.matgroup import _TABLE_MEMO


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


def test_witness_checks_hold_without_asserts():
    with pytest.raises(ValueError, match="6 is not a prime power"):
        _singer_block(6, 2)
    for n in (1, 0):
        with pytest.raises(ValueError, match="n >= 2"):
            _sl_hyperplane_witness(n, 3)
    for n, q in ((2, 3), (3, 2), (0, 2)):
        with pytest.raises(ValueError, match="even q and a 2-power n"):
            _sp_torus_witness(n, q)
    assert _mult_order(2, 5) == 4
    with pytest.raises(RuntimeError, match="no multiplicative order"):
        _mult_order(2, 4)


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


def test_verify_keeps_the_cap(fresh_memo):
    w = frobenius_witness("sl-hyperplane", (3, 3))
    with pytest.raises(CapExceeded) as err:
        verify_frobenius(w.kernel_gens, w.complement_gens, cap=4)
    assert 4 < err.value.found <= 4 + matgroup._CAP_CHUNK
    assert err.value.cap == 4
