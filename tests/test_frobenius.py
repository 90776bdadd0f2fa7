import numpy as np
import pytest

from omega.oracle import (
    FrobeniusVerdict,
    Matrix,
    WitnessSearchError,
    build_field,
    frobenius_witness,
    verify_frobenius,
)
from omega.oracle.frobenius import (_mult_order, _singer_block, _sl_hyperplane_witness,
                                    _sp_torus_witness)


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
