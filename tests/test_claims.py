import json
from unittest import mock

import numpy as np
import pytest

from omega.claims import (CATALOG, _BY_ID, _CHECKS, Claim, ClaimResult, _pair_order, run_claim,
                          run_suite)
from omega.oracle import Matrix, MatrixGroup, build_field, classical_generators, matgroup


def test_catalog_shape():
    ids = [c.id for c in CATALOG]
    assert ids == [f"C{i}" for i in range(1, 17)]
    assert len(set(ids)) == len(ids)
    for c in CATALOG:
        assert c.statement
        if c.strategy == "skipped":
            assert c.skip_reason and c.id not in _CHECKS
        else:
            assert c.grid and c.id in _CHECKS


def test_strategy_partition():
    by = {}
    for c in CATALOG:
        by.setdefault(c.strategy, []).append(c.id)
    assert by["arithmetic"] == ["C2", "C3", "C12"]
    assert by["descriptor"] == ["C1", "C7"]
    assert by["oracle"] == ["C4", "C5", "C6", "C8", "C9", "C13", "C14", "C15"]
    assert by["skipped"] == ["C10", "C11", "C16"]


def test_run_claim_rejects_junk():
    with pytest.raises(ValueError):
        run_claim("C99")
    with pytest.raises(ValueError):
        run_claim("C1", {"q": 3})  # odd
    with pytest.raises(ValueError):
        run_claim("C1", {"q": 2})  # too small
    with pytest.raises(ValueError):
        run_claim("C1", {})
    with pytest.raises(ValueError):
        run_claim("C4", {"q": 16})  # order blows the enumeration budget
    with pytest.raises(ValueError):
        run_claim("C5", {"q": 4})
    with pytest.raises(ValueError):
        run_claim("C6", {"n": 3, "q": 4})  # n must be a 2-power
    with pytest.raises(ValueError):
        run_claim("C2", {"q_lo": 5, "q_hi": 4})
    with pytest.raises(ValueError, match=r"no q in \[4, 4\] feeds the sp-gcd identity"):
        run_claim("C3", {"q_lo": 4, "q_hi": 4})  # 4 is even
    with pytest.raises(ValueError):
        run_claim("C13", {"group": "C(3,2)u", "zorder": 6})  # (2,6) is the divisor gap
    with pytest.raises(ValueError):
        run_claim("C13", {"group": "C(4,2)u", "zorder": 8})  # budget
    with pytest.raises(ValueError):
        run_claim("C14", {"model": "nope"})
    with pytest.raises(ValueError):
        run_claim("C15", {"kind": "sl-hyperplane", "args": "32"})
    with pytest.raises(ValueError):
        run_suite(["C1", "C99"])


def test_claim_checks_hold_without_asserts():
    with pytest.raises(ValueError, match="unknown strategy"):
        Claim("C0", "a statement", "guesswork", grid=({},))
    with pytest.raises(ValueError, match="needs a skip reason"):
        Claim("C0", "a statement", "skipped")
    with pytest.raises(ValueError, match="needs a grid"):
        Claim("C0", "a statement", "oracle")
    with pytest.raises(ValueError, match="unknown verdict"):
        ClaimResult("C0", {}, "maybe", {})


def step_pair_order(fld, s, v):
    """Order of (v, s) under (a, g)(b, h) = (a + g.b, g.h), one product at a time."""
    base = np.asarray(v, dtype=np.uint16)
    cur_v, cur_g, k = base.copy(), s, 1
    while cur_v.any() or not cur_g.is_identity():
        cur_v = fld.add_many(cur_v, fld.matmul(cur_g.a, base[:, None])[:, 0])
        cur_g = cur_g @ s
        k += 1
        if k > 4096:
            raise RuntimeError("runaway pair order")
    return k


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
def test_pair_order_matches_the_step_loop(p, k):
    fld, rng, seen = build_field(p, k), np.random.default_rng(p * 10 + k), set()
    for _ in range(40):
        d = int(rng.integers(1, 4))
        s = Matrix(fld, rng.integers(0, fld.q, (d, d)))
        try:  # MatrixGroup refuses a singular generator
            MatrixGroup(fld, d, [s.a])
        except ValueError:
            continue
        v = rng.integers(0, fld.q, d) * (rng.random() < 0.8)
        order = _pair_order(s, v)
        assert order == step_pair_order(fld, s, v)
        seen.add(order % fld.p == 0)
    assert seen == {False, True}


def test_skipped_claims():
    for cid in ("C10", "C11", "C16"):
        r = run_claim(cid)
        assert r.verdict == "skipped"
        assert r.evidence["reason"] == _BY_ID[cid].skip_reason
    # skipped claims ignore parameters
    assert run_claim("C10", {"q": 4}).verdict == "skipped"


def test_arithmetic_suite():
    results = run_suite("arithmetic")
    assert [r.claim_id for r in results] == ["C2", "C3", "C12"]
    assert all(r.verdict == "pass" for r in results)
    assert results[0].evidence["checked"] == 999
    assert results[1].evidence["checked"] == 2024
    assert results[2].evidence == {"checked": 162, "gaps": [[2, 6]], "failures": []}


def test_descriptor_suite():
    results = run_suite("descriptor")
    assert [(r.claim_id, r.params.get("q")) for r in results] == [
        ("C1", 4), ("C1", 8), ("C1", 16), ("C1", 32),
        ("C7", 2), ("C7", 3), ("C7", 4), ("C7", 5), ("C7", 8), ("C7", 9),
    ]
    assert all(r.verdict == "pass" for r in results)


def test_c1_evidence_values():
    r = run_claim("C1", {"q": 4})
    assert r.verdict == "pass"
    assert r.evidence["generators"] == [52, 84, 126, 130]
    assert r.evidence["targets"] == [30, 20]
    assert r.evidence["member"] == {"30": False, "20": False}


def test_c7_witness_choices():
    r = run_claim("C7", {"q": 2})
    assert r.verdict == "pass"
    ev = r.evidence
    assert (ev["r9"], ev["r18"]) == (73, 19)
    # 73 is isolated, so it serves as the witness for every other prime
    assert set(ev["witness"].values()) == {73}
    assert sorted(int(k) for k in ev["witness"]) == [3, 5, 7, 11, 13, 17, 31, 43, 127]
    # odd q: the vertex 2 is exempt, everything else still has a witness
    r = run_claim("C7", {"q": 3})
    assert r.verdict == "pass"
    assert "2" not in r.evidence["witness"]
    assert None not in r.evidence["witness"].values()
    with pytest.raises(ValueError):
        run_claim("C7", {"q": 6})


def test_c12_gap_bookkeeping():
    r = run_claim("C12", {"q_max": 3, "n_max": 7})
    assert r.verdict == "pass"
    assert r.evidence["gaps"] == [[2, 6]]
    assert r.evidence["checked"] == 10


def test_c8_small_instance():
    r = run_claim("C8", {"n": 2, "q": 2})
    assert r.verdict == "pass"
    assert r.evidence["formula"] == [3, 5]
    assert r.evidence["oracle"] == [3, 5]


def test_c9_small_instances():
    r = run_claim("C9", {"q": 2})
    assert r.verdict == "pass"
    assert r.evidence["m"] == 3
    # 6 = 2*3 sits in the spectrum, so literal divisor-maximality fails at q = 2
    # while the prime-multiple form holds
    assert r.evidence["literal_multiples"] == [6]
    r = run_claim("C9", {"q": 3})
    assert r.verdict == "pass"
    assert r.evidence["m"] == 4
    assert r.evidence["blocked"] == {"2": True, "5": True}
    assert r.evidence["literal_multiples"] == [12]


def test_c13_isolated_and_not():
    r = run_claim("C13", {"group": "C(2,3)s", "zorder": 4})
    assert r.verdict == "pass"
    assert r.evidence["r"] == 5
    assert r.evidence["vertices"] == [2, 3, 5]
    assert r.evidence["edges"] == [[2, 3]]
    # same machinery reports an honest fail when the prime is not isolated
    r = run_claim("C13", {"group": "C(3,2)u", "zorder": 4})
    assert r.verdict == "fail"
    assert r.evidence["neighbors_of_r"] == [2, 3]


def test_c14_cross_characteristic_model():
    r = run_claim("C14", {"model": "sym6-mod3"})
    assert r.verdict == "pass"
    assert r.evidence["target"] == 12
    assert r.evidence["in_cover"] and not r.evidence["in_group"]
    assert r.evidence["min_poly_degree"] == 4


def test_c15_witness_instances():
    r = run_claim("C15", {"kind": "sl-hyperplane", "args": [3, 3]})
    assert r.verdict == "pass"
    assert (r.evidence["kernel_order"], r.evidence["complement_order"]) == (9, 8)
    # the determinant twist cuts the complement to the part coprime to gcd(n, q-1)
    r = run_claim("C15", {"kind": "sl-hyperplane", "args": [3, 4]})
    assert r.verdict == "pass"
    assert (r.evidence["kernel_order"], r.evidence["complement_order"]) == (16, 5)
    r = run_claim("C15", {"kind": "gl-affine", "args": [3, 2]})
    assert r.verdict == "pass"
    assert (r.evidence["kernel_order"], r.evidence["complement_order"]) == (9, 8)
    with pytest.raises(ValueError):
        run_claim("C15", {"kind": "so-what", "args": [3, 2]})


def test_results_are_deterministic_json():
    once = [run_claim("C1", {"q": 8}), run_claim("C8", {"n": 2, "q": 2})]
    twice = [run_claim("C1", {"q": 8}), run_claim("C8", {"n": 2, "q": 2})]
    for a, b in zip(once, twice):
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(b.as_dict(), sort_keys=True)


def test_suite_id_selection_keeps_catalog_order():
    results = run_suite(["C12", "C2"])
    assert [r.claim_id for r in results] == ["C2", "C12"]
    assert run_suite("") == []


def test_result_shape():
    r = run_claim("C2", {"q_lo": 2, "q_hi": 50})
    assert isinstance(r, ClaimResult)
    d = r.as_dict()
    assert sorted(d) == ["evidence", "id", "params", "verdict"]
    assert d["id"] == "C2" and d["verdict"] == "pass"


@pytest.mark.parametrize("claim_id, params, spec", [
    ("C6", {"n": 2, "q": 2}, "C(2,2)u"), ("C4", {"q": 4}, "C(2,4)u")])
def test_one_group_build_per_claim(claim_id, params, spec):
    """The witness search, the semidirect count and the spectrum table of a
    claim share one universal group: one generator search and one
    elimination of its generators (three and two without the memo)."""
    matgroup._universal.cache_clear()
    with mock.patch.object(matgroup, "_sp_generators", wraps=matgroup._sp_generators) as search, \
            mock.patch.object(matgroup, "_eliminate", wraps=matgroup._eliminate) as elim:
        assert run_claim(claim_id, params).verdict == "pass"
    gens = classical_generators(spec).generators
    assert search.call_count == 1
    assert sum(np.array_equal(call.args[1], gens) for call in elim.call_args_list) == 1
