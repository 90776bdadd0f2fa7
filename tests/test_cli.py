"""Front-end behavior: exit codes, JSON determinism, flag plumbing."""

import json
import re

import pytest

from omega.cli import main
from omega.oracle import classical_generators, enumerate_group
from omega.oracle.matgroup import _TABLE_MEMO
from omega.spectra import e6_semisimple_spectrum


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_spectrum_example(capsys):
    rc, out, err = run(capsys, ["spectrum", "--group", "E6(2)u", "--eps", "+", "--json"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    want = [int(g) for g in e6_semisimple_spectrum(2, "+").generators]
    assert payload["generators"] == want
    assert payload["scope"] == "p_prime_only"


def test_json_is_byte_identical(capsys):
    argv = ["prime-graph", "--group", "3D4(2)s", "--json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_zsigmondy_gap_and_hit(capsys):
    rc, out, _ = run(capsys, ["zsigmondy", "--q", "2", "--n", "6", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["r"] is None and payload["note"]
    rc, out, _ = run(capsys, ["zsigmondy", "--q", "2", "--n", "4", "--json"])
    assert json.loads(out)["r"] == 5


def test_usage_errors_exit_2(capsys):
    # argparse rejections and our own ValueErrors share the exit code
    assert run(capsys, ["enumerate", "--group", "A(1,4)u", "--frobnicate"])[0] == 2
    rc, _, err = run(capsys, ["spectrum", "--group", "bogus"])
    assert rc == 2 and "group grammar" in err
    assert run(capsys, ["spectrum", "--group", "2E6(2)s", "--eps", "+"])[0] == 2
    assert run(capsys, ["zsigmondy", "--q", "2"])[0] == 2


def test_version_guard(capsys):
    # E6(2): gcd(3, q-1) = 1 so both versions carry the same descriptor
    assert run(capsys, ["spectrum", "--group", "E6(2)u"])[0] == 0
    rc, _, err = run(capsys, ["spectrum", "--group", "E6(4)u"])
    assert rc == 2 and "center of order 3" in err
    rc, _, err = run(capsys, ["spectrum", "--group", "C(2,3)s"])
    assert rc == 2 and "universal version" in err
    assert run(capsys, ["spectrum", "--group", "E7(2)s"])[0] == 0


def test_twisted_e6_guard_reads_the_twisted_center(capsys):
    # E6(q) --eps - is the twisted group 2E6(q), whose universal and simple
    # versions differ by a center of order gcd(3, q + 1), not gcd(3, q - 1);
    # an accepted run names the twisted group
    for q in (2, 3, 4, 5):
        for cmd, version in (("spectrum", "u"), ("prime-graph", "u"), ("spectrum", "s")):
            twisted = run(capsys, [cmd, "--group", f"2E6({q}){version}", "--json"])
            rc, out, err = run(capsys, [cmd, "--group", f"E6({q}){version}", "--eps", "-",
                                        "--json"])
            assert rc == twisted[0] == (0 if (q + 1) % 3 or version == "s" else 2)
            if rc:
                assert "center of order 3" in err and out == ""
                continue
            assert out == twisted[1]
            assert json.loads(out)["group"] == f"2E6({q}){version}"
            if cmd == "spectrum":
                want = [int(g) for g in e6_semisimple_spectrum(q, "-").generators]
                assert json.loads(out)["generators"] == want


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["spectrum", "--help"])[0] == 0


def test_enumerate_small(capsys):
    rc, out, _ = run(capsys, ["enumerate", "--group", "A(1,4)u", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["size"] == 60
    assert payload["order_histogram"] == [[1, 1], [2, 15], [3, 20], [5, 24]]


def test_enumerate_cap_abort(capsys, monkeypatch):
    # as in a fresh process no table is known, so the closure aborts and
    # says how far it got: the cosets named, |H|, and the closed-form order
    # of the universal group it was enumerating
    monkeypatch.setattr("omega.oracle.matgroup._TABLE_MEMO", {})
    for argv, order in ((["--group", "C(3,3)u"], "C(3,3)u has order 9170703360"),
                        (["--json", "--group", "A(2,4)u"], "A(2,4)u has order 60480"),
                        (["--json", "--group", "A(2,4)s"], "A(2,4)u has order 60480"),
                        (["--json", "--group", "2A(3,8)u"], "2A(3,8)u has order 34693789777920")):
        rc, out, err = run(capsys, ["enumerate", "--cap", "1000", *argv])
        assert rc == 1 and out == ""
        aborted, universal = err.splitlines()
        m = re.fullmatch(r"enumeration aborted: enumeration exceeded cap 1000: at least (\d+) "
                         r"elements found \((\d+) cosets of a subgroup of order (\d+)\)", aborted)
        found, cosets, subgroup = map(int, m.groups())
        assert 1000 < found <= cosets * subgroup and found <= 1000 + 4096
        assert universal == f"the universal group {order}"
        assert int(order.split()[-1]) % subgroup == 0


def test_cap_below_one_is_a_usage_error(capsys):
    for sub in ("enumerate", "semidirect"):
        for cap in ("0", "-5"):
            rc, out, err = run(capsys, [sub, "--group", "A(1,4)u", "--cap", cap])
            assert rc == 2 and out == "" and "--cap" in err and "at least 1" in err
    group = classical_generators("A(1,4)u")
    for cap in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_group(group, cap)


def test_enumerate_truncated_cache_header_exits_2(capsys, tmp_path):
    argv = ["enumerate", "--group", "A(1,4)u", "--json", "--cache", str(tmp_path)]
    tbl = tmp_path / "A_1_4_u.cap16777216.tbl"
    saved = dict(_TABLE_MEMO)
    _TABLE_MEMO.clear()
    try:
        assert run(capsys, argv)[0] == 0
        tbl.write_bytes(tbl.read_bytes()[:20])
        _TABLE_MEMO.clear()
        rc, out, err = run(capsys, argv)
    finally:
        _TABLE_MEMO.clear()
        _TABLE_MEMO.update(saved)
    assert rc == 2 and out == ""
    assert f"error: {tbl}: truncated header" in err


def test_semidirect(capsys):
    rc, out, _ = run(capsys, ["semidirect", "--group", "A(1,2)u", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["size"] == 24
    assert payload["added_orders"] == [4]


def test_frobenius_roundtrip(capsys):
    rc, out, _ = run(capsys, ["frobenius", "--group", "A(2,2)u", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["verified"]
    assert (payload["kernel_order"], payload["complement_order"]) == (4, 3)
    # the (n, q) = (2, 5) complement degenerates; that is a failure, not a crash
    rc, _, err = run(capsys, ["frobenius", "--group", "A(1,5)u"])
    assert rc == 1 and "degenerates" in err


def test_verify_by_id(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "C1", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert [r["verdict"] for r in payload["results"]] == ["pass"] * 4
    assert run(capsys, ["verify", "--suite", ","])[0] == 2


def test_verify_skipped_is_not_failure(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "skipped", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert {r["verdict"] for r in payload["results"]} == {"skipped"}


def test_order_subcommand(capsys):
    rc, out, _ = run(capsys, ["order", "--group", "C(2,2)u", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["order"] == 720
    assert "2^" in payload["factorization"]
