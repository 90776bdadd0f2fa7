import json

import pytest

from omega.groups import parse_group_spec
from omega.oracle import cached_spectrum_table, load_table, save_table, spectrum_table
from omega.oracle.cache import cache_paths
from omega.oracle.matgroup import _TABLE_MEMO, classical_generators


def fresh_memo():
    saved = dict(_TABLE_MEMO)
    _TABLE_MEMO.clear()
    return saved


def restore_memo(saved):
    _TABLE_MEMO.clear()
    _TABLE_MEMO.update(saved)


def test_cache_round_trip(tmp_path):
    saved = fresh_memo()
    try:
        cold = cached_spectrum_table("A(1,4)u", cache_dir=tmp_path)
        tbl, sidecar = cache_paths(tmp_path, "A(1,4)u", 1 << 24)
        assert tbl.exists() and sidecar.exists()
        meta = json.loads(sidecar.read_text())
        assert meta["size"] == 60
        assert meta["spectrum"] == [1, 2, 3, 5]

        _TABLE_MEMO.clear()
        warm = cached_spectrum_table("A(1,4)u", cache_dir=tmp_path)
        assert warm.size == cold.size == 60
        assert warm.order_histogram == cold.order_histogram
        assert warm.spectrum == cold.spectrum
        # orders are dropped on disk and recomputed lazily
        assert sorted(set(warm.orders().tolist())) == [1, 2, 3, 5]
    finally:
        restore_memo(saved)


def test_cache_file_names(tmp_path):
    tbl, sidecar = cache_paths(tmp_path, "2A(2,3)u", 1 << 24)
    assert tbl.name == "2A_2_3_u.cap16777216.tbl"
    assert sidecar.name == "2A_2_3_u.cap16777216.json"


def test_simple_version_reuses_universal_cache(tmp_path):
    saved = fresh_memo()
    try:
        cached_spectrum_table("A(1,5)u", cache_dir=tmp_path)
        _TABLE_MEMO.clear()
        simple = cached_spectrum_table("A(1,5)s", cache_dir=tmp_path)
        assert simple.size == 60
        assert simple.spectrum == (1, 2, 3, 5)
        # only the universal enumeration lands on disk
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["A_1_5_u.cap16777216.json", "A_1_5_u.cap16777216.tbl"]
    finally:
        restore_memo(saved)


def test_cache_tamper_detected(tmp_path):
    saved = fresh_memo()
    try:
        cached_spectrum_table("A(1,4)u", cache_dir=tmp_path)
        tbl, sidecar = cache_paths(tmp_path, "A(1,4)u", 1 << 24)
        group = classical_generators(parse_group_spec("A(1,4)u"))

        raw = bytearray(tbl.read_bytes())
        raw[-1] ^= 0x05
        tbl.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_table(tmp_path, "A(1,4)u", 1 << 24, group.field, group.dim)
    finally:
        restore_memo(saved)


def test_cache_sidecar_disagreement(tmp_path):
    saved = fresh_memo()
    try:
        cached_spectrum_table("A(1,4)u", cache_dir=tmp_path)
        tbl, sidecar = cache_paths(tmp_path, "A(1,4)u", 1 << 24)
        group = classical_generators(parse_group_spec("A(1,4)u"))

        meta = json.loads(sidecar.read_text())
        meta["size"] = 61
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_table(tmp_path, "A(1,4)u", 1 << 24, group.field, group.dim)
    finally:
        restore_memo(saved)


def test_load_missing_returns_none(tmp_path):
    group = classical_generators(parse_group_spec("A(1,2)u"))
    assert load_table(tmp_path, "A(1,2)u", 1 << 24, group.field, group.dim) is None


def test_quotient_tables_never_cached(tmp_path):
    table = spectrum_table(parse_group_spec("A(1,5)s"))
    if table.payload.get("quotient_by") is None:
        pytest.skip("simple table came back without quotient marking")
    with pytest.raises(ValueError):
        save_table(table, tmp_path, "A(1,5)s", 1 << 24)


def test_cached_table_over_the_cap_raises(tmp_path):
    saved = fresh_memo()
    try:
        # a file named for cap 10 that holds all 60 elements of SL2(4)
        save_table(spectrum_table("A(1,4)u"), tmp_path, "A(1,4)u", 10)
        _TABLE_MEMO.clear()
        with pytest.raises(ValueError, match="exceeds the cap"):
            cached_spectrum_table("A(1,4)u", cap=10, cache_dir=tmp_path)
    finally:
        restore_memo(saved)


def test_loaded_table_without_its_group_names_the_loader(tmp_path):
    saved = fresh_memo()
    try:
        cached_spectrum_table("A(1,4)u", cache_dir=tmp_path)
        group = classical_generators(parse_group_spec("A(1,4)u"))
        loaded = load_table(tmp_path, "A(1,4)u", 1 << 24, group.field, group.dim)
        with pytest.raises(ValueError, match="cached_spectrum_table"):
            loaded.orders()
    finally:
        restore_memo(saved)


def test_no_cache_dir_means_no_files(tmp_path):
    out = cached_spectrum_table("A(1,2)u", cache_dir=None)
    assert out.size == 6
    assert list(tmp_path.iterdir()) == []
