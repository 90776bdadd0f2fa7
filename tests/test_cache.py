import json
import re

import pytest

from omega.groups import parse_group_spec
from omega.oracle import (
    cached_spectrum_table,
    enumerate_group,
    load_table,
    permutation_module,
    save_table,
    spectrum_table,
)
from omega.oracle.cache import cache_paths
from omega.oracle.kernel import _Packed, _U64Codec, _VoidCodec, _Wide, _kernel, _make_codec
from omega.oracle.matgroup import _TABLE_MEMO, _classes, classical_generators


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
            load_table(tmp_path, "A(1,4)u", 1 << 24, group)
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
            load_table(tmp_path, "A(1,4)u", 1 << 24, group)
    finally:
        restore_memo(saved)


def test_cache_sidecar_histogram_breaking_frobenius(tmp_path):
    saved = fresh_memo()
    try:
        cached_spectrum_table("A(1,4)u", cache_dir=tmp_path)
        tbl, sidecar = cache_paths(tmp_path, "A(1,4)u", 1 << 24)
        group = classical_generators(parse_group_spec("A(1,4)u"))

        # same size and spectrum, one element moved from order 5 to order 3
        meta = json.loads(sidecar.read_text())
        assert meta["order_histogram"] == {"1": 1, "2": 15, "3": 20, "5": 24}
        meta["order_histogram"].update({"3": 21, "5": 23})
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="not a multiple of 3"):
            load_table(tmp_path, "A(1,4)u", 1 << 24, group)
    finally:
        restore_memo(saved)


def test_load_missing_returns_none(tmp_path):
    group = classical_generators(parse_group_spec("A(1,2)u"))
    assert load_table(tmp_path, "A(1,2)u", 1 << 24, group) is None


def test_quotient_tables_never_cached(tmp_path):
    table = spectrum_table(parse_group_spec("A(1,5)s"))
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


def test_bare_load_matches_a_fresh_enumeration(tmp_path):
    saved = fresh_memo()
    try:
        group = classical_generators(parse_group_spec("A(2,3)u"))
        fresh = enumerate_group(group)
        save_table(fresh, tmp_path, "A(2,3)u", 1 << 24)
        loaded = load_table(tmp_path, "A(2,3)u", 1 << 24, group)
        assert loaded is not fresh and (loaded.payload.keys == fresh.payload.keys).all()
        assert (loaded.orders() == fresh.orders()).all()
        got, want = _classes(loaded.payload), _classes(fresh.payload)
        assert all((a == b).all() for a, b in zip(got, want))
    finally:
        restore_memo(saved)


def _sym6_mod3():
    """The module group of claim C14: Sym6 permuting GF(3)^6 (raw byte keys)."""
    return permutation_module([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], 3).image_group


def _sym4_mod9():
    """Sym4 permuting GF(9)^4: 64-bit keys, but too wide a row to pack."""
    return permutation_module([(1, 0, 2, 3), (1, 2, 3, 0)], 9).image_group


# packed words over GF(2^k) and GF(9), a code stack with uint64 keys, and one
# with raw byte keys
@pytest.mark.parametrize("name, make, kernel, codec", [
    ("A(2,4)u", lambda: classical_generators("A(2,4)u"), _Packed, _U64Codec),
    ("2A(2,3)u", lambda: classical_generators("2A(2,3)u"), _Packed, _U64Codec),
    ("sym4-mod9", _sym4_mod9, _Wide, _U64Codec),
    ("sym6-mod3", _sym6_mod3, _Wide, _VoidCodec),
], ids=["A(2,4)u", "2A(2,3)u", "sym4-mod9", "sym6-mod3"])
def test_save_load_save_writes_the_same_files(name, make, kernel, codec, tmp_path):
    saved = fresh_memo()
    try:
        group = make()
        assert type(_kernel(group.field, group.dim)) is kernel
        assert type(_make_codec(group.field, group.dim)) is codec
        table = enumerate_group(group)
        save_table(table, tmp_path / "first", name, 1 << 24)
        # the body is the sorted keys as they are in memory
        keys = table.payload.keys
        body = cache_paths(tmp_path / "first", name, 1 << 24)[0].read_bytes()[-keys.nbytes:]
        assert body == keys.tobytes()
        loaded = load_table(tmp_path / "first", name, 1 << 24, group)
        save_table(loaded, tmp_path / "second", name, 1 << 24)
        for a, b in zip(cache_paths(tmp_path / "first", name, 1 << 24),
                        cache_paths(tmp_path / "second", name, 1 << 24)):
            assert a.read_bytes() == b.read_bytes()
    finally:
        restore_memo(saved)


def _cache_files(tmp_path, name, group):
    save_table(enumerate_group(group), tmp_path, name, 1 << 24)
    return cache_paths(tmp_path, name, 1 << 24)


# each sets bits of the greatest key, which stays the greatest: its last
# 2-bit entry over GF(3) to 3, a bit above its 32 bits of entries, and its
# last code byte over GF(3) to 3
@pytest.mark.parametrize("name, make, at, bits", [
    ("C(2,3)u", lambda: classical_generators("C(2,3)u"), -8, 0x03),
    ("C(2,3)u", lambda: classical_generators("C(2,3)u"), -1, 0x80),
    ("sym6-mod3", _sym6_mod3, -1, 0x03),
], ids=["packed-entry-3", "packed-high-bit", "byte-entry-3"])
def test_sorted_non_keys_are_rejected(name, make, at, bits, tmp_path):
    saved = fresh_memo()
    try:
        group = make()
        tbl, _ = _cache_files(tmp_path, name, group)
        raw = bytearray(tbl.read_bytes())
        raw[at] |= bits
        tbl.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not keys of matrices"):
            load_table(tmp_path, name, 1 << 24, group)
    finally:
        restore_memo(saved)


# an entry equal to q at each entry position of the greatest key: raising an
# entry keeps that key the greatest, so the body stays sorted
@pytest.mark.parametrize("name", ["C(2,3)u", "2A(2,3)u"])
def test_an_entry_equal_to_q_is_rejected_at_every_position(name, tmp_path):
    saved = fresh_memo()
    try:
        group = classical_generators(name)
        tbl, _ = _cache_files(tmp_path, name, group)
        raw, q = tbl.read_bytes(), group.field.q
        bits, last = (q - 1).bit_length(), int.from_bytes(raw[-8:], "little")
        for at in range(0, bits * group.dim ** 2, bits):
            key = last & ~(((1 << bits) - 1) << at) | q << at
            tbl.write_bytes(raw[:-8] + key.to_bytes(8, "little"))
            with pytest.raises(ValueError, match="not keys of matrices"):
                load_table(tmp_path, name, 1 << 24, group)
    finally:
        restore_memo(saved)


def test_older_format_is_named(tmp_path):
    group = classical_generators("A(1,4)u")
    tbl, _ = _cache_files(tmp_path, "A(1,4)u", group)
    tbl.write_bytes(b"OMEGA1" + tbl.read_bytes()[6:])
    with pytest.raises(ValueError, match="bad magic .*older format"):
        load_table(tmp_path, "A(1,4)u", 1 << 24, group)


def _drop_histogram(raw):
    meta = json.loads(raw)
    del meta["order_histogram"]
    return json.dumps(meta).encode()


# a table cut inside its header, one whose spec is not UTF-8, a sidecar
# without a histogram, and one that is a list
@pytest.mark.parametrize("which, spoil, message", [
    (0, lambda raw: raw[:20], "truncated header"),
    (0, lambda raw: raw[:10] + b"\xff" + raw[11:], "stores"),
    (1, _drop_histogram, "malformed sidecar"),
    (1, lambda raw: json.dumps(list(json.loads(raw))).encode(), "malformed sidecar"),
], ids=["header-cut", "spec-not-utf8", "no-histogram", "sidecar-list"])
def test_malformed_cache_files_raise_value_error(which, spoil, message, tmp_path):
    group = classical_generators("A(1,4)u")
    path = _cache_files(tmp_path, "A(1,4)u", group)[which]
    path.write_bytes(spoil(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_table(tmp_path, "A(1,4)u", 1 << 24, group)


def test_no_cache_dir_means_no_files(tmp_path):
    out = cached_spectrum_table("A(1,2)u", cache_dir=None)
    assert out.size == 6
    assert list(tmp_path.iterdir()) == []
