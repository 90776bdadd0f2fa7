"""Optional on-disk cache for enumerated tables: binary keys + JSON sidecar."""

import json
import struct
from pathlib import Path

import numpy as np

from ..groups import parse_group_spec
from .kernel import _are_keys, _kernel
from .matgroup import (DEFAULT_CAP, ElementTable, GroupRecord, _TABLE_MEMO, _memoize,
                       _version_table, classical_generators, spectrum_table)

MAGIC = b"OMEGA2"


def _stem(spec_str, cap):
    safe = "".join(ch if ch.isalnum() else "_" for ch in spec_str)
    return f"{safe}.cap{cap}"


def cache_paths(cache_dir, spec_str, cap):
    stem = _stem(spec_str, cap)
    return Path(cache_dir) / (stem + ".tbl"), Path(cache_dir) / (stem + ".json")


def save_table(table, cache_dir, spec_str, cap):
    rec = table.payload
    if not isinstance(rec, GroupRecord):
        raise ValueError("only directly enumerated tables are cached, not quotients")
    fld = rec.field
    spec_b = spec_str.encode()
    head = [
        MAGIC,
        struct.pack("<I", len(spec_b)),
        spec_b,
        struct.pack("<III", fld.p, fld.k, len(fld.modulus)),
        struct.pack(f"<{len(fld.modulus)}I", *fld.modulus),
        struct.pack("<IQ", rec.dim, table.size),
    ]
    tbl_path, json_path = cache_paths(cache_dir, spec_str, cap)
    tbl_path.parent.mkdir(parents=True, exist_ok=True)
    with tbl_path.open("wb") as fh:
        fh.writelines(head)
        fh.write(rec.keys.astype(rec.keys.dtype.newbyteorder("<"), copy=False).data)
    sidecar = {
        "spec": spec_str,
        "cap": cap,
        "size": table.size,
        "order_histogram": {str(k): v for k, v in sorted(table.order_histogram.items())},
        "spectrum": list(table.spectrum),
    }
    json_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
    return tbl_path


def load_table(cache_dir, spec_str, cap, group):
    """Rebuild the table of group (a MatrixGroup) from cache; None when
    absent, ValueError when malformed or holding more than cap elements."""
    fld, dim = group.field, group.dim
    tbl_path, json_path = cache_paths(cache_dir, spec_str, cap)
    if not tbl_path.exists() or not json_path.exists():
        return None
    raw = tbl_path.read_bytes()
    if raw[:6] != MAGIC:
        raise ValueError(f"{tbl_path}: bad magic {raw[:6]!r}, not {MAGIC!r}: a file of "
                         "an older format must be deleted")
    try:
        (slen,) = struct.unpack_from("<I", raw, 6)
        p, k, modlen = struct.unpack_from("<III", raw, 10 + slen)
        *mod, got_dim, count = struct.unpack_from(f"<{modlen}IIQ", raw, 22 + slen)
    except struct.error:
        raise ValueError(f"{tbl_path}: truncated header") from None
    got_spec, off = raw[10:10 + slen].decode(errors="replace"), 34 + slen + 4 * modlen
    if got_spec != spec_str:
        raise ValueError(f"{tbl_path}: stores {got_spec!r}, wanted {spec_str!r}")
    if (p, k, tuple(mod)) != (fld.p, fld.k, fld.modulus):
        raise ValueError(f"{tbl_path}: field mismatch")
    if got_dim != dim:
        raise ValueError(f"{tbl_path}: dimension mismatch")
    if count > cap:
        raise ValueError(f"{tbl_path}: cached table of {count} elements exceeds the cap {cap}")
    dtype = _kernel(fld, dim).codec.one.dtype
    if len(raw) - off != count * dtype.itemsize:
        raise ValueError(f"{tbl_path}: truncated body")
    keys = np.frombuffer(raw, dtype.newbyteorder("<"), offset=off).astype(dtype, copy=False)
    if not _are_keys(fld, dim, keys):
        raise ValueError(f"{tbl_path}: keys not strictly sorted, or not keys of matrices")
    try:
        side = json.loads(json_path.read_text())
        hist = {int(m): int(c) for m, c in side["order_histogram"].items()}
    except (LookupError, TypeError, AttributeError, ValueError) as e:
        raise ValueError(f"{json_path}: malformed sidecar ({e!r})") from None
    if side.get("size") != count:
        raise ValueError(f"{json_path}: size disagrees with binary table")
    return ElementTable(
        size=int(count),
        order_histogram=hist,
        spectrum=tuple(sorted(hist)),
        payload=GroupRecord(fld, dim, keys, group.generators, group.inverses),
    )


def cached_spectrum_table(spec, cap=DEFAULT_CAP, cache_dir=None):
    """spectrum_table with a read-through cache of the universal enumeration."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if cache_dir is None:
        return spectrum_table(spec, cap)
    # one group, built and eliminated once, serves the load and the table
    group = classical_generators(spec)
    uni = str(group.name)
    if group.key() not in _TABLE_MEMO:
        loaded = load_table(cache_dir, uni, cap, group)
        if loaded is not None:
            _memoize(group, loaded, cap)
    out = _version_table(group, spec.version, cap)
    # a memo warmed by a cache-less call still owes the directory its files
    if not cache_paths(cache_dir, uni, cap)[0].exists():
        save_table(_TABLE_MEMO.get(group.key()), cache_dir, uni, cap)
    return out
