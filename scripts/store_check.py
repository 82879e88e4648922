#!/usr/bin/env python3
"""Validate an ``aide-view/1`` columnar dataset file.

An independent, stdlib-only re-implementation of the format contract in
``crates/data/src/store.rs`` (specified in ``ARCHITECTURE.md``), so a
file the Rust writer produces is checked by a second decoder that shares
none of its code:

    magic      12 bytes  b"aide-view/1\\n"
    dims       u32 LE    1 ..= 1024
    n          u64 LE    row count, <= 2**32 - 1 (row ids are u32)
    per dim:   name_len u16 LE, name (UTF-8, <= 4096 bytes),
               lo f64 bit pattern (u64 LE), hi f64 bit pattern (u64 LE)
               -- bounds finite, lo <= hi
    lanes      dims x n f64 bit patterns (u64 LE), lane-major
               -- every value in the normalized domain [0, 100]
                  (so no NaN, no +/-inf)
    row_ids    n u32 LE
    (exact EOF -- trailing bytes are an error)

Exit 0 and a one-line shape summary per file when everything holds;
exit 1 with the first violation otherwise.

Self-test
---------

``--self-test`` builds a tiny valid file in memory plus corrupted
variants (bad magic, zero dims, inverted domain, NaN bound, row count
beyond the u32 row-id range, NaN lane value, out-of-domain lane value,
truncated lane, trailing garbage) and asserts the checker accepts
exactly the valid one. CI runs it before validating real files so a
broken checker cannot wave malformed datasets through.
"""

from __future__ import annotations

import argparse
import array
import io
import math
import struct
import sys
from pathlib import Path

MAGIC = b"aide-view/1\n"
MAX_DIMS = 1 << 10
MAX_NAME_LEN = 1 << 12
MAX_ROWS = (1 << 32) - 1


class FormatError(Exception):
    pass


def _take(buf: io.BufferedIOBase, size: int, what: str) -> bytes:
    data = buf.read(size)
    if len(data) != size:
        raise FormatError(f"truncated while reading {what}")
    return data


def _first_out_of_domain(values):
    """Index of the first value outside [0, 100] (NaN and infinities
    included) in `values`, else None. A finite sum proves there is no NaN,
    and then min and max bound every value, so the per-value scan runs
    only when a chunk is bad (or its finite sum overflows)."""
    if (not values or math.isfinite(sum(values))
            and min(values) >= 0.0 and max(values) <= 100.0):
        return None
    return next((i for i, v in enumerate(values) if not 0.0 <= v <= 100.0),
                None)


def validate(buf: io.BufferedIOBase):
    """Checks one aide-view/1 stream; returns (dims, n, names, domains)."""
    if _take(buf, len(MAGIC), "magic") != MAGIC:
        raise FormatError("bad magic (not an aide-view/1 file)")
    (dims,) = struct.unpack("<I", _take(buf, 4, "dims"))
    if not 1 <= dims <= MAX_DIMS:
        raise FormatError(f"dims {dims} out of range [1, {MAX_DIMS}]")
    (n,) = struct.unpack("<Q", _take(buf, 8, "row count"))
    if n > MAX_ROWS:
        raise FormatError(f"row count {n} exceeds the u32 row-id range")
    names, domains = [], []
    for d in range(dims):
        (name_len,) = struct.unpack("<H", _take(buf, 2, f"name length {d}"))
        if name_len > MAX_NAME_LEN:
            raise FormatError(f"attribute name {d} length {name_len} > {MAX_NAME_LEN}")
        raw = _take(buf, name_len, f"attribute name {d}")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"attribute name {d} is not UTF-8") from None
        lo_bits, hi_bits = struct.unpack("<QQ", _take(buf, 16, f"domain {d}"))
        lo = struct.unpack("<d", struct.pack("<Q", lo_bits))[0]
        hi = struct.unpack("<d", struct.pack("<Q", hi_bits))[0]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise FormatError(f"domain {d} [{lo}, {hi}] is not a finite ordered range")
        domains.append((lo, hi))
    for d in range(dims):
        # Streamed in chunks; every value must lie in [0, 100].
        row = 0
        remaining = n * 8
        while remaining:
            step = min(remaining, 1 << 20)
            values = array.array("d", _take(buf, step, f"lane {d}"))
            if sys.byteorder != "little":
                values.byteswap()
            bad = _first_out_of_domain(values)
            if bad is not None:
                raise FormatError(
                    f"lane {d} ({names[d]!r}) holds value {values[bad]} "
                    f"outside [0, 100] at row {row + bad}")
            row += len(values)
            remaining -= step
    remaining = n * 4
    while remaining:
        step = min(remaining, 1 << 20)
        _take(buf, step, "row ids")
        remaining -= step
    if buf.read(1):
        raise FormatError("trailing garbage after row ids")
    return dims, n, names, domains


def check_file(path: Path) -> int:
    try:
        with open(path, "rb") as fh:
            dims, n, names, domains = validate(fh)
    except OSError as e:
        print(f"{path}: cannot read: {e}", file=sys.stderr)
        return 1
    except FormatError as e:
        print(f"{path}: invalid aide-view file: {e}", file=sys.stderr)
        return 1
    lanes = ", ".join(
        f"{name} in [{lo:g}, {hi:g}]" for name, (lo, hi) in zip(names, domains)
    )
    print(f"{path}: ok — {n} rows x {dims} lanes ({lanes})")
    return 0


def build_sample(dims=2, n=5) -> bytes:
    """A minimal valid file, the reference for the self-test corruptions."""
    out = bytearray(MAGIC)
    out += struct.pack("<I", dims)
    out += struct.pack("<Q", n)
    for d in range(dims):
        name = f"a{d}".encode()
        out += struct.pack("<H", len(name)) + name
        out += struct.pack("<QQ", *(struct.unpack("<Q", struct.pack("<d", v))[0]
                                    for v in (0.0, 100.0)))
    for d in range(dims):
        for i in range(n):
            out += struct.pack("<d", float(d * n + i))
    for i in range(n):
        out += struct.pack("<I", i)
    return bytes(out)


def self_test() -> int:
    sample = build_sample()
    try:
        dims, n, names, _ = validate(io.BytesIO(sample))
        assert (dims, n, names) == (2, 5, ["a0", "a1"]), (dims, n, names)
    except FormatError as e:
        print(f"self-test FAILED: valid sample rejected: {e}", file=sys.stderr)
        return 1

    def corrupt(label, mutate, reason=""):
        """None when the mutated file is rejected (for `reason`, if given)."""
        data = bytearray(sample)
        mutate(data)
        try:
            validate(io.BytesIO(bytes(data)))
        except FormatError as e:
            return None if reason in str(e) else label
        return label

    nan_bits = struct.unpack("<Q", struct.pack("<d", math.nan))[0]
    domain0 = len(MAGIC) + 4 + 8 + 2 + 2  # after name "a0"
    lane0 = len(MAGIC) + 4 + 8 + 2 * (2 + 2 + 16)  # after both attribute headers
    cases = [
        ("bad magic", lambda d: d.__setitem__(0, d[0] ^ 0xFF)),
        ("zero dims", lambda d: d.__setitem__(slice(12, 16), struct.pack("<I", 0))),
        ("absurd dims", lambda d: d.__setitem__(slice(12, 16), struct.pack("<I", MAX_DIMS + 1))),
        # Rejected from the header alone, not as a truncated lane.
        ("row count beyond u32", lambda d: d.__setitem__(
            slice(16, 24), struct.pack("<Q", 1 << 40)), "row count"),
        ("inverted domain", lambda d: d.__setitem__(
            slice(domain0, domain0 + 16),
            d[domain0 + 8:domain0 + 16] + d[domain0:domain0 + 8])),
        ("nan bound", lambda d: d.__setitem__(
            slice(domain0, domain0 + 8), struct.pack("<Q", nan_bits))),
        # Lane 1, row 2 (the sample holds 2 lanes of 5 rows).
        ("nan lane value", lambda d: d.__setitem__(
            slice(lane0 + 8 * 7, lane0 + 8 * 8), struct.pack("<Q", nan_bits)),
            "value nan outside [0, 100] at row 2"),
        # Lane 0, row 3: finite but past the normalized domain.
        ("out-of-domain lane value", lambda d: d.__setitem__(
            slice(lane0 + 8 * 3, lane0 + 8 * 4), struct.pack("<d", 150.0)),
            "value 150.0 outside [0, 100] at row 3"),
        ("truncated lane", lambda d: d.__delitem__(slice(len(d) - 30, len(d)))),
        ("trailing garbage", lambda d: d.extend(b"\x00")),
    ]
    accepted = [label for label, *case in cases if corrupt(label, *case)]
    if accepted:
        print(f"self-test FAILED: corrupt files accepted: {accepted}", file=sys.stderr)
        return 1
    print(f"self-test ok: valid sample accepted, {len(cases)} corruptions rejected")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", type=Path, help="aide-view/1 files to validate")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the checker itself rejects corrupted files")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.files:
        ap.error("give at least one file to validate (or --self-test)")
    sys.exit(max(check_file(p) for p in args.files))


if __name__ == "__main__":
    main()
