#!/usr/bin/env python3
"""Exercise a live ``aide serve`` endpoint over the ``aide-serve/1`` protocol.

A stdlib-only reference client for the wire protocol specified in
``PROTOCOL.md``: newline-delimited JSON over TCP, one request object per
line, one response object per line, a hello frame on connect.

Default run (``serve_check.py HOST:PORT``): drives two interleaved
sessions end to end — ``create`` with a fixed seed and a normalized
target rectangle, several ``label`` rounds with client-side labeling by
target membership, then ``result``, ``stats`` (asserting the shared
region cache shows cross-session hits) and ``close``. Exit 0 when every
exchange matches the protocol contract, exit 1 with a diagnostic
otherwise.

Self-test
---------

``--self-test HOST:PORT`` additionally fires the corruption cases of the
protocol's error table at the live server — bad JSON, missing/unsupported
version, unknown op, missing session, label-count mismatch, an oversized
frame, and a truncated frame dropped mid-line — asserting each draws the
documented typed error (or a clean close) and that the server keeps
serving afterwards. CI runs this against a freshly booted server so a
protocol regression cannot slip through unexercised.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys

PROTOCOL = "aide-serve/1"
TARGET = {"lo": [40.0, 55.0], "hi": [48.0, 63.0]}
MAX_FRAME = 1 << 20
# The region cache's byte budget, `SharedRegionCache::BUDGET_BYTES`.
CACHE_BUDGET = 64 << 20


class ProtocolError(Exception):
    pass


class Client:
    """One connection: line-framed JSON requests, hello consumed eagerly."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.reader = self.sock.makefile("rb")
        self.hello = self._read_frame()
        if self.hello.get("hello") != PROTOCOL:
            raise ProtocolError(f"unexpected hello frame: {self.hello}")

    def _read_frame(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ProtocolError("connection closed mid-exchange")
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as e:
            raise ProtocolError(f"response is not JSON: {e}") from None
        if not isinstance(frame, dict):
            raise ProtocolError(f"response is not an object: {frame!r}")
        return frame

    def send_raw(self, payload: bytes):
        self.sock.sendall(payload)

    def request(self, body: dict) -> dict:
        body = {"v": 1, **body}
        self.send_raw(json.dumps(body).encode() + b"\n")
        return self._read_frame()

    def expect_ok(self, body: dict) -> dict:
        reply = self.request(body)
        if reply.get("ok") is not True:
            raise ProtocolError(f"request {body} failed: {reply}")
        return reply

    def expect_error(self, body: dict, code: str) -> dict:
        reply = self.request(body)
        if reply.get("ok") is not False or reply.get("error") != code:
            raise ProtocolError(f"request {body} should draw `{code}`, got: {reply}")
        return reply

    def close(self):
        try:
            self.reader.close()
        finally:
            self.sock.close()


def relevant(point) -> bool:
    """Client-side labeling: membership in the normalized target."""
    return all(
        lo <= c <= hi for c, lo, hi in zip(point, TARGET["lo"], TARGET["hi"])
    )


def label_round(conn: Client, session: int, proposals) -> dict:
    labels = [relevant(p["point"]) for p in proposals]
    reply = conn.expect_ok({"op": "label", "session": session, "labels": labels})
    for key in ("iter", "new_samples", "total_labeled", "proposals"):
        if key not in reply:
            raise ProtocolError(f"label response misses `{key}`: {reply}")
    return reply


def run_sessions(host: str, port: int, rounds: int) -> int:
    """Two interleaved sessions over two connections; returns exit code."""
    conn_a, conn_b = Client(host, port), Client(host, port)
    dims = conn_a.hello.get("dims")
    if dims != len(TARGET["lo"]):
        print(
            f"dataset has {dims} dims, the built-in target has {len(TARGET['lo'])} "
            "(serve a 2-lane view)",
            file=sys.stderr,
        )
        return 1
    create = {"op": "create", "batch": 10, "target": [TARGET]}
    a = conn_a.expect_ok({**create, "seed": 1001})
    b = conn_b.expect_ok({**create, "seed": 2002})
    sid_a, sid_b = a["session"], b["session"]
    if sid_a == sid_b:
        raise ProtocolError("two creates returned the same session id")
    props_a, props_b = a["proposals"], b["proposals"]
    for _ in range(rounds):
        reply_a = label_round(conn_a, sid_a, props_a)
        reply_b = label_round(conn_b, sid_b, props_b)
        props_a, props_b = reply_a["proposals"], reply_b["proposals"]

    for conn, sid in ((conn_a, sid_a), (conn_b, sid_b)):
        result = conn.expect_ok({"op": "result", "session": sid})
        for key in ("iterations", "total_labeled", "relevant", "regions", "sql"):
            if key not in result:
                raise ProtocolError(f"result misses `{key}`: {result}")
        if not result["sql"].startswith("SELECT"):
            raise ProtocolError(f"predicted query is not SQL: {result['sql']!r}")

    stats = conn_a.expect_ok({"op": "stats"})
    if stats.get("proto") != PROTOCOL:
        raise ProtocolError(f"stats reports wrong protocol: {stats}")
    if stats.get("sessions_active", 0) < 2:
        raise ProtocolError(f"expected 2 live sessions: {stats}")
    if stats.get("cache_hits", 0) <= 0:
        raise ProtocolError(f"shared region cache shows no hits: {stats}")
    if not 0 < stats.get("cache_bytes", 0) <= CACHE_BUDGET:
        raise ProtocolError(f"cache_bytes outside (0, {CACHE_BUDGET}]: {stats}")

    traces = []
    for conn, sid in ((conn_a, sid_a), (conn_b, sid_b)):
        closed = conn.expect_ok({"op": "close", "session": sid})
        if "trace" in closed:
            traces.append(closed["trace"])
        conn.expect_error({"op": "result", "session": sid}, "no_session")
    conn_a.close()
    conn_b.close()
    print(
        f"ok: 2 sessions x {rounds} rounds, "
        f"{stats['cache_hits']} shared cache hits / {stats['cache_misses']} misses, "
        f"{stats['cache_bytes']} cache bytes"
    )
    for t in traces:
        print(f"trace: {t}")
    return 0


def self_test(host: str, port: int) -> int:
    """Corruption cases against a live server, mirroring PROTOCOL.md's
    error table the way store_check.py mirrors the view format."""
    conn = Client(host, port)

    def raw_case(payload: bytes, code: str | None, label: str):
        """Sends raw bytes on a fresh connection; expects an error frame
        with `code` (None = server just closes)."""
        c = Client(host, port)
        c.send_raw(payload)
        if code is None:
            c.sock.shutdown(socket.SHUT_WR)
            rest = c.reader.read()
            if rest:
                raise ProtocolError(f"{label}: expected silent close, got {rest!r}")
        else:
            reply = c._read_frame()
            if reply.get("error") != code:
                raise ProtocolError(f"{label}: expected `{code}`, got {reply}")
        c.close()

    # Typed errors on a persistent connection.
    conn.expect_error({"op": "explode"}, "unknown_op")
    conn.expect_error({"op": "label", "session": 424242, "labels": []}, "no_session")
    conn.expect_error({"op": "create"}, "bad_request")
    conn.expect_error({"op": "create", "seed": 1, "batch": 0}, "bad_request")
    conn.expect_error(
        {"op": "create", "seed": 1, "target": [{"lo": [1.0], "hi": [2.0]}]},
        "bad_request",
    )

    # Version handling (raw frames bypass request()'s v:1 injection).
    conn.send_raw(b'{"op":"stats"}\n')
    if conn._read_frame().get("error") != "bad_version":
        raise ProtocolError("missing `v` must draw bad_version")
    conn.send_raw(b'{"v":99,"op":"stats"}\n')
    if conn._read_frame().get("error") != "bad_version":
        raise ProtocolError("v:99 must draw bad_version")

    # Label-count mismatch on a real session.
    created = conn.expect_ok(
        {"op": "create", "seed": 7, "batch": 5, "target": [TARGET]}
    )
    sid = created["session"]
    conn.expect_error({"op": "label", "session": sid, "labels": [True]}, "bad_labels")
    conn.expect_error(
        {"op": "label", "session": sid, "labels": [1, 2, 3]}, "bad_labels"
    )
    conn.expect_ok({"op": "close", "session": sid})

    # Framing violations on throwaway connections.
    raw_case(b"not json at all\n", "bad_json", "bad JSON")
    raw_case(b"x" * (MAX_FRAME + 64) + b"\n", "bad_frame", "oversized frame")
    raw_case(b'{"v":1,"op":"stats"', None, "truncated frame")

    # The server survived all of it.
    stats = conn.expect_ok({"op": "stats"})
    conn.close()
    print(
        f"self-test ok: protocol errors typed, framing bounded, "
        f"server healthy ({stats['sessions_created']} sessions created so far)"
    )
    return 0


def parse_addr(addr: str):
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"bad address `{addr}` (want HOST:PORT)")
    return host, int(port)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("addr", type=parse_addr, help="server address, HOST:PORT")
    ap.add_argument("--rounds", type=int, default=5, help="label rounds per session")
    ap.add_argument("--self-test", action="store_true",
                    help="fire the protocol corruption cases at the server")
    args = ap.parse_args()
    host, port = args.addr
    try:
        if args.self_test:
            sys.exit(self_test(host, port))
        sys.exit(run_sessions(host, port, args.rounds))
    except (ProtocolError, OSError) as e:
        print(f"FAILED: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
