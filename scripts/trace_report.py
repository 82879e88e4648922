#!/usr/bin/env python3
"""Render or validate an ``aide-trace/1`` session trace.

The trace is JSON-lines written by ``aide explore --trace FILE`` (or any
``Tracer`` drained through ``write_jsonl``): one ``trace_header`` line
followed by one line per event. The normative field-by-field schema
lives in ARCHITECTURE.md; this script is its executable counterpart.

Modes
-----

``trace_report.py TRACE``
    Per-iteration breakdown: phase durations, samples and queries, wave
    and cache activity, evaluation snapshots, and a session summary.

``trace_report.py --validate TRACE``
    Structural check, exit 1 on the first violation: the header must
    declare schema ``aide-trace/1`` and an event count matching the
    body; every event must be a known kind carrying exactly its schema
    fields; ``t_us`` must be monotonically non-decreasing; iteration and
    phase spans must nest (``iter_start``/``iter_end`` with matching
    ``iter``, ``phase_start``/``phase_end`` with matching ``phase``,
    waves and plan events only inside their phase); a ``phase_end``
    ``select_us`` (time spent selecting samples, optional) must be an
    integer no larger than the phase's ``dur_us``.

``trace_report.py --fingerprint TRACE``
    SHA-256 of the timing-stripped trace (drops ``t_us`` and every field
    ending in ``_us``, mirroring the Rust ``strip_timing`` rule). Two runs
    of the same session config must fingerprint identically for any
    ``AIDE_THREADS`` setting; CI compares these digests.

Self-test: ``trace_report.py --self-test`` exercises the validator on
known-good and known-broken synthetic traces.
"""

import argparse
import hashlib
import json
import sys

SCHEMA = "aide-trace/1"

# kind -> (required fields in order, optional fields). `t_us` is implicit
# on every event; `phase` is ambient (present only inside a phase span).
EVENT_SCHEMA = {
    "session_start": (
        ["rows", "eval_rows", "dims", "samples_per_iteration", "strategy",
         "index", "eval_every"], []),
    "iter_start": (["iter"], []),
    "phase_start": (["iter", "phase"], []),
    "discovery_plan": (["iter", "phase", "strategy", "pending_areas",
                        "budget"], []),
    "misclass_plan": (["iter", "phase", "fns", "areas", "clustered", "y",
                       "budget"], []),
    "boundary_plan": (["iter", "phase", "regions", "faces", "candidates",
                       "budget"], []),
    "wave": (["iter", "wave", "rects", "queries", "cache_hits",
              "cache_misses", "tuples_examined", "tuples_returned",
              "dur_us"], ["phase"]),
    "phase_end": (["iter", "phase", "waves", "samples", "queries",
                   "dur_us"], ["select_us"]),
    "eval": (["iter", "points", "f", "precision", "recall", "tree_leaves",
              "tree_depth", "dur_us"], ["phase"]),
    "model_fit": (["model", "samples", "rebuilt", "fit_us"],
                  ["iter", "phase", "clusters", "leaves"]),
    "pool": (["iter", "calls", "chunks"], []),
    "iter_end": (["iter", "new_samples", "discovery_samples",
                  "misclass_samples", "boundary_samples", "total_labeled",
                  "relevant_labeled", "num_regions", "queries",
                  "tuples_examined", "tuples_returned", "cache_hits",
                  "cache_misses", "cached_regions", "dur_us"], []),
    "session_end": (["iterations", "total_labeled", "final_f", "dur_us"], []),
}

IN_PHASE_ONLY = {"discovery_plan", "misclass_plan", "boundary_plan"}


def load(path):
    """Read a trace file; returns (header, events) as ordered-pair lists."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                pairs = json.loads(raw, object_pairs_hook=list)
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{n}: not valid JSON: {e}")
            lines.append((n, pairs))
    if not lines:
        raise SystemExit(f"{path}: empty trace")
    return lines[0], lines[1:]


def as_dict(pairs):
    return dict(pairs)


def strip_timing(pairs):
    """Mirror the Rust strip rule: drop t_us and any *_us field."""
    return [(k, v) for k, v in pairs
            if k != "t_us" and not k.endswith("_us")]


def fingerprint(path):
    header, events = load(path)
    digest = hashlib.sha256()
    for _, pairs in [header] + events:
        line = json.dumps(dict(strip_timing(pairs)), separators=(",", ":"))
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def validate(path):
    """Return a list of violations (empty when the trace is well-formed)."""
    header, events = load(path)
    errors = []

    def err(line_no, message):
        errors.append(f"line {line_no}: {message}")

    hno, hpairs = header
    head = as_dict(hpairs)
    if head.get("k") != "trace_header":
        err(hno, f"first line must be trace_header, got {head.get('k')!r}")
    if head.get("schema") != SCHEMA:
        err(hno, f"schema {head.get('schema')!r} != {SCHEMA!r}")
    if head.get("events") != len(events):
        err(hno, f"header declares {head.get('events')} events, "
                 f"file has {len(events)}")

    last_t = -1
    open_iter = None   # iter number of the open iteration span
    open_phase = None  # phase name of the open phase span
    session_open = False
    session_closed = False

    for no, pairs in events:
        ev = as_dict(pairs)
        kind = ev.get("k")
        if kind not in EVENT_SCHEMA:
            err(no, f"unknown event kind {kind!r}")
            continue
        required, optional = EVENT_SCHEMA[kind]
        allowed = set(required) | set(optional) | {"k", "t_us"}
        for f in required + ["t_us"]:
            if f not in ev:
                err(no, f"{kind} missing field {f!r}")
        for f in ev:
            if f not in allowed:
                err(no, f"{kind} has unexpected field {f!r}")
        t = ev.get("t_us")
        if isinstance(t, int):
            if t < last_t:
                err(no, f"t_us went backwards ({t} < {last_t})")
            last_t = t

        # Span nesting.
        if kind == "session_start":
            if session_open or session_closed:
                err(no, "duplicate session_start")
            session_open = True
        elif kind == "session_end":
            if open_iter is not None:
                err(no, f"session_end inside open iteration {open_iter}")
            session_closed = True
        elif kind == "iter_start":
            if open_iter is not None:
                err(no, f"iter_start while iteration {open_iter} is open")
            open_iter = ev.get("iter")
        elif kind == "iter_end":
            if open_iter is None:
                err(no, "iter_end without iter_start")
            elif ev.get("iter") != open_iter:
                err(no, f"iter_end for {ev.get('iter')} "
                        f"inside iteration {open_iter}")
            if open_phase is not None:
                err(no, f"iter_end inside open phase {open_phase!r}")
            open_iter = None
        elif kind == "phase_start":
            if open_iter is None:
                err(no, "phase_start outside an iteration")
            if open_phase is not None:
                err(no, f"phase_start while phase {open_phase!r} is open")
            open_phase = ev.get("phase")
        elif kind == "phase_end":
            if open_phase is None:
                err(no, "phase_end without phase_start")
            elif ev.get("phase") != open_phase:
                err(no, f"phase_end for {ev.get('phase')!r} "
                        f"inside phase {open_phase!r}")
            sel, dur = ev.get("select_us", 0), ev.get("dur_us")
            if not isinstance(sel, int) or sel < 0 or (
                    isinstance(dur, int) and sel > dur):
                err(no, f"phase_end select_us {sel!r} is not an integer "
                        f"in [0, dur_us={dur!r}]")
            open_phase = None
        elif kind in IN_PHASE_ONLY or kind == "wave":
            if open_phase is None:
                err(no, f"{kind} outside a phase span")
            elif ev.get("phase", open_phase) != open_phase:
                err(no, f"{kind} tagged {ev.get('phase')!r} "
                        f"inside phase {open_phase!r}")
        # eval and pool may appear inside or outside phases.

        if open_iter is not None and "iter" in ev and ev["iter"] != open_iter:
            err(no, f"event iter {ev['iter']} inside iteration {open_iter}")

    if open_phase is not None:
        errors.append(f"end of trace: phase {open_phase!r} never closed")
    if open_iter is not None:
        errors.append(f"end of trace: iteration {open_iter} never closed")
    if session_open and not session_closed:
        errors.append("end of trace: session_start without session_end")
    return errors


def report(path):
    header, events = load(path)
    evs = [as_dict(p) for _, p in events]
    head = as_dict(header[1])
    out = []
    start = next((e for e in evs if e["k"] == "session_start"), None)
    if start:
        out.append(
            f"session: {start['rows']} rows x {start['dims']} dims, "
            f"strategy={start['strategy']}, index={start['index']}, "
            f"batch={start['samples_per_iteration']}")
    if head.get("dropped"):
        out.append(f"WARNING: ring buffer dropped {head['dropped']} events")
    out.append("")
    out.append(f"{'iter':>4} {'phase':<13} {'waves':>5} {'samples':>7} "
               f"{'queries':>7} {'hit/miss':>9} {'tuples':>8} "
               f"{'ms':>8} {'F':>6} {'select ms':>9}")

    iters = sorted({e["iter"] for e in evs if "iter" in e})
    for it in iters:
        mine = [e for e in evs if e.get("iter") == it]
        phases = [e for e in mine if e["k"] == "phase_end"]
        for ph in phases:
            waves = [e for e in mine
                     if e["k"] == "wave" and e.get("phase") == ph["phase"]]
            hits = sum(w["cache_hits"] for w in waves)
            miss = sum(w["cache_misses"] for w in waves)
            tup = sum(w["tuples_examined"] for w in waves)
            select = (f"{ph['select_us'] / 1000:>9.2f}"
                      if "select_us" in ph else f"{'-':>9}")
            out.append(
                f"{it:>4} {ph['phase']:<13} {ph['waves']:>5} "
                f"{ph['samples']:>7} {ph['queries']:>7} "
                f"{f'{hits}/{miss}':>9} {tup:>8} "
                f"{ph['dur_us'] / 1000:>8.2f} {'':>6} {select}")
        for ev in (e for e in mine if e["k"] == "model_fit"):
            detail = (f"{ev['leaves']} leaves" if "leaves" in ev
                      else f"{ev['clusters']} clusters" if "clusters" in ev
                      else "")
            out.append(
                f"{it:>4} {'fit ' + ev['model']:<13} {'':>5} "
                f"{ev['samples']:>7} {'':>7} {'':>9} {'':>8} "
                f"{ev['fit_us'] / 1000:>8.2f} "
                f"{'rebuild' if ev['rebuilt'] else 'incremental'}"
                f"{', ' + detail if detail else ''}")
        for ev in (e for e in mine if e["k"] == "eval"):
            out.append(
                f"{it:>4} {'eval':<13} {'':>5} {ev['points']:>7} {'':>7} "
                f"{'':>9} {'':>8} {ev['dur_us'] / 1000:>8.2f} "
                f"{ev['f']:>6.3f}")
        end = next((e for e in mine if e["k"] == "iter_end"), None)
        pool = next((e for e in mine if e["k"] == "pool"), None)
        if end:
            chunks = (f", pool {pool['calls']} calls/"
                      f"{pool['chunks']} chunks" if pool else "")
            out.append(
                f"{it:>4} {'= iter_end':<13} "
                f"{end['new_samples']} new labels "
                f"({end['discovery_samples']}d/{end['misclass_samples']}m/"
                f"{end['boundary_samples']}b), "
                f"{end['total_labeled']} total, "
                f"{end['num_regions']} region(s), "
                f"{end['cached_regions']} cached{chunks}, "
                f"{end['dur_us'] / 1000:.2f}ms")
    fin = next((e for e in evs if e["k"] == "session_end"), None)
    if fin:
        out.append("")
        out.append(
            f"session end: {fin['iterations']} iterations, "
            f"{fin['total_labeled']} labels, F = {fin['final_f']:.3f}, "
            f"{fin['dur_us'] / 1000:.1f}ms")
    return "\n".join(out)


def self_test():
    import os
    import tempfile

    good = [
        {"k": "trace_header", "schema": SCHEMA, "events": 8, "dropped": 0},
        {"k": "session_start", "t_us": 1, "rows": 10, "eval_rows": 10,
         "dims": 2, "samples_per_iteration": 5, "strategy": "grid",
         "index": "grid", "eval_every": 1},
        {"k": "iter_start", "t_us": 2, "iter": 0},
        {"k": "phase_start", "t_us": 3, "iter": 0, "phase": "discovery"},
        {"k": "wave", "t_us": 4, "iter": 0, "phase": "discovery", "wave": 0,
         "rects": 1, "queries": 1, "cache_hits": 0, "cache_misses": 1,
         "tuples_examined": 10, "tuples_returned": 4, "dur_us": 1},
        {"k": "phase_end", "t_us": 5, "iter": 0, "phase": "discovery",
         "waves": 1, "samples": 0, "queries": 1, "dur_us": 1},
        {"k": "model_fit", "t_us": 6, "iter": 0, "model": "cart",
         "samples": 4, "leaves": 3, "rebuilt": False, "fit_us": 2},
        {"k": "iter_end", "t_us": 6, "iter": 0, "new_samples": 0,
         "discovery_samples": 0, "misclass_samples": 0,
         "boundary_samples": 0, "total_labeled": 0, "relevant_labeled": 0,
         "num_regions": 0, "queries": 1, "tuples_examined": 10,
         "tuples_returned": 4, "cache_hits": 0, "cache_misses": 1,
         "cached_regions": 1, "dur_us": 3},
        {"k": "session_end", "t_us": 7, "iterations": 1,
         "total_labeled": 0, "final_f": 0.0, "dur_us": 5},
    ]

    def run_case(lines, expect_clean, label):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".jsonl", delete=False) as fh:
            for obj in lines:
                fh.write(json.dumps(obj) + "\n")
            path = fh.name
        try:
            errs = validate(path)
        finally:
            os.unlink(path)
        if expect_clean and errs:
            raise SystemExit(f"self-test {label}: unexpected errors {errs}")
        if not expect_clean and not errs:
            raise SystemExit(f"self-test {label}: expected a violation")

    run_case(good, True, "well-formed")

    bad_kind = [dict(e) for e in good]
    bad_kind[2]["k"] = "mystery"
    run_case(bad_kind, False, "unknown kind")

    bad_time = [dict(e) for e in good]
    bad_time[4]["t_us"] = 1
    run_case(bad_time, False, "non-monotone t_us")

    bad_nest = [e for e in good if e.get("k") != "phase_end"]
    bad_nest[0] = dict(bad_nest[0], events=7)
    run_case(bad_nest, False, "unclosed phase")

    bad_count = [dict(e) for e in good]
    bad_count[0]["events"] = 99
    run_case(bad_count, False, "event count mismatch")

    bad_field = [dict(e) for e in good]
    del bad_field[2]["iter"]
    run_case(bad_field, False, "missing required field")

    bad_fit = [dict(e) for e in good]
    del bad_fit[6]["rebuilt"]
    run_case(bad_fit, False, "model_fit missing rebuilt")

    # phase_end may carry the phase's selection time, never above dur_us.
    timed = [dict(e) for e in good]
    timed[5]["select_us"] = 1
    run_case(timed, True, "phase_end with select_us")
    bad_select = [dict(e) for e in good]
    bad_select[5]["select_us"] = 2
    run_case(bad_select, False, "select_us above dur_us")

    def write_trace(lines):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".jsonl", delete=False) as fh:
            for obj in lines:
                fh.write(json.dumps(obj) + "\n")
            return fh.name

    # The fingerprint ignores wall-clock fields: a replay of the same
    # session with different timings digests identically.
    replay = [dict(e) for e in good]
    for i, e in enumerate(replay[1:], 1):
        e["t_us"] = 100 + i
        if "dur_us" in e:
            e["dur_us"] += 7
    a, b = write_trace(good), write_trace(replay)
    try:
        if fingerprint(a) != fingerprint(b):
            raise SystemExit(
                "self-test fingerprint: two timings of the same session "
                "digest differently")
    finally:
        os.unlink(a)
        os.unlink(b)

    # The report renders the model-fit rows and the selection column
    # (a dash for traces written before phase_end carried select_us).
    for lines, needles, select in (
            (good, ("fit cart", "incremental, 3 leaves", "select ms"), "-"),
            (timed, (), "0.00")):
        path = write_trace(lines)
        try:
            rendered = report(path)
        finally:
            os.unlink(path)
        row = next(r for r in rendered.splitlines() if " discovery " in r)
        for needle in needles:
            if needle not in rendered:
                raise SystemExit(
                    f"self-test report: {needle!r} missing from:\n{rendered}")
        if row.split()[-1] != select:
            raise SystemExit(
                f"self-test report: select column of {row!r} is not {select}")

    print("self-test OK (11 cases)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="?", help="trace JSONL file")
    ap.add_argument("--validate", action="store_true",
                    help="check structure instead of rendering")
    ap.add_argument("--fingerprint", action="store_true",
                    help="print SHA-256 of the timing-stripped trace")
    ap.add_argument("--self-test", action="store_true",
                    help="run the validator against synthetic traces")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.trace:
        ap.error("a trace file is required (or --self-test)")
    if args.validate:
        errors = validate(args.trace)
        if errors:
            for e in errors:
                print(f"INVALID {args.trace}: {e}", file=sys.stderr)
            raise SystemExit(1)
        print(f"OK {args.trace}: valid {SCHEMA} trace")
    elif args.fingerprint:
        print(fingerprint(args.trace))
    else:
        print(report(args.trace))


if __name__ == "__main__":
    main()
