"""One fresh benchmark process: a pass, a ladder row, or one CLI command.

    child.py pass WORKLOAD SEED TRACED SPANS_PATH
    child.py ladder LABEL N
    child.py cli TRACE_PATH CLI_ARG...

``import symfrob`` comes first, so that the parent can time interpreter
start through that import. A pass or ladder row prints one JSON line on
stdout. A CLI command leaves stdout to the CLI and reports its import
time on stderr. A TRACE_PATH or SPANS_PATH of "-" means untraced.
``workloads`` is imported only by the pass and ladder modes, so that a
CLI child imports nothing a plain ``python -m symfrob`` would not.
"""

import time

import symfrob

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import layertrace  # noqa: E402


def run_ops(items, tracer, calib_ms):
    """Time each operation alone; digest its result outside the timed span.

    Between operations, appends a calibration sample to ``calib_ms``
    whenever CALIBRATE_EVERY_S has gone by since the last one. Returns
    one record per operation: id, wall seconds, CPU seconds, the latest
    calibration sample, digest, error.
    """
    import workloads

    records = []
    next_calib = 0.0
    for op_id, thunk in items:
        if perf_counter() >= next_calib:
            calib_ms.append(workloads.calibrate())
            next_calib = perf_counter() + workloads.CALIBRATE_EVERY_S
        root = tracer.open(layertrace.OP) if tracer else None
        c0 = process_time()
        t0 = perf_counter()
        try:
            value, error = thunk(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        c1 = process_time()
        if tracer:
            tracer.close(root)
        digest = None
        if error is None:
            try:
                digest = workloads.digest(value)
            except TypeError as exc:
                error = str(exc)
        records.append([op_id, t1 - t0, c1 - c0, calib_ms[-1], digest, error])
    return records


def run_pass(workload, seed, traced, spans_path):
    """One fresh process: a cold pass, or a warmed session that times its stream repeatedly."""
    import workloads

    out = {"imported_at": IMPORTED_AT, "warmup": []}
    if workload == "session-warm":
        # Calibration samples for the set-up: three now, and more during the warm-up.
        out["setup_calib_ms"] = [workloads.calibrate() for _ in range(3)]
        pool = workloads.session_pool(symfrob)
        out["warmup"] = run_ops(pool, None, out["setup_calib_ms"])
        segments = [workloads.session_stream(pool, seed)] * workloads.SESSION_REPEATS
    elif workload == "transform-cold":
        segments = [workloads.degree_order(workloads.transform_pool(symfrob), seed)]
    elif workload == "basis-cold":
        segments = [workloads.degree_order(workloads.basis_pool(symfrob), seed)]
    else:
        raise SystemExit(f"no in-process pass for workload {workload!r}")
    out["ready_at"] = time.monotonic()
    caches = layertrace.memo_caches()
    tracer = None
    if traced:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    out["segments"] = []
    for items in segments:
        before = layertrace.memo_stats(caches)
        first_span = len(tracer.layer) if tracer else 0
        calib_ms = []
        segment = {"ops": run_ops(items, tracer, calib_ms), "calib_ms": calib_ms,
                   "memo": _memo_delta(before, layertrace.memo_stats(caches))}
        if tracer:
            segment["layers"] = tracer.summary(first_span)
            segment["spans"] = len(tracer.layer) - first_span
        out["segments"].append(segment)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.write(spans_path)
    return out


def _memo_delta(before, after):
    """Hits and misses during the timed operations; entries at their end."""
    delta = {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "entries": after["entries"],
        "pleth": None,
    }
    if after["pleth"] and before["pleth"]:
        delta["pleth"] = {k: after["pleth"][k] - before["pleth"][k] for k in ("hits", "misses")}
    return delta


def run_ladder(label, n):
    import workloads

    op_id, f, call = workloads.ladder_op(symfrob, label, n)
    [[_, wall, _, calib, digest, error]] = run_ops([(op_id, lambda: call(f))], None, [])
    return {"id": op_id, "label": label, "n": n, "wall_s": wall, "calib_ms": calib,
            "digest": digest, "error": error}


def run_cli(trace_path, argv):
    print(f"{layertrace.SETUP_MARK} {IMPORTED_AT!r}", file=sys.stderr, flush=True)
    import symfrob.cli

    tracer = None
    if trace_path != "-":
        caches = layertrace.memo_caches()
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    try:
        return symfrob.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer:
            summary = {
                "layers": tracer.summary(),
                "memo": layertrace.memo_stats(caches),
                "spans": len(tracer.layer),
            }
            with open(trace_path, "w") as fh:
                json.dump(summary, fh)
            tracer.write(trace_path + ".spans")


def main(argv):
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    if mode == "pass":
        workload, seed, traced, spans_path = argv[1:]
        result = run_pass(workload, int(seed), traced == "1", spans_path)
    elif mode == "ladder":
        result = run_ladder(argv[1], int(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
