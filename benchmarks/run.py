"""Run one workload of the symfrob benchmark and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of workloads.WORKLOADS, or "all" to run each in turn. A run
repeats one fixed pass, the same operations in the same order, for about
S seconds. Each cold pass starts a fresh interpreter, the CLI sweep
starts one per command, and a warmed session times its stream several
times per interpreter. Every time is scaled by a calibration sample
taken just before it (see calibrated). The last line of standard
output is one JSON object: "correct", "attempted", "failed" and
"metrics". With
--trace 0 the metrics are the end-to-end ones, measured untraced. With
--trace 1 they are the per-layer ones: traced and untraced passes
alternate, and the untraced ones give the tracing overhead. The full
record of a run is written under benchmarks/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Everything a traced run measures. Its text report and run record give
# all of it, on every workload.
LAYER_METRICS = {
    **{f"{layer}.{stat}": unit for layer in layertrace.LAYER_NAMES
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "L2.pleth_memo.hits": "count",
    "L2.pleth_memo.misses": "count",
    "memo.entries": "count",
    "memo.hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
# The traced result line's metrics: one set for every workload, so only
# what every workload enters. The rest would read 0 on every run of some
# workload (basis-cold calls no transform, no coefficient and no CLI).
PER_LAYER = {name: LAYER_METRICS[name] for name in (
    "L0.partitions.calls", "L0.partitions.self_s",
    "L1.convert.calls", "L1.convert.self_s",
    "memo.entries", "memo.hit_ratio", "trace.overhead_ratio",
)}
# A run never starts a child after this many seconds, and kills any child
# still running at the hard limit, so that it ends well within 180 s.
SOFT_LIMIT_S = 120
HARD_LIMIT_S = 165
# A run makes at least this many cold processes, CLI sweeps or warmed
# sessions, so that each median, set-up time included, has a choice.
MIN_REPEATS = 3
MIN_LATENCY_SAMPLES = 100


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    spawned_at: float
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    """One timed pass. Every time comes with the scale of the calibration sample before it."""

    traced: bool
    setup_s: list = field(default_factory=list)
    setup_scale: list = field(default_factory=list)
    rss_mb: float = 0.0
    op_ms: list = field(default_factory=list)  # wall time of each operation, in pass order
    op_cpu_ms: list = field(default_factory=list)
    op_scale: list = field(default_factory=list)
    calib_ms: list = field(default_factory=list)  # every calibration sample of the pass
    failures: list = field(default_factory=list)
    attempted: int = 0
    memo: dict | None = None
    layers: dict | None = None
    spans: int = 0


def hermetic_env(write_bytecode=False) -> dict:
    """The parent's environment without PYTHON* and SYMFROB_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SYMFROB_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, timeout) -> Child:
    """Run child.py in a fresh interpreter."""
    return spawn([str(BENCH / "child.py"), *args], timeout)


def spawn(args, timeout) -> Child:
    """Run a fresh interpreter; wall, CPU and peak RSS come from a blocking wait4.

    A blocking wait, unlike Popen.wait with a timeout, which polls, sees
    the exit when it happens.
    """
    with open(OUT / "child-stderr.txt", "w+") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=hermetic_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        ended_at = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Child(
        returncode=proc.returncode,
        stdout=stdout.decode(errors="replace"),
        stderr=stderr,
        spawned_at=spawned_at,
        wall_s=ended_at - spawned_at,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


def prepare() -> None:
    """Compile bytecode and import once, untimed, so no run pays for .pyc writes."""
    env = hermetic_env(write_bytecode=True)
    for cmd in (
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "symfrob"), str(BENCH)],
        [sys.executable, "-c", "import symfrob, symfrob.cli"],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)


def judge(op_id, digest, error, golden):
    """None when the result matches its golden digest, else the reason it failed."""
    if error:
        return error
    if op_id not in golden:
        return "no golden digest"
    if digest != golden[op_id]:
        return f"digest {digest} != golden {golden[op_id]}"
    return None


def judge_cli(argv, returncode, stdout, golden):
    """A command fails on a nonzero exit, a verify that ran no check, or a wrong digest."""
    if returncode != 0:
        return f"exit code {returncode}"
    if argv[0] == "verify":
        match = workloads.VERIFY_LINE.search(stdout)
        if match is None or int(match.group(1)) == 0:
            return "verify ran 0 checks"
    return judge(workloads.cli_id(argv), workloads.cli_digest(returncode, stdout), None, golden)


def _remaining(started):
    return HARD_LIMIT_S - (time.monotonic() - started)


def worker_pass(workload, seed, index, traced, golden, started) -> list:
    """One fresh process; returns one Pass per timed segment (set-up on the first)."""
    spans_path = str(OUT / f"spans-{workload}-{index}.bin") if traced else "-"
    warmed = workload == "session-warm"
    if not warmed:
        spawn_scale = workloads.SPAWN_CALIBRATION_NOMINAL_MS / spawn_calibration_ms(started)
    child = run_child(
        ["pass", workload, str(seed), "1" if traced else "0", spans_path],
        _remaining(started),
    )
    if child.returncode != 0:
        crashed = Pass(traced=traced, attempted=1)
        crashed.failures.append(f"pass exited {child.returncode}: {child.stderr.strip()[-300:]}")
        return [crashed]
    data = json.loads(child.stdout.splitlines()[-1])
    passes = []
    for segment in data["segments"]:
        out = Pass(traced=traced, rss_mb=data["rss_mb"], calib_ms=segment["calib_ms"],
                   memo=segment["memo"], layers=segment.get("layers"),
                   spans=segment.get("spans", 0))
        for op_id, wall, cpu, calib, digest, error in segment["ops"]:
            out.op_ms.append(wall * 1e3)
            out.op_cpu_ms.append(cpu * 1e3)
            out.op_scale.append(workloads.CALIBRATION_NOMINAL_MS / calib)
            _record(out, op_id, judge(op_id, digest, error, golden))
        passes.append(out)
    # A cold set-up is an interpreter start and `import symfrob`, as a CLI
    # command's is, and is scaled by the same interpreter-start sample. A
    # warmed session's set-up is mostly its warm-up, scaled by loop samples.
    if warmed:
        passes[0].setup_s.append(data["ready_at"] - child.spawned_at)
        passes[0].setup_scale.append(
            workloads.CALIBRATION_NOMINAL_MS / statistics.median(data["setup_calib_ms"]))
    else:
        passes[0].setup_s.append(data["imported_at"] - child.spawned_at)
        passes[0].setup_scale.append(spawn_scale)
    for op_id, _, _, _, digest, error in data["warmup"]:
        _record(passes[0], op_id, judge(op_id, digest, error, golden))
    return passes


def _record(out, op_id, reason):
    out.attempted += 1
    if reason:
        out.failures.append(f"{op_id}: {reason}")


def cli_pass(seed, traced, golden, started) -> Pass:
    out = Pass(traced=traced)
    layers = {name: {"calls": 0, "self_s": 0.0} for name in layertrace.LAYER_NAMES}
    memo = {"hits": 0, "misses": 0, "entries": 0, "pleth": {"hits": 0, "misses": 0}}
    for j, argv in enumerate(workloads.pass_order(workloads.cli_commands(), seed)):
        trace_path = str(OUT / f"cli-trace-{j}.json") if traced else "-"
        calib = spawn_calibration_ms(started)
        scale = workloads.SPAWN_CALIBRATION_NOMINAL_MS / calib
        out.calib_ms.append(calib)
        child = run_child(["cli", trace_path, *argv], _remaining(started))
        marks = [line.split()[1] for line in child.stderr.splitlines()
                 if line.split()[:1] == [layertrace.SETUP_MARK]]
        if marks:
            out.setup_s.append(float(marks[0]) - child.spawned_at)
            out.setup_scale.append(scale)
        out.rss_mb = max(out.rss_mb, child.rss_mb)
        out.op_ms.append(child.wall_s * 1e3)
        out.op_cpu_ms.append(child.cpu_s * 1e3)
        out.op_scale.append(scale)
        reason = judge_cli(argv, child.returncode, child.stdout, golden)
        _record(out, workloads.cli_id(argv), reason)
        if traced and child.returncode == 0:
            with open(trace_path) as fh:
                summary = json.load(fh)
            out.spans += summary["spans"]
            for name, stats in summary["layers"].items():
                layers[name]["calls"] += stats["calls"]
                layers[name]["self_s"] += stats["self_s"]
            for key in ("hits", "misses", "entries"):
                memo[key] += summary["memo"][key]
            if summary["memo"]["pleth"] is None:
                memo["pleth"] = None
            elif memo["pleth"] is not None:
                for key in ("hits", "misses"):
                    memo["pleth"][key] += summary["memo"]["pleth"][key]
    if traced:
        out.layers, out.memo = layers, memo
    return out


def run_ladder(workload, golden, started):
    """Per-degree time of the top-level call, one fresh process per row."""
    rows, failures = [], []
    for label, n in workloads.LADDER.get(workload, []):
        child = run_child(["ladder", label, str(n)], _remaining(started))
        if child.returncode != 0:
            failures.append(f"ladder {label} n={n}: exit {child.returncode}")
            continue
        data = json.loads(child.stdout.splitlines()[-1])
        reason = judge(data["id"], data["digest"], data["error"], golden)
        if reason:
            failures.append(f"ladder {data['id']}: {reason}")
        rows.append({"op": label, "n": n, "input": f"s[{n - 2},1,1]",
                     "seconds": data["wall_s"] * workloads.CALIBRATION_NOMINAL_MS / data["calib_ms"],
                     "measured_s": data["wall_s"]})
    return rows, failures


def spawn_calibration_ms(started) -> float:
    """Milliseconds to start an interpreter that imports what the CLI's own imports need."""
    child = spawn(["-c", workloads.SPAWN_CALIBRATION], _remaining(started))
    if child.returncode != 0:
        raise RuntimeError(f"calibration interpreter exited {child.returncode}: {child.stderr}")
    return child.wall_s * 1e3


def calibrated(t, scale):
    """A time scaled by nominal / the calibration sample taken just before it.

    Other tenants of a shared 2-CPU machine slow it, often by a third and
    at times by more than half, in stretches from a fraction of a second
    to many minutes. A calibration sample slows with them, so the ratio of
    a time to the sample next to it stays put.
    """
    return t * scale


def measured(t, scale):
    return t


def pass_time_s(p, times, adjust):
    return sum(adjust(ms, scale) for ms, scale in zip(times, p.op_scale)) / 1e3


def end_to_end_metrics(passes, adjust=calibrated):
    plain = [p for p in passes if not p.traced and p.op_ms]
    latencies = [adjust(ms, scale) for p in plain for ms, scale in zip(p.op_ms, p.op_scale)]
    return {
        "setup_s": statistics.median(
            adjust(t, scale) for p in plain for t, scale in zip(p.setup_s, p.setup_scale)),
        "wall_s": statistics.median(pass_time_s(p, p.op_ms, adjust) for p in plain),
        "cpu_s": statistics.median(pass_time_s(p, p.op_cpu_ms, adjust) for p in plain),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
    }, len(latencies)


def layer_metrics(passes):
    """Every metric of LAYER_METRICS; the memo counters only while the memo exists."""
    traced = [p for p in passes if p.traced and p.layers]
    plain = [p for p in passes if not p.traced and p.op_ms]
    out = {}
    for name in layertrace.LAYER_NAMES:
        out[f"{name}.calls"] = statistics.median(p.layers[name]["calls"] for p in traced)
        out[f"{name}.self_s"] = statistics.median(
            calibrated(p.layers[name]["self_s"], statistics.median(p.op_scale)) for p in traced)
    # The memo counters are reported absent once the memo no longer exists.
    if all(p.memo["pleth"] is not None for p in traced):
        out["L2.pleth_memo.hits"] = statistics.median(p.memo["pleth"]["hits"] for p in traced)
        out["L2.pleth_memo.misses"] = statistics.median(p.memo["pleth"]["misses"] for p in traced)
    out["memo.entries"] = statistics.median(p.memo["entries"] for p in traced)
    out["memo.hit_ratio"] = statistics.median(
        p.memo["hits"] / max(p.memo["hits"] + p.memo["misses"], 1) for p in traced
    )
    out["trace.overhead_ratio"] = (
        statistics.median(pass_time_s(p, p.op_ms, calibrated) for p in traced)
        / statistics.median(pass_time_s(p, p.op_ms, calibrated) for p in plain)
    )
    return out


def pass_record(p) -> dict:
    """A pass for the run record: its totals, without the per-operation lists."""
    record = {k: v for k, v in vars(p).items()
              if k not in ("op_ms", "op_cpu_ms", "op_scale", "calib_ms")}
    record["operations"] = len(p.op_ms)
    if p.op_ms:
        record["wall_s"] = pass_time_s(p, p.op_ms, measured)
        record["calibrated_wall_s"] = pass_time_s(p, p.op_ms, calibrated)
        record["calib_ms"] = {"samples": len(p.calib_ms), "min": min(p.calib_ms),
                              "median": statistics.median(p.calib_ms)}
    return record


def machine_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model}


def run_workload(workload, seed, seconds, trace):
    """Run passes until the time is up; returns (printed lines, result object, record)."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    started = time.monotonic()
    passes = []
    longest = 0.0
    for index in itertools.count():
        traced = trace and index % 2 == 1
        unit_start = time.monotonic()
        if workload == "cli-sweep":
            passes.append(cli_pass(seed, traced, golden, started))
        else:
            passes.extend(worker_pass(workload, seed, index, traced, golden, started))
        longest = max(longest, time.monotonic() - unit_start)
        elapsed = time.monotonic() - started
        if elapsed >= SOFT_LIMIT_S or not all(p.op_ms for p in passes):
            break  # out of time, or a pass crashed
        if trace:
            done = index >= 1
        else:
            # Ten latency samples beyond the 90th percentile.
            done = (index + 1 >= MIN_REPEATS and sum(
                len(p.op_ms) for p in passes if not p.traced) >= MIN_LATENCY_SAMPLES)
        # Start no pass that would end after the run's time.
        if done and elapsed + longest >= seconds:
            break
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    ladder = []
    if trace:
        ladder, ladder_failures = run_ladder(workload, golden, started)
        attempted += len(workloads.LADDER.get(workload, []))
        failures += ladder_failures
    plain = [p for p in passes if not p.traced and p.op_ms]
    complete = bool(plain) and (not trace or any(p.layers for p in passes))
    metrics, raw, samples = {}, {}, 0
    units, reported = (PER_LAYER, LAYER_METRICS) if trace else (END_TO_END, END_TO_END)
    if complete:
        if trace:
            metrics = layer_metrics(passes)
        else:
            metrics, samples = end_to_end_metrics(passes)
            raw, _ = end_to_end_metrics(passes, adjust=measured)
    result = {
        "correct": complete and not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures) if complete else max(attempted, 1),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    machine = machine_info()
    calib = [ms for p in passes for ms in p.calib_ms] or [0.0]
    reference, nominal = ("interpreter start", workloads.SPAWN_CALIBRATION_NOMINAL_MS) \
        if workload == "cli-sweep" else ("loop", workloads.CALIBRATION_NOMINAL_MS)
    lines = [f"workload {workload} seed {seed} trace {int(trace)}: {len(passes)} timed passes "
             f"({len(plain)} untraced), {attempted} operations checked",
             f"  machine: {machine['nproc']} CPUs, {machine['cpu_model']}, Python {machine['python']}",
             f"  calibration {reference}: {len(calib)} samples from {min(calib):.3f} to"
             f" {max(calib):.3f} ms, median {statistics.median(calib):.3f} ms, nominal {nominal} ms"]
    for name, value in metrics.items():
        unit = reported[name]
        note = f"  (n={samples})" if name.startswith("op_p") else ""
        if name in raw and unit in ("s", "ms"):
            note = f"  (measured {raw[name]:.6g}){note}"
        if name not in units:
            note += "  (report only)"
        lines.append(f"  {name:<24} {value:.6g} {unit}{note}")
    lines.append(f"  {'fail_ratio':<24} {result['failed'] / result['attempted']:.6g} ratio"
                 f"  ({result['failed']} of {result['attempted']})")
    for row in ladder:
        lines.append(f"  ladder {row['op']:<12} {row['input']:<10} n={row['n']:<3} {row['seconds']:.4f} s")
    for failure in failures[:10]:
        lines.append(f"  FAIL {failure}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine,
        "measured": raw,
        "layer_metrics": metrics if trace else {},
        "passes": [pass_record(p) for p in passes],
        "latency_samples": samples,
        "ladder": ladder,
        "failures": failures,
        "result": result,
    }
    return lines, result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symfrob" / "__init__.py").is_file():
        print(f"error: no symfrob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: {GOLDEN} is missing; run benchmarks/make_golden.py", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    prepare()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines, results[name], record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        with open(OUT / f"{name}.seed{args.seed}.trace{args.trace}.json", "w") as fh:
            json.dump(record, fh)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
