"""Tests of the benchmark itself, at a tiny run length (the fewest passes a run allows).

    PYTHONPATH=src python3 -m pytest benchmarks/test_bench.py -q

They live outside the tier-1 testpaths because each starts the benchmark
in fresh interpreters and takes tens of seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run
import workloads

BENCH = Path(__file__).resolve().parent


def bench(root, *args):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_for_every_workload(trace):
    lines, result = bench(BENCH.parent, "--workload", "all", "--seed", "3",
                          "--seconds", "0.1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = run.PER_LAYER if trace else run.END_TO_END
    expected = {f"{w}.{name}": unit for w in workloads.WORKLOADS for name, unit in units.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    reported = run.LAYER_METRICS if trace else run.END_TO_END
    for w in workloads.WORKLOADS:
        block = text.split(f"workload {w} ", 1)[1].split("\nworkload ", 1)[0]
        for name, unit in reported.items():
            assert any(line.split()[:1] == [name] and line.split()[2] == unit
                       for line in block.splitlines()), (w, name)
        assert "fail_ratio" in block and " 0 ratio" in block
    if trace:
        value = {}
        for w in workloads.WORKLOADS:
            with open(run.OUT / f"{w}.seed3.trace1.json") as fh:
                value.update({f"{w}.{k}": v for k, v in json.load(fh)["layer_metrics"].items()})
        assert value["cli-sweep.L5.cli.calls"] == len(workloads.cli_commands())
        # Where the self time sits: L3 in cold transforms, L1 in cold conversions.
        assert value["transform-cold.L3.transform.self_s"] > 10 * value["transform-cold.L1.convert.self_s"]
        assert value["basis-cold.L1.convert.self_s"] > 10 * value["basis-cold.L0.partitions.self_s"]
        assert value["basis-cold.L3.transform.calls"] == 0


def test_each_time_is_scaled_by_the_calibration_sample_before_it():
    # The second pass ran on a machine slowed to half speed: every time
    # and every calibration sample doubled, so its scales halved.
    passes = [run.Pass(traced=False, setup_s=[0.1], setup_scale=[1.0],
                       op_ms=[1.0, 3.0], op_cpu_ms=[1.0, 3.0], op_scale=[1.0, 1.0]),
              run.Pass(traced=False, setup_s=[0.2], setup_scale=[0.5],
                       op_ms=[2.0, 6.0], op_cpu_ms=[2.0, 6.0], op_scale=[0.5, 0.5])]
    metrics, samples = run.end_to_end_metrics(passes)
    assert samples == 4
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["wall_s"] == pytest.approx(0.004)
    assert metrics["op_p50_ms"] == pytest.approx(2.0)
    raw, _ = run.end_to_end_metrics(passes, adjust=run.measured)
    assert raw["wall_s"] == pytest.approx(0.006)


def test_self_time_subtracts_child_spans():
    tracer = layertrace.Tracer()
    # L3 [0, 10] holds L1 [2, 5], which holds L0 [3, 4], and L1 [6, 8];
    # a second root, L1 [11, 12], starts a new segment at span 4.
    spans = ((3, -1, 0, 10), (1, 0, 2, 5), (0, 1, 3, 4), (1, 0, 6, 8), (1, -1, 11, 12))
    for layer, parent, start, end in spans:
        tracer.layer.append(layer)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = tracer.summary()
    assert summary["L3.transform"] == {"calls": 1, "self_s": 5.0}
    assert summary["L1.convert"] == {"calls": 3, "self_s": 5.0}
    assert summary["L0.partitions"] == {"calls": 1, "self_s": 1.0}
    assert tracer.summary(first=4)["L1.convert"] == {"calls": 1, "self_s": 1.0}
    assert tracer.summary(first=4)["L3.transform"] == {"calls": 0, "self_s": 0.0}


def test_corrupted_result_makes_fail_ratio_positive(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH.parent / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=ignore)
    frobenius = tmp_path / "src" / "symfrob" / "frobenius.py"
    source = frobenius.read_text()
    good = 'return _adjoint_apply(f, "Hplus")'
    assert source.count(good) == 1
    frobenius.write_text(source.replace(good, good + " * 2"))
    lines, result = bench(tmp_path, "--workload", "transform-cold", "--seed", "1",
                          "--seconds", "0.1", "--trace", "0")
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    fail_line = next(line for line in lines if line.split()[:1] == ["fail_ratio"])
    assert float(fail_line.split()[1]) > 0


def test_verify_reporting_zero_checks_counts_as_failed():
    argv = ["verify", "--suite", "routes", "--maxdeg", "-2"]
    stdout = "suite routes: 0 checks, 0 failures\n"
    golden = {workloads.cli_id(argv): workloads.cli_digest(0, stdout)}
    assert run.judge_cli(argv, 0, stdout, golden) == "verify ran 0 checks"
    stdout = "suite routes: 5 checks, 0 failures\n"
    golden = {workloads.cli_id(argv): workloads.cli_digest(0, stdout)}
    assert run.judge_cli(argv, 0, stdout, golden) is None


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "run.py"), "--workload", "basis-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
