"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Smoke-size passes of every workload, detection of perturbed outputs, seed
reproducibility, the tracer, the reference comparator, the result contract of
run.py, and agreement of BENCHMARK.json with the runner.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from common import ROOT, SRC, THREAD_ENV, Op  # noqa: E402

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cold import ColdCli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IN_PROCESS = sorted(WORKLOADS)


def smoke_pass(name: str, seed: int = 7):
    """Operations and outputs of one smoke-size pass, each already checked."""
    workload = WORKLOADS[name]()
    ops = workload.prepare(workload.draw(seed, smoke=True))
    state: dict = {}
    results = []
    for op in ops:
        out, _, error = run.run_op(op, state)
        assert error is None, f"{op.key}: {error}"
        results.append((op, out))
    return workload, results


@pytest.fixture(scope="module")
def passes():
    return {name: smoke_pass(name) for name in IN_PROCESS}


@pytest.mark.parametrize("name", IN_PROCESS)
def test_smoke_pass_checks_clean(passes, name):
    workload, results = passes[name]
    for op, out in results:
        failures, _ = workload.check(op, out)
        assert failures == [], (op.key, failures)
        json.dumps(workload.record(op, out))


def _perturbed(name: str, op, out: dict) -> dict | None:
    out = copy.deepcopy(out)
    if name == "phase-sweep":
        out["exists"] = not out["exists"]
    elif op.kind == "minimal":
        out["u"] = out["u"] * 1.05
    elif op.kind == "family":
        out["lower"] = -1e-3 * out["scale"]
    elif op.kind == "audit":
        out["defect"] = 2.0 * out["tol"]
    elif op.kind == "exterior":
        out["increments"] = out["increments"][::-1]
    elif op.kind in ("supersolution", "glue"):
        out["u"] = np.asarray(out["u"])[::-1]
    elif op.kind == "field":
        out["fraction"] = 0.98
    else:
        return None
    return out


@pytest.mark.parametrize("name", IN_PROCESS)
def test_perturbed_output_counts_as_failure(passes, name):
    workload, results = passes[name]
    for op, out in results:
        bad = _perturbed(name, op, out)
        assert bad is not None, op.kind
        tally = run.Tally()
        assert not tally.add(workload, op, bad, None), op.key
        assert tally.failed == 1 and tally.failures[0][0] == op.key


def test_cold_check_detects_exit_code_and_changed_bytes():
    workload = ColdCli()
    op = Op("classify", "lab", lambda state: {})
    good = {"code": 0, "files": {"conditions.csv": "a,b\n1,2\n"}, "stderr": ""}
    assert workload.check(op, good)[0] == []
    assert workload.check(op, dict(good, code=3))[0]
    changed = dict(good, files={"conditions.csv": "a,b\n1,3\n"})
    assert workload.check(op, changed)[0]


@pytest.mark.parametrize("name", [*IN_PROCESS, "cli-cold"])
def test_seed_reproduces_inputs(name):
    workload = run.load_workload(name)
    same = [json.dumps(workload.draw(11)) for _ in range(2)]
    assert same[0] == same[1]
    assert json.dumps(workload.draw(12)) != same[0]


def test_traced_counts_repeat_and_names_are_restored():
    from elliptic_lab import bvp1d, construct, funcs, quad

    originals = (quad.classify_existence, funcs.phi_values, construct.solve_on_nodes,
                 bvp1d.solve_banded, construct.aitken_limit_rows)
    workload = WORKLOADS["ladder"]()
    ops = workload.prepare(workload.draw(3, smoke=True))
    counts = []
    for _ in range(2):
        tally = run.Tally()
        tracer, wall = run.traced_pass(workload, ops, tally)
        assert tally.failed == 0 and wall > 0
        counts.append(dict(tracer.counts))
        metrics = spans.layer_metrics(tracer.spans, tracer.counts)
        assert metrics["bvp1d.banded_solves"] > 0
        assert metrics["construct.ladder_levels"] > 0
        assert metrics["construct.aitken.busy_s"] > 0
    assert counts[0] == counts[1]
    assert originals == (quad.classify_existence, funcs.phi_values, construct.solve_on_nodes,
                         bvp1d.solve_banded, construct.aitken_limit_rows)


def test_times_scale_to_reference_speed():
    ref = calibrate.REF_S
    assert calibrate.scaled(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert calibrate.scaled(3.0, 0.5 * ref, 1.5 * ref) == pytest.approx(3.0)
    assert calibrate.kernel_after(0.0) > 0 and calibrate.kernel_after(10.0) > 0
    out, scaled, raw = calibrate.timed(lambda: "x")
    assert out == "x" and scaled > 0 and raw > 0


def test_self_time_and_busy_time_from_spans():
    s = [
        (0, 1, 0, "construct.minimal", 0.0, 10.0),
        (0, 2, 1, "bvp1d.solve_on_nodes", 1.0, 5.0),
        (0, 3, 2, "funcs.phi_values", 1.0, 2.0),
        (0, 4, 1, "construct.aitken", 6.0, 8.0),
        (0, 5, 4, "construct.aitken", 6.5, 7.0),
    ]
    m = spans.layer_metrics(s, spans.Counter())
    assert m["construct.minimal.busy_s"] == 10.0
    assert m["construct.aitken.busy_s"] == 2.0  # the nested span is not counted twice
    assert m["bvp1d.self_s"] == 3.0
    assert m["funcs.self_s"] == 1.0
    assert m["construct.self_s"] == (10.0 - 6.0) + (2.0 - 0.5) + 0.5


def test_importtime_parse():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1000 |       5000 | scipy.linalg\n"
            "import time:       250 |        300 |   elliptic_lab.quad\n"
            "import time:        50 |       5350 | elliptic_lab\n")
    assert spans.parse_importtime(text) == {"import.self_s": 300e-6, "import.scipy_s": 1000e-6}


def test_compare_reports_deviation_and_mismatch():
    ref = {"a": {"text": ["x"], "numbers": [1.0, 0.0, -2.0]},
           "b": {"text": [], "numbers": [3.0]}}
    assert reference.compare(ref, copy.deepcopy(ref)) == (0.0, 0)
    moved = copy.deepcopy(ref)
    moved["a"]["numbers"][2] = -2.0 * (1 + 1e-6)
    dev, mism = reference.compare(ref, moved)
    assert mism == 0 and dev == pytest.approx(1e-6, rel=1e-3)
    moved["b"]["text"] = ["y"]
    assert reference.compare(ref, moved)[1] == 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_reference_recorded_for_every_operation(name):
    workload = run.load_workload(name)
    with run.workdir_for(name, 0) as workdir:
        keys = {op.key for op in workload.prepare(workload.draw(0), workdir)}
    assert set(reference.load(name)) == keys


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_cold_traced_run_reports_every_layer_metric():
    proc = _run(["--workload", "cli-cold", "--seed", "5", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.parse_s"] > 0 and m["cli.write_s"] > 0 and m["import.scipy_s"] > 0
    assert m["output_mismatches"] == 0


def test_run_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOAD_NAMES)
