#!/usr/bin/env python3
"""Benchmark runner for elliptic-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/ as is.
The run times fresh-process imports and the input build (set-up), warms up
until every kind of operation has run once, then repeats passes over the
workload's operations for S seconds with tracing off, checking every output.  With
--trace 1 it then runs one traced pass and one pass at the default seed for
the reference comparison, and reports the per-layer metrics instead of the
end-to-end ones.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
Exits 2 without a result when src/elliptic_lab is missing.
"""

from __future__ import annotations

import os
import sys

from cold import COMMANDS as COLD_COMMANDS
from common import DEFAULT_SEED, ROOT, SRC, THREAD_ENV, child_env

os.environ.update(THREAD_ENV)  # before numpy loads in this process

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import calibrate  # noqa: E402  (loads numpy)

WORKLOAD_NAMES = ("phase-sweep", "ladder", "superposition", "cli-cold")
SETUP_REPEATS = 3
# op_ms.tail percentile per workload: the highest of these with at least ten
# samples beyond it in a run of BENCHMARK.json's length at the commit that
# defined the benchmark.  Fixed, so that a faster program, which takes more
# samples, is not measured at a higher percentile; cli-cold takes too few
# samples for any and reports its maximum.
TAIL_PERCENTILE = {"phase-sweep": 97.5, "ladder": 80.0, "superposition": 75.0,
                   "cli-cold": 100.0}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MiB",
}

# Output quality over all operations of a run: how values combine, and the
# value reported by a workload that has no such output.
QUALITY = {
    "verdict_mismatches": (sum, 0.0),
    "closed_form_rel_err": (max, 0.0),
    "sandwich_margin_min": (min, 0.0),
    "field_frac_nonneg_min": (min, 1.0),
}

# name -> (unit, better); the traced run reports exactly these.
PER_LAYER = {
    "import.self_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "quad.classify.busy_s": ("s", "lower"),
    "quad.lemma.busy_s": ("s", "lower"),
    "quad.evaluations": ("count", "lower"),
    "quad.determinate_frac": ("ratio", "higher"),
    "quad.cumulative.busy_s": ("s", "lower"),
    "quad.cumulative.calls": ("count", "lower"),
    "quad.self_s": ("s", "lower"),
    "funcs.phi_values.calls": ("count", "lower"),
    "funcs.phi_values.points": ("count", "lower"),
    "funcs.phi_values.busy_s": ("s", "lower"),
    "funcs.supersolution.busy_s": ("s", "lower"),
    "funcs.self_s": ("s", "lower"),
    "bvp1d.solve_on_nodes.busy_s": ("s", "lower"),
    "bvp1d.banded_solves": ("count", "lower"),
    "bvp1d.eps_levels": ("count", "lower"),
    "bvp1d.solves_per_level": ("ratio", "lower"),
    "bvp1d.self_s": ("s", "lower"),
    "construct.minimal.busy_s": ("s", "lower"),
    "construct.family.busy_s": ("s", "lower"),
    "construct.exterior.busy_s": ("s", "lower"),
    "construct.aitken.busy_s": ("s", "lower"),
    "construct.glue.busy_s": ("s", "lower"),
    "construct.self_s": ("s", "lower"),
    "construct.ladder_levels": ("count", "lower"),
    "construct.glue.doublings": ("count", "lower"),
    "analysis.residual_field.busy_s": ("s", "lower"),
    "analysis.field_evals": ("count", "lower"),
    "analysis.residual_radial.busy_s": ("s", "lower"),
    "analysis.asymptotics.busy_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    **{f"cold_s.{name}": ("s", "lower") for name in COLD_COMMANDS},
    "fail_frac": ("ratio", "lower"),
    "verdict_mismatches": ("count", "lower"),
    "closed_form_rel_err": ("ratio", "lower"),
    "sandwich_margin_min": ("ratio", "higher"),
    "field_frac_nonneg_min": ("ratio", "higher"),
    "output_max_rel_dev": ("ratio", "lower"),
    "output_mismatches": ("count", "lower"),
}


def use_sources() -> bool:
    """Put src/ first on the import path; False (with a message) if it is missing."""
    if not (SRC / "elliptic_lab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'elliptic_lab'}; "
              "run from the root of an elliptic-lab checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def load_workload(name: str):
    if name == "cli-cold":
        from cold import ColdCli

        return ColdCli()
    from workloads import WORKLOADS

    return WORKLOADS[name]()


@contextlib.contextmanager
def workdir_for(name: str, seed: int):
    """Scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench" / f"work-{name}-{seed}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_op(op, state: dict):
    """(outputs or None, seconds, error message or None)."""
    t0 = time.perf_counter()
    try:
        out = op.run(state)
        error = None
    except Exception as exc:  # a failing operation is counted, not fatal
        out = None
        error = f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, error


class Tally:
    """Attempted and failed operations, failure reasons, and output quality."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.quality: dict[str, list[float]] = defaultdict(list)

    def add(self, workload, op, out, error) -> bool:
        self.attempted += 1
        if error is not None:
            reasons = [error]
        else:
            reasons, quality = workload.check(op, out)
            for name, value in quality.items():
                self.quality[name].append(value)
        if reasons:
            self.failed += 1
            self.failures.append((op.key, reasons))
        return not reasons

    def quality_metrics(self) -> dict[str, float]:
        out = {}
        for name, (combine, absent) in QUALITY.items():
            values = self.quality.get(name)
            out[name] = float(combine(values)) if values else absent
        return out


def _time_child(cmd: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(workload, seed: int, workdir):
    """Median fresh-process import time plus median time to build the inputs.

    The build is scaled to reference host speed; the import runs in a fresh
    process, whose speed the calibration kernel does not track, and is not."""
    imports = [_time_child([sys.executable, "-c", "import elliptic_lab"])
               for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        ops, scaled, _ = calibrate.timed(
            lambda: workload.prepare(workload.draw(seed), workdir))
        builds.append(scaled)
    return statistics.median(imports) + statistics.median(builds), ops


def importtime_metrics() -> dict[str, float]:
    import spans

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import elliptic_lab"],
                          cwd=ROOT, env=child_env(), check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return spans.parse_importtime(proc.stderr)


def warm_up(workload, ops, tally: Tally) -> None:
    """The shortest prefix of a pass that runs every kind of operation once,
    before anything is timed."""
    kinds = {op.kind for op in ops}
    seen = set()
    state: dict = {}
    for op in ops:
        out, _, error = run_op(op, state)
        tally.add(workload, op, out, error)
        seen.add(op.kind)
        if seen == kinds:
            break


def measure(workload, ops, seconds: float, tally: Tally) -> dict:
    """Repeat whole passes until the given time is up, so that every run times
    the same mix of operations whatever the seed's order of them.

    The calibration kernel runs before every operation and after the last.
    Each latency is kept raw and as reported: scaled to reference host speed
    for the in-process workloads, raw for the fresh processes of cli-cold."""
    latencies: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    samples: list[float] = []
    kernel: list[float] = []
    first_records: dict = {}
    passes = passed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while passes == 0 or time.perf_counter() < deadline:
        state: dict = {}
        results = []
        before = calibrate.kernel_s()
        for op in ops:
            out, dt, error = run_op(op, state)
            after = calibrate.kernel_after(dt)
            latency = calibrate.scaled(dt, before, after) if workload.in_process else dt
            kernel.append(before)
            before = after
            latencies[op.key].append(latency)
            raw[op.key].append(dt)
            samples.append(latency)
            results.append((op, out, error))
        # checks run between passes, outside the operations' timings
        for op, out, error in results:
            passed += tally.add(workload, op, out, error)
            if out is not None and op.key not in first_records:
                first_records[op.key] = workload.record(op, out)
        passes += 1
    elapsed = time.perf_counter() - start
    return {"latencies": latencies, "raw": raw, "samples": samples, "kernel": kernel,
            "passes": passes, "passed": passed, "elapsed": elapsed,
            "first_records": first_records}


def end_to_end(setup_s: float, run: dict, workload) -> tuple[dict, str]:
    samples = sorted(run["samples"])
    n = len(samples)
    q = TAIL_PERCENTILE[workload.name]
    rank = max(1, math.ceil(q / 100.0 * n))  # nearest rank
    tail_note = f"op_ms.tail is p{q:g} of {n} samples, {n - rank} beyond it"
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = workload.peak_rss_kb
    metrics = {
        "setup_s": setup_s,
        # one pass, op by op: the sum of each operation's median latency
        "wall_s": sum(statistics.median(v) for v in run["latencies"].values()),
        # per second spent in operations, at reference host speed
        "ops_per_s": run["passed"] / sum(samples),
        "op_ms.p50": 1e3 * statistics.median(samples),
        "op_ms.tail": 1e3 * samples[rank - 1],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return metrics, tail_note


def traced_pass(workload, ops, tally: Tally):
    """One pass with every layer boundary wrapped; the names are restored after."""
    import spans

    tracer = spans.Tracer()
    state = {"tracer": tracer}
    wall = 0.0
    with tracer:
        if workload.in_process:
            spans.install_layers(tracer)
        before = calibrate.kernel_s()
        for i, op in enumerate(ops):
            tracer.trace_id = i
            with tracer.span(f"op.{op.kind}"):
                out, dt, error = run_op(op, state)
            after = calibrate.kernel_after(dt)
            wall += calibrate.scaled(dt, before, after) if workload.in_process else dt
            before = after
            tally.add(workload, op, out, error)
    return tracer, wall


def reference_records(workload, seed: int, run: dict, workdir, tally: Tally) -> dict:
    """Outputs at the default seed: the timed run's own when it used that seed."""
    if seed == DEFAULT_SEED or not workload.seeded_outputs:
        return run["first_records"]
    state: dict = {}
    records = {}
    for op in workload.prepare(workload.draw(DEFAULT_SEED), workdir):
        out, _, error = run_op(op, state)
        tally.add(workload, op, out, error)
        if out is not None:
            records[op.key] = workload.record(op, out)
    return records


def per_layer(workload, ops, seed, run, wall_s, workdir, tally, importtime) -> dict:
    import reference
    import spans

    tracer, traced_wall = traced_pass(workload, ops, tally)
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.dump(traces / f"{workload.name}-seed{seed}.json")
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    metrics.update(importtime)
    metrics["trace.overhead_s"] = traced_wall - wall_s
    metrics["trace.spans"] = float(len(tracer.spans))
    for name in COLD_COMMANDS:
        lat = run["latencies"].get(name) if workload.name == "cli-cold" else None
        metrics[f"cold_s.{name}"] = statistics.median(lat) if lat else 0.0
    records = reference_records(workload, seed, run, workdir, tally)
    dev, mismatches = reference.compare(reference.load(workload.name), records)
    metrics["output_max_rel_dev"] = dev
    metrics["output_mismatches"] = float(mismatches)
    metrics.update(tally.quality_metrics())
    metrics["fail_frac"] = tally.failed / tally.attempted
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        return 2

    workload = load_workload(args.workload)
    tally = Tally()
    with workdir_for(workload.name, args.seed) as workdir:
        setup_s, ops = measure_setup(workload, args.seed, workdir)
        importtime = importtime_metrics() if args.trace else {}
        warm_up(workload, ops, tally)
        run = measure(workload, ops, args.seconds, tally)
        e2e, tail_note = end_to_end(setup_s, run, workload)
        if args.trace:
            values = per_layer(workload, ops, args.seed, run, e2e["wall_s"], workdir, tally,
                               importtime)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values = e2e
            units = END_TO_END

    print(f"# workload {workload.name} seed {args.seed}: {run['passes']} full passes, "
          f"{len(run['samples'])} timed operations in {run['elapsed']:.2f} s")
    print(f"# {tail_note}")
    raw_wall = sum(statistics.median(v) for v in run["raw"].values())
    print(f"# in-process times are scaled to reference host speed: calibration kernel "
          f"median {1e3 * statistics.median(run['kernel']):.4f} ms here, "
          f"{1e3 * calibrate.REF_S:g} ms reference; unscaled wall_s = {raw_wall:.6g} s")
    for name, value in e2e.items():
        print(f"# {name} = {value:.6g} {END_TO_END[name]}")
    for name, value in tally.quality_metrics().items():
        if name in tally.quality:
            print(f"# {name} = {value:.6g} {PER_LAYER[name][0]}")
    for key, reasons in tally.failures:
        print(f"# FAILED {key}: {'; '.join(reasons)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
