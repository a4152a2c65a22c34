"""cli-cold: each operation is one ``lab`` subcommand run as a fresh process.

The configs are fixed, so every seed runs the same four commands and their
CSV outputs can be compared byte for byte with the recorded reference; the
seed sets the order of the commands in a pass and the configs' ``seed`` field.
This module imports nothing from elliptic_lab: the parent process of this
workload only starts and waits for children.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from common import BENCH, Op, child_env, rng_for

# What the ``lab`` console script runs.
ENTRY = "import sys; from elliptic_lab.cli import main; sys.exit(main())"


SPLIT_CUBIC = {"N": 3, "phi": {"kind": "power_split", "alpha": -3, "beta": -3},
               "f": {"kind": "power", "p": 1}, "K": {"kind": "origin"}}
MINIMAL_64 = {"nodes": 2048, "n_max": 64, "which": "minimal"}

# name -> (command-line arguments, config, output files to check)
COMMANDS = {
    "classify": (["classify"], {"problem": SPLIT_CUBIC}, ["conditions.csv"]),
    "solve": (["solve", "--which", "minimal"], {"problem": SPLIT_CUBIC, "solve": MINIMAL_64},
              ["profile.csv", "residual.csv", "asymptotics.csv"]),
    "verify": (["verify", "--target", "minimal"],
               {"problem": SPLIT_CUBIC, "solve": MINIMAL_64, "verify": {"target": "minimal"}},
               ["verify.csv"]),
    "certify-divergence": (
        ["certify-divergence"],
        {"problem": {"N": 3, "phi": {"kind": "power", "alpha": -2},
                     "f": {"kind": "power", "p": 1}, "K": {"kind": "origin"}},
         "certify": {"regime": "boundary", "r0": 1.0}},
        ["certificate.csv"]),
}


class ColdCli:
    """Four fresh-process subcommands per pass."""

    name = "cli-cold"
    in_process = False
    seeded_outputs = False

    def __init__(self):
        self.first_files: dict[str, dict[str, str]] = {}
        self.peak_rss_kb = 0

    def draw(self, seed: int, smoke: bool = False) -> dict:
        rng = rng_for(seed, 4)
        order = [str(name) for name in rng.permutation(list(COMMANDS))]
        return {"order": order, "seed": seed}

    def prepare(self, inputs: dict, workdir: Path) -> list[Op]:
        ops = []
        for name in inputs["order"]:
            args, config, files = COMMANDS[name]
            cfg_path = workdir / f"{name}.json"
            cfg_path.write_text(json.dumps(dict(config, seed=inputs["seed"])), encoding="utf-8")
            # one kind for all four: the warm-up runs a single cold command
            ops.append(Op(name, "lab", self._op(name, args, cfg_path, workdir, files)))
        return ops

    def _op(self, name, args, cfg_path, workdir, files):
        out_dir = workdir / f"out-{name}"
        stderr_path = workdir / f"{name}.stderr"
        spans_path = workdir / f"{name}.spans.json"

        def run(state: dict) -> dict:
            tracer = state.get("tracer")
            env = child_env()
            if tracer is None:
                cmd = [sys.executable, "-c", ENTRY]
            else:
                cmd = [sys.executable, str(BENCH / "cli_child.py")]
                env["PERFBENCH_SPANS"] = str(spans_path)
            cmd += args + ["--config", str(cfg_path), "--out", str(out_dir)]
            with open(stderr_path, "wb") as err:
                proc = subprocess.Popen(cmd, cwd=workdir, env=env,
                                        stdout=subprocess.DEVNULL, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            if tracer is not None:
                with open(spans_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                tracer.adopt(child["spans"], child["counts"], tracer.current())
            texts = {}
            for fname in files:
                path = out_dir / fname
                texts[fname] = path.read_text(encoding="utf-8") if path.is_file() else None
            return {"code": proc.returncode, "files": texts,
                    "stderr": stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]}

        return run

    def check(self, op: Op, out: dict) -> tuple[list[str], dict]:
        failures = []
        if out["code"] != 0:
            failures.append(f"exit code {out['code']}: {out['stderr'].strip()}")
        missing = [f for f, text in out["files"].items() if text is None]
        if missing:
            failures.append(f"missing outputs {missing}")
        first = self.first_files.setdefault(op.key, out["files"])
        changed = [f for f in out["files"] if out["files"][f] != first.get(f)]
        if changed:
            failures.append(f"outputs differ from this run's first pass: {changed}")
        return failures, {}

    def record(self, op: Op, out: dict) -> dict:
        texts = [out["files"][f] or "" for f in sorted(out["files"])]
        numbers = []
        for text in texts:
            for line in text.splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        x = float(cell)
                    except ValueError:
                        continue
                    if math.isfinite(x):
                        numbers.append(x)
        return {"text": texts, "numbers": numbers}
