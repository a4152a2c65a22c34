"""Reference outputs and the comparator that measures deviation from them.

    python3 perfbench/reference.py [WORKLOAD ...]

re-records the reference outputs (default: every workload) from one pass at
the default seed and full size, run from the repository root.  A change whose
outputs move in the last digits reports by how much through
``output_max_rel_dev`` and ``output_mismatches`` in the traced run; it does
not re-record.
"""

from __future__ import annotations

import json
import sys

from common import BENCH, DEFAULT_SEED

REF_DIR = BENCH / "reference"


def path_for(workload: str):
    return REF_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    with open(path_for(workload), encoding="utf-8") as fh:
        return json.load(fh)


def compare(reference: dict, records: dict) -> tuple[float, int]:
    """(largest relative deviation of any number, operations whose text or shape differ).

    The deviation of x from r is |x - r| / max(|x|, |r|), which stays finite
    when r is zero.  Text (verdicts, CSV files) must match byte for byte.
    """
    worst = 0.0
    mismatches = 0
    for key, ref in reference.items():
        rec = records.get(key)
        if rec is None or rec["text"] != ref["text"] or len(rec["numbers"]) != len(ref["numbers"]):
            mismatches += 1
            continue
        for x, r in zip(rec["numbers"], ref["numbers"]):
            scale = max(abs(x), abs(r))
            if scale > 0.0:
                worst = max(worst, abs(x - r) / scale)
    mismatches += sum(1 for key in records if key not in reference)
    return worst, mismatches


def main(argv: list[str]) -> int:
    import run

    if not run.use_sources():
        return 2
    names = argv or list(run.WORKLOAD_NAMES)
    for name in names:
        workload = run.load_workload(name)
        with run.workdir_for(name, DEFAULT_SEED) as workdir:
            ops = workload.prepare(workload.draw(DEFAULT_SEED), workdir)
            state: dict = {}
            records = {}
            for op in ops:
                out, _, error = run.run_op(op, state)
                if error is not None:
                    print(f"{name}: {op.key} failed: {error}", file=sys.stderr)
                    return 1
                failures, _ = workload.check(op, out)
                if failures:
                    print(f"{name}: {op.key} failed its check: {failures}", file=sys.stderr)
                    return 1
                records[op.key] = workload.record(op, out)
        with open(path_for(name), "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: recorded {len(records)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
