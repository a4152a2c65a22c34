"""Pieces shared by the runner and the workloads: paths, thread settings,
the operation record and the seeded generator."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0

# Fixed BLAS/OpenMP thread counts for the runner and every child process.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    """Environment for child processes: the thread settings and src/ on the path."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Op:
    """One operation of a pass; ``run(state)`` returns its outputs.

    ``state`` is shared by the operations of one pass, so a construction can
    reuse a result made earlier in the same pass (family members reuse the
    minimal solution); it starts empty in every pass.
    """

    key: str
    kind: str
    run: Callable[[dict], dict]


def rng_for(seed: int, salt: int):
    """Generator for one workload's draw; the salt separates the workloads."""
    # imported here so that the runner can fix thread settings before numpy loads
    import numpy as np

    return np.random.default_rng([seed, salt])
