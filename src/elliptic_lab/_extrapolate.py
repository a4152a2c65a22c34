"""Guarded iterated Aitken extrapolation for geometrically converging sequences.

Sequences produced on geometric ladders (doubling radii, octave-spaced sample
points) converge like L + C rho^k with locally constant rho, which Aitken's
delta-squared removes exactly.  Iteration is guarded: a level is accepted only
while the last-column correction keeps shrinking and its denominators stay
well conditioned, so noisy deep levels cannot destroy a good earlier estimate.
"""

from __future__ import annotations

import numpy as np

MAX_LEVELS = 3  # Aitken transforms tried per sequence


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _aitken(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Guarded Aitken on a (terms, points) array, every column a sequence.

    The first transform is always applied when three terms exist; deeper levels
    are accepted, per column, only while the transformed row keeps flattening
    (its last internal difference shrinks), which stops noise amplification.
    A column whose guard fails drops out (its active flag clears).  The error
    is the accepted row's last internal difference.
    """
    best = rows[-1]
    err = np.abs(rows[-1] - rows[-2]) if len(rows) >= 2 else np.full(rows.shape[1], np.inf)
    active = np.ones(rows.shape[1], dtype=bool)
    cur = rows
    for level in range(MAX_LEVELS):
        if len(cur) < 3:
            break
        d1 = cur[1:-1] - cur[:-2]
        d2 = cur[2:] - cur[1:-1]
        den = d2 - d1
        flat = np.abs(den) <= 1e-13 * np.maximum(np.abs(cur[2:]), 1e-300)
        nxt = np.where(flat, cur[2:], cur[2:] - d2 * d2 / den)
        cons = np.abs(nxt[-1] - (nxt[-2] if len(nxt) >= 2 else cur[-1]))
        if level > 0:
            active &= ~((cons >= err) & np.isfinite(err))
        best = np.where(active, nxt[-1], best)
        err = np.where(active, cons, err)
        cur = nxt
    return best, err


def aitken_limit(seq: np.ndarray) -> tuple[float, float]:
    """Limit estimate and residual estimate for one scalar sequence."""
    col = np.asarray(seq, dtype=float).reshape(-1, 1)
    if len(col) == 0:
        raise ValueError("empty sequence")
    best, err = _aitken(col)
    return float(best[0]), float(err[0])


def aitken_limit_rows(table: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise guarded Aitken over a (levels, points) table.

    valid marks usable entries per (level, point); invalid levels are dropped
    for that point, and a point with no valid level gets (nan, inf).  Columns
    sharing a valid pattern are extrapolated together; the patterns are told
    apart by the integer whose bits are a column's valid flags, so a table
    has at most 63 levels.  Returns (limits, errors) per point.
    """
    table = np.asarray(table, dtype=float)
    limits = np.full(table.shape[1], np.nan)
    errors = np.full(table.shape[1], np.inf)
    valid = np.asarray(valid, dtype=bool)
    if len(valid) > 63:
        raise ValueError("at most 63 levels")
    code = (1 << np.arange(len(valid), dtype=np.int64)) @ valid
    _, first, which = np.unique(code, return_index=True, return_inverse=True)
    for k, col in enumerate(first):
        rows = valid[:, col]
        if not rows.any():
            continue
        cols = which == k
        limits[cols], errors[cols] = _aitken(table[rows][:, cols])
    return limits, errors
