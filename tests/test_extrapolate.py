"""Guarded Aitken extrapolation: the array form equals the list-based reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_lab._extrapolate import MAX_LEVELS, _aitken, aitken_limit, aitken_limit_rows


def _aitken_row(cur: list[float]) -> list[float]:
    nxt = []
    for i in range(len(cur) - 2):
        d1 = cur[i + 1] - cur[i]
        d2 = cur[i + 2] - cur[i + 1]
        den = d2 - d1
        if abs(den) <= 1e-13 * max(abs(cur[i + 2]), 1e-300):
            nxt.append(cur[i + 2])
        else:
            nxt.append(cur[i + 2] - d2 * d2 / den)
    return nxt


def _aitken_reference(seq) -> tuple[float, float]:
    """One scalar sequence at a time, on Python lists, with a break per guard."""
    s = [float(x) for x in np.asarray(seq, dtype=float)]
    if len(s) == 0:
        raise ValueError("empty sequence")
    best = s[-1]
    err = abs(s[-1] - s[-2]) if len(s) >= 2 else np.inf
    cur = s
    cons = err
    for level in range(MAX_LEVELS):
        if len(cur) < 3:
            break
        nxt = _aitken_row(cur)
        new_cons = abs(nxt[-1] - nxt[-2]) if len(nxt) >= 2 else abs(nxt[-1] - cur[-1])
        if level > 0 and new_cons >= cons and np.isfinite(cons):
            break
        best = nxt[-1]
        err = new_cons
        cur = nxt
        cons = new_cons
    return best, err


def _reference_rows(table, valid):
    out = [_aitken_reference(table[valid[:, j], j]) if valid[:, j].any() else (np.nan, np.inf)
           for j in range(table.shape[1])]
    return np.array([o[0] for o in out]), np.array([o[1] for o in out])


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


_FINITE = st.floats(-1e3, 1e3)


@st.composite
def _column(draw, terms: int) -> list[float]:
    kind = draw(st.sampled_from(["random", "geometric", "flat", "special"]))
    k = np.arange(terms)
    if kind == "random":
        return draw(st.lists(_FINITE, min_size=terms, max_size=terms))
    if kind == "geometric":  # L + C rho^k plus a second mode, as on a ladder
        L, C, D = draw(_FINITE), draw(_FINITE), draw(st.floats(-1.0, 1.0))
        rho, sigma = draw(st.floats(-0.95, 0.99)), draw(st.floats(0.0, 0.5))
        return list(L + C * rho ** k + D * sigma ** k)
    if kind == "flat":  # constant or arithmetic: the 1e-13 guard keeps the last term
        a, d = draw(_FINITE), draw(st.sampled_from([0.0, 1e-17, 1e-9, 1.0]))
        return list(a + d * k)
    return draw(st.lists(st.one_of(_FINITE, st.sampled_from([np.nan, np.inf, -np.inf])),
                         min_size=terms, max_size=terms))


@st.composite
def _tables(draw):
    terms = draw(st.integers(1, 9))
    points = draw(st.integers(1, 7))
    table = np.array([draw(_column(terms)) for _ in range(points)], dtype=float).T
    valid = np.array(draw(st.lists(st.lists(st.booleans(), min_size=points, max_size=points),
                                   min_size=terms, max_size=terms)))
    if draw(st.booleans()):  # all-invalid columns, with nan where invalid as on the ladder
        valid[:, draw(st.integers(0, points - 1))] = False
        table[~valid] = np.nan
    return table, valid


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_aitken_rows_equal_the_list_reference(case):
    table, valid = case
    limits, errors = aitken_limit_rows(table, valid)
    ref_limits, ref_errors = _reference_rows(table, valid)
    assert _same(limits, ref_limits) and _same(errors, ref_errors)
    for j in range(table.shape[1]):
        if valid[:, j].any():
            best, err = aitken_limit(table[valid[:, j], j])
            assert _same(best, ref_limits[j]) and _same(err, ref_errors[j])
        else:
            assert np.isnan(limits[j]) and errors[j] == np.inf


def _rows_by_unique_patterns(table, valid):
    """Columns grouped by np.unique(valid, axis=1), a sort of the patterns."""
    limits = np.full(table.shape[1], np.nan)
    errors = np.full(table.shape[1], np.inf)
    patterns, which = np.unique(valid, axis=1, return_inverse=True)
    which = which.ravel()
    for k, rows in enumerate(patterns.T):
        if rows.any():
            cols = which == k
            limits[cols], errors[cols] = _aitken(table[rows][:, cols])
    return limits, errors


@st.composite
def _shared_patterns(draw):
    """Tables of 1-9 levels whose columns share a few validity patterns."""
    terms = draw(st.integers(1, 9))
    points = draw(st.integers(1, 60))
    pool = draw(st.lists(st.lists(st.booleans(), min_size=terms, max_size=terms),
                         min_size=1, max_size=5))
    valid = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(points)],
                     dtype=bool).T.reshape(terms, points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    k = np.arange(terms)[:, None]
    table = rng.normal(size=points) + rng.normal(size=points) * rng.uniform(-1, 1, points) ** k
    table[rng.random(table.shape) < 0.05] = np.inf
    table[~valid] = np.nan
    return table, valid


@settings(max_examples=300, deadline=None)
@given(_shared_patterns())
def test_grouping_by_bit_code_equals_the_sorted_patterns(case):
    table, valid = case
    limits, errors = aitken_limit_rows(table, valid)
    ref_limits, ref_errors = _rows_by_unique_patterns(table, valid)
    assert _same(limits, ref_limits) and _same(errors, ref_errors)


def test_aitken_rows_refuse_more_levels_than_code_bits():
    with pytest.raises(ValueError, match="63 levels"):
        aitken_limit_rows(np.zeros((64, 2)), np.ones((64, 2), dtype=bool))


def test_aitken_removes_a_geometric_mode_exactly():
    k = np.arange(6)
    best, err = aitken_limit(2.0 + 0.5 ** k)
    assert best == pytest.approx(2.0, abs=1e-15)
    assert err < 1e-14


def test_aitken_of_empty_sequence_raises():
    with pytest.raises(ValueError):
        aitken_limit([])
