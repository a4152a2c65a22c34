"""Minimal solutions, two-parameter families, exterior shells, gluing, superposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import elliptic_lab as el
from elliptic_lab.bvp1d import AUDIT_TOL
from elliptic_lab.construct import (_doublings, _ladder_gaps, _origin_ladder,
                                    _radial_inequality_residual, _trusted_window)
from elliptic_lab.problem import center_distance


# ---------------------------------------------------------------------------
# minimal solution around the origin
# ---------------------------------------------------------------------------

def test_minimal_matches_closed_form(minimal64, closed_form):
    rw = np.geomspace(0.1, 10.0, 400)
    rel = np.max(np.abs(minimal64.value.profile(rw) - closed_form(rw)) / closed_form(rw))
    assert rel <= 0.02


def test_minimal_refuses_nonexistent():
    bad = el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -2.0), el.PowerF(1.0), el.Origin())
    with pytest.raises(el.NoSolutionError):
        el.minimal_solution(bad, n_max=8, nodes=512)


def test_minimal_vanishing_moment_at_origin(minimal64):
    # r^{N-2} u -> 0 toward the puncture: decreasing trend on the smallest
    # trusted octaves
    prof = minimal64.value.profile
    lo = minimal64.value.trusted_window[0]
    r = lo * 2.0 ** np.arange(4)[::-1]
    vals = r * prof(r)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 0.3


def test_minimal_monotone_exhaustion(minimal64):
    # raw iterates are pointwise nondecreasing across the ladder; evaluation
    # of the finer level on the coarser nodes carries only interpolation slack
    levels = minimal64.value.raw_levels
    for prev, cur in zip(levels, levels[1:]):
        lo = prev.r_min * 1.05
        hi = prev.r_max / 1.05
        r = prev.grid.interior
        mask = (r >= lo) & (r <= hi)
        gap = cur(r[mask]) - prev.values[1:-1][mask]
        scale = max(1.0, float(np.max(prev.values)))
        assert float(np.min(gap)) >= -1e-8 * scale


def test_minimal_window_increments_decrease(minimal64):
    inc = minimal64.value.window_increments
    assert all(b < a for a, b in zip(inc, inc[1:]))


def test_minimal_ladder_below_a_power_of_two(problem_power):
    # n_max = 24: the doublings 3, 6, 12, 24 end at n_max, and the refinements
    # 24 * 2^(-j/3) sit between them
    ms = el.minimal_solution(problem_power, n_max=24, nodes=256)
    doublings = [3.0, 6.0, 12.0, 24.0]
    assert ms.raw_levels == [ms.levels[n] for n in doublings]
    assert [p.r_max for p in ms.raw_levels] == pytest.approx(doublings, rel=1e-14)
    refinements = {24.0 * 2.0 ** (-j / 3.0) for j in range(1, 7)}
    assert list(ms.levels) == sorted(set(doublings) | refinements)
    assert ms.raw_last is ms.levels[24.0]
    assert ms.trusted_window == _trusted_window(24.0)
    assert len(ms.window_increments) == 3


def _parent_ladder(n_max: int) -> list[float]:
    """The ladder before it ended at n_max: doublings 2, 4, ... up to n_max,
    and the refinements n_max 2^(-j/3)."""
    doublings = [2.0 ** k for k in range(1, n_max.bit_length())]
    return sorted(set(doublings).union(float(n_max) * 2.0 ** (-j / 3.0) for j in range(1, 7)))


@settings(max_examples=200, deadline=None)
@given(n_max=st.integers(4, 4096))
def test_ladder_ends_at_n_max(n_max):
    ladder = _origin_ladder(float(n_max))
    assert ladder[-1] == n_max and ladder == sorted(set(ladder))
    assert min(ladder) >= 2.0 and min(_doublings(float(n_max))) < 4.0
    top = np.array(ladder[-7:])
    assert np.allclose(top[1:] / top[:-1], 2.0 ** (1.0 / 3.0), rtol=1e-14, atol=0.0)
    assert set(_doublings(float(n_max))) <= set(ladder)
    if n_max >= 8 and n_max & (n_max - 1) == 0:
        assert ladder == _parent_ladder(n_max)


def test_minimal_matches_closed_form_between_powers_of_two(problem_power, closed_form):
    # the top seven levels step by 2^(1/3) up to n_max = 100 itself, so the
    # Aitken rows are geometric (mixed with the doublings 32 and 64 they were
    # 0.19 off)
    ms = el.minimal_solution(problem_power, n_max=100, nodes=2048)
    rw = np.geomspace(0.1, 10.0, 400)
    assert np.max(np.abs(ms.profile(rw) - closed_form(rw)) / closed_form(rw)) <= 0.02


def test_ladder_gaps_check_the_order_of_zero_data_ladders():
    grid = el.RadialGrid.geometric(0.25, 4.0, 64, 3)
    low = el.RadialProfile(grid=grid, values=np.where(grid.nodes < 4.0, 1.0, 0.0))
    high = el.RadialProfile(grid=grid, values=np.where(grid.nodes < 4.0, 1.5, 0.0))
    assert _ladder_gaps([low, high], (0.5, 2.0), ordered=True) == [0.5]
    assert _ladder_gaps([high, low], (0.5, 2.0), ordered=False) == [0.5]
    with pytest.raises(el.NoSolutionError, match="lost monotonicity by -5"):
        _ladder_gaps([high, low], (0.5, 2.0), ordered=True)
    assert _ladder_gaps([high, low], (5.0, 6.0), ordered=True) == [np.inf]


def test_minimal_tail_decay(minimal64):
    vals = minimal64.value.profile.values
    tail = vals[-80:-1]
    assert np.all(np.diff(tail[tail > 0]) < 0)


def test_minimal_generalizes_to_other_parameters():
    # N=4, p=2, alpha=-3: the substitution oracle gives c^3 = 9/5, q = -1/3
    cf = el.xi_closed_form(4, 2.0, -3.0)
    assert cf.coefficient ** 3 == pytest.approx(1.8, rel=1e-12)
    problem = el.ProblemSpec(4, el.PowerPhi(-3.0), el.PowerF(2.0), el.Origin())
    ms = el.minimal_solution(problem, n_max=64, nodes=2048)
    rw = np.geomspace(0.1, 10.0, 300)
    rel = np.max(np.abs(ms.profile(rw) - cf(rw)) / cf(rw))
    assert rel <= 0.02
    # the per-node truncation estimate covers the true error where extrapolated
    r = ms.profile.grid.nodes[1:-1]
    err = np.abs(ms.profile.values[1:-1] - cf(r))
    mask = np.isfinite(ms.truncation)
    covered = err[mask] <= 5.0 * np.maximum(ms.truncation[mask], 1e-14) + 0.05 * cf(r)[mask]
    assert np.mean(covered) >= 0.95


def test_minimal_with_log_corrected_weight():
    phi = el.PowerLogPhi(-3.2, 0.5)
    pb = el.ProblemSpec(3, phi, el.PowerF(1.0), el.Origin())
    assert el.classify_existence(pb).exists is True
    ms = el.minimal_solution(pb, n_max=32, nodes=1024)
    rep = el.residual_radial(ms.raw_last, pb, "equality", r_window=ms.trusted_window)
    assert rep.sup_norm_equation_defect <= 1e-8
    assert np.all(ms.raw_last.values[1:-1] > 0)


def test_exterior_with_general_nonlinearity(ball_problem):
    f = el.GeneralDecreasingF(lambda t: np.exp(-t))
    pb = el.ProblemSpec(3, el.PowerSplitPhi(-1.0, -3.0), f, el.Ball(1.0))
    ext = el.exterior_ball_minimal(pb, n_max=16, nodes=1024)
    vals = ext.profile.values
    assert np.all(vals[1:-1] > 0)
    assert np.all(np.diff(vals[-30:-1]) < 0)


def test_constructions_refuse_zero_weight():
    phi0 = el.TabulatedPhi(knots=np.array([0.5, 2.0]), values=np.array([0.0, 0.0]),
                           near0_exp=0.0, tail_exp=-3.0)
    with pytest.raises(el.DomainError):
        el.exterior_ball_minimal(el.ProblemSpec(3, phi0, el.PowerF(1.0), el.Ball(1.0)),
                                 n_max=4, nodes=256)
    with pytest.raises(el.DomainError):
        el.minimal_solution(el.ProblemSpec(3, phi0, el.PowerF(1.0), el.Origin()),
                            n_max=4, nodes=256)


# ---------------------------------------------------------------------------
# two-parameter family
# ---------------------------------------------------------------------------

def test_family_sandwich_margins(family_grid):
    for (a, b), fm in family_grid.value.items():
        scale = max(1.0, a * 4096.0 + b)
        assert fm.sandwich_lower_margin >= -1e-8 * scale
        assert fm.sandwich_upper_margin >= -1e-8 * scale


def test_family_asymptotics(family_grid):
    for (a, b), fm in family_grid.value.items():
        est = el.asymptotics(fm.profile, 3, samples=8, window=fm.trusted_window)
        tol = 0.01 * max(1.0, a, b)
        assert abs(est.a_hat - a) <= tol, (a, b, est.a_hat)
        assert abs(est.b_hat - b) <= tol, (a, b, est.b_hat)


def test_family_minimality(problem_power, minimal64):
    # the zero-parameter member dominates the minimal iterate on the same grid
    fm = el.family_member(problem_power, 1.0, 0.5, minimal64.value, n_max=64)
    assert el.comparison_check(fm.raw_last, minimal64.value.raw_last)


def test_family_zero_parameters_consistent(problem_power, minimal64):
    # a = b = 0 reproduces the minimal solution within the construction's
    # own truncation scale (both estimate the same exhaustion limit)
    fm = el.family_member(problem_power, 0.0, 0.0, minimal64.value, n_max=64)
    rw = np.geomspace(0.5, 2.0, 50)
    rel = np.max(np.abs(fm.profile(rw) - minimal64.value.profile(rw))
                 / minimal64.value.profile(rw))
    assert rel <= 0.01
    assert el.comparison_check(fm.raw_last, minimal64.value.raw_last)


def test_family_zero_member_is_the_minimal_ladder(problem_power, minimal64):
    fm = el.family_member(problem_power, 0.0, 0.0, minimal64.value, n_max=64)
    assert np.array_equal(fm.profile.values, minimal64.value.profile.values)
    assert fm.raw_last is minimal64.value.raw_last  # reused, not solved again
    assert fm.sandwich_lower_margin == 0.0
    assert fm.sandwich_upper_margin == 0.0


def test_family_member_with_positive_data_needs_no_regularization():
    # with the whole eps schedule on every level this member stopped at the
    # iteration cap (eps = 1.9e-6); positive data need only the final eps
    problem = el.ProblemSpec(3, el.PowerPhi(-3.05), el.PowerF(2.0), el.Origin())
    xi = el.minimal_solution(problem, n_max=4096, nodes=2048)
    fm = el.family_member(problem, 0.0, 1.0, xi, n_max=4096)
    assert fm.sandwich_lower_margin >= -AUDIT_TOL
    assert fm.sandwich_upper_margin >= -AUDIT_TOL


def test_family_below_the_minimal_ladder(problem_power, minimal64):
    # a member solves on xi's whole ladder: any n_max but its top level 64 is
    # refused, and a member of the ladder that ends at 24 ends there too
    for n_max in (8, 24, 100):
        with pytest.raises(el.DomainError, match="top level 64"):
            el.family_member(problem_power, 1.0, 0.5, minimal64.value, n_max=n_max)
    xi = el.minimal_solution(problem_power, n_max=24, nodes=256)
    fm = el.family_member(problem_power, 1.0, 0.5, xi, n_max=24)
    assert list(fm.levels) == list(xi.levels)
    assert fm.raw_last.grid is xi.levels[24.0].grid
    assert fm.trusted_window == xi.trusted_window == _trusted_window(24.0)
    assert len(fm.window_increments) == 3


def test_family_harnack_type_lower_bound(problem_power, minimal64):
    # inf of u(r) r^{-(2+alpha)/(1+p)} over r <= 1, and the tail-side analogue
    # over r >= 1, are positive and stable under refinement (exponent -1/2 here)
    inner_vals = {}
    outer_vals = {}
    for nodes in (1024, 2048):
        ms = el.minimal_solution(problem_power, n_max=32, nodes=nodes)
        prof = ms.profile
        r = prof.grid.nodes
        lo, hi = ms.trusted_window
        inner = (r >= lo) & (r <= 1.0)
        outer = (r >= 1.0) & (r <= hi)
        inner_vals[nodes] = float(np.min(prof.values[inner] * r[inner] ** 0.5))
        outer_vals[nodes] = float(np.min(prof.values[outer] * r[outer] ** 0.5))
        assert inner_vals[nodes] > 0
        assert outer_vals[nodes] > 0
    assert abs(inner_vals[2048] - inner_vals[1024]) <= 0.2 * inner_vals[2048]
    assert abs(outer_vals[2048] - outer_vals[1024]) <= 0.2 * outer_vals[2048]


def test_family_rejects_general_f(minimal64):
    f = el.GeneralDecreasingF(lambda t: 1.0 / (1.0 + t))
    problem = el.ProblemSpec(3, el.PowerPhi(-3.0), f, el.Origin())
    with pytest.raises(el.UnsupportedCombinationError):
        el.family_member(problem, 1.0, 0.0, minimal64.value, n_max=8)


# ---------------------------------------------------------------------------
# exterior shells
# ---------------------------------------------------------------------------

def test_exterior_profile_shape(exterior32, ball_problem):
    prof = exterior32.value.profile
    assert prof.values[0] == 0.0
    assert np.all(prof.values[1:-1] > 0)
    tail = prof.values[-40:-1]
    assert np.all(np.diff(tail) < 0)


def test_exterior_increments_per_doubling(exterior32):
    # shells at n = 2, 4, 8, 16, 32: log2(32) - 1 increments
    inc = exterior32.value.window_increments
    assert len(inc) == 4 and all(np.isfinite(inc))


def test_exterior_ladder_ends_at_n_max(ball_problem):
    ext = el.exterior_ball_minimal(ball_problem, n_max=24, nodes=512)
    assert list(ext.levels) == [3.0, 6.0, 12.0, 24.0] == [
        p.r_max - 1.0 for p in ext.raw_levels]
    assert ext.profile is ext.raw_last is ext.levels[24.0]
    assert len(ext.window_increments) == 3 and all(np.isfinite(ext.window_increments))


@pytest.mark.parametrize("nodes", [32, 64, 128])
def test_exterior_order_check_on_coarse_grids(ball_problem, nodes):
    # the exterior levels take nodes as given: on coarse boundary-layer grids
    # each shell still lies above the one before it over the whole increment
    # window, so the order check passes where the window holds nodes
    ext = el.exterior_ball_minimal(ball_problem, n_max=32, nodes=nodes)
    inc = ext.window_increments
    assert len(inc) == 4 and all(np.isfinite(inc))
    for prev, cur in zip(ext.raw_levels, ext.raw_levels[1:]):
        r = cur.grid.interior
        r = r[(r >= 1.0 + 1e-5) & (r <= 1.5)]
        assert np.min(cur(r) - prev(r)) > 0.0


def test_exterior_refusal():
    bad = el.ProblemSpec(3, el.PowerPhi(-3.0), el.PowerF(1.0), el.Ball(1.0))
    with pytest.raises((el.NoSolutionError, el.DivergenceError)):
        el.exterior_ball_minimal(bad, n_max=4, nodes=256)


@pytest.mark.parametrize("delta_min", [0.05, 0.1])
def test_exterior_refuses_delta_min_at_layer_window_bound(delta_min):
    # layer_window = (max(1e-3, 2 delta_min), 0.1) would be empty or inverted
    pb = el.ProblemSpec(3, el.PowerSplitPhi(-1.0, -3.0), el.PowerF(1.0), el.Ball(1.0))
    with pytest.raises(el.DomainError, match="delta_min"):
        el.exterior_ball_minimal(pb, n_max=4, nodes=256, delta_min=delta_min)


def test_exterior_ratio_bracket(exterior32, ball_problem):
    H = el.solve_H(ball_problem.phi, ball_problem.f, nodes=4096)
    lo, hi, _ = el.ratio_bracket(exterior32.value.profile, H, 1.0, (1e-3, 0.1))
    assert hi / lo <= 10.0


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def test_glue_on_identical_supersolution_branches(closed_form, problem_power):
    # the closed-form solution satisfies the equation exactly, so the first
    # amplitude already passes and the glued field dominates the branch
    r_in = np.geomspace(1e-3, 1.0, 300)
    r_out = np.geomspace(1.0, 1e3, 300)
    inner = el.RadialProfile(grid=el.RadialGrid(nodes=r_in, dimension=3),
                             values=closed_form(r_in))
    outer = el.RadialProfile(grid=el.RadialGrid(nodes=r_out, dimension=3),
                             values=closed_form(r_out))
    U = el.glue_supersolution(inner, outer, problem_power)
    assert U.M == 1.0
    rr = np.geomspace(2e-3, 500.0, 200)
    assert np.all(U(rr) >= closed_form(rr))


def test_glued_field_residual(glued_split):
    U = glued_split.value
    problem = U.problem
    rr = np.geomspace(U.inner.r_min * 2.0, U.outer.r_max / 2.0, 400)
    res = _radial_inequality_residual(U, problem, rr)
    assert float(np.min(res)) >= -1e-6


def test_glue_amplitude_monotone_improvement(glued_split):
    # on the blend annulus the residual improves when the bump amplitude grows
    U = glued_split.value
    rr = np.geomspace(U.rho0, U.R_blend, 64)
    res1 = _radial_inequality_residual(U, U.problem, rr)
    bigger = el.GluedField(inner=U.inner, outer=U.outer, rho0=U.rho0,
                           R_blend=U.R_blend, M=2.0 * U.M, N=U.N, problem=U.problem)
    res2 = _radial_inequality_residual(bigger, U.problem, rr)
    assert float(np.min(res2)) >= float(np.min(res1)) - 1e-12


def test_glue_needs_overlap(problem_power, closed_form):
    r_in = np.geomspace(1e-3, 0.2, 64)
    r_out = np.geomspace(1.0, 100.0, 64)
    inner = el.RadialProfile(grid=el.RadialGrid(nodes=r_in, dimension=3),
                             values=closed_form(r_in))
    outer = el.RadialProfile(grid=el.RadialGrid(nodes=r_out, dimension=3),
                             values=closed_form(r_out))
    with pytest.raises(el.DomainError):
        el.glue_supersolution(inner, outer, problem_power)


# ---------------------------------------------------------------------------
# superposition
# ---------------------------------------------------------------------------

def _scattered_points(N: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(N)
    x = rng.normal(size=(1000, N)) * 10.0 ** rng.uniform(-3, 3, size=(1000, 1))
    return x, rng.normal(size=N)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
def test_center_distance_is_the_norm_bit_for_bit(N):
    x, a = _scattered_points(N)
    assert np.array_equal(center_distance(x, a), np.linalg.norm(x - a[None, :], axis=1))
    origin = el.ProblemSpec(N, el.PowerPhi(-3.0), el.PowerF(1.0), el.Origin())
    assert np.array_equal(origin.delta_points(x), np.linalg.norm(x, axis=1))


@pytest.mark.parametrize("N", range(2, 11))
def test_center_distance_sums_the_squares_from_the_left(N):
    x, a = _scattered_points(N)
    total = np.zeros(len(x))
    for j in range(N):
        total = total + (x[:, j] - a[j]) ** 2
    assert np.array_equal(center_distance(x, a), np.sqrt(total))


def test_superposition_single_center_identity(glued_split):
    U = glued_split.value
    V = el.superposition_field(U, [[0.0, 0.0, 0.0]])
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(64, 3)) * 3.0
    exact = U(np.linalg.norm(pts, axis=1))
    assert np.max(np.abs(V(pts) - exact)) == 0.0


def test_superposition_delta_geometry(glued_split):
    V = el.superposition_field(glued_split.value, [[0, 0, 0], [4, 0, 0]])
    assert V.delta(np.array([[2.0, 0.0, 0.0]]))[0] == pytest.approx(2.0)
    assert V.delta(np.array([[4.0, 1.0, 0.0]]))[0] == pytest.approx(1.0)


def test_superposition_two_center_audit(glued_split):
    centers = ((0.0, 0.0, 0.0), (4.0, 0.0, 0.0))
    V = el.superposition_field(glued_split.value, centers)
    problem = el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -3.0), el.PowerF(1.0),
                             el.PointSet(centers))
    rep = el.residual_field(V, problem, samples=10_000, h=0.01, seed=42)
    assert rep.fraction_nonnegative >= 0.99


def test_superposition_empty_centers():
    with pytest.raises(el.DomainError):
        el.superposition_field(lambda r: 1.0 / r, np.zeros((0, 3)))
    # an empty list becomes a (1, 0) array, one center with no coordinates
    with pytest.raises(el.DomainError):
        el.superposition_field(lambda r: 1.0 / r, [])
