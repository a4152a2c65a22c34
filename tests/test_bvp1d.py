"""Flux-form grids, the regularized monotone solver, and the gauge profile."""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

import elliptic_lab as el
from elliptic_lab import bvp1d
from elliptic_lab.bvp1d import MonotoneCubic, flux_stack, neg_laplacian, solve_on_nodes


ONES = el.GeneralDecreasingF(lambda t: np.ones_like(np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# grids and profiles
# ---------------------------------------------------------------------------

def test_geometric_grid_constant_ratio():
    grid = el.RadialGrid.geometric(0.1, 10.0, 64, 3)
    ratios = grid.nodes[1:] / grid.nodes[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_grid_needs_16_nodes():
    with pytest.raises(el.DomainError):
        el.RadialGrid.geometric(0.1, 1.0, 8, 3)


def test_profile_interpolation_reproduces_nodes():
    grid = el.RadialGrid.geometric(0.5, 8.0, 32, 3)
    vals = 2.0 / np.sqrt(grid.nodes)
    prof = el.RadialProfile(grid=grid, values=vals)
    assert np.max(np.abs(prof(grid.nodes) - vals) / vals) < 1e-14


def test_profile_rejects_nonpositive_interior():
    grid = el.RadialGrid.geometric(0.5, 8.0, 32, 3)
    vals = np.ones(32)
    vals[5] = 0.0
    with pytest.raises(el.SolverFault):
        el.RadialProfile(grid=grid, values=vals)


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_profile_rejects_negative_or_nan_interior(bad):
    grid = el.RadialGrid.geometric(0.5, 8.0, 32, 3)
    vals = np.ones(32)
    vals[5] = bad
    with pytest.raises(el.SolverFault):
        el.RadialProfile(grid=grid, values=vals)


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


@st.composite
def knot_data(draw):
    """Strictly increasing knots (2 to 400) with monotone, sign-changing or
    piecewise flat values."""
    n = draw(st.integers(2, 400))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-50.0, 50.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    steps = st.one_of(st.just(0.0), st.floats(0.0, 100.0))
    kind = draw(st.sampled_from(["monotone", "signed", "flat runs"]))
    if kind == "monotone":
        rises = draw(st.lists(steps, min_size=n - 1, max_size=n - 1))
        sign = draw(st.sampled_from([1.0, -1.0]))
        y = sign * np.concatenate(([0.0], np.cumsum(rises)))
    elif kind == "signed":
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    else:
        levels = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
        y = np.array(levels)[np.arange(n) * len(levels) // n]
    return kind, x, y


def _queries(x: np.ndarray, fractions) -> np.ndarray:
    """The knots, their nextafter neighbours inside [x0, xn], and points at the
    given fractions of every segment."""
    h = np.diff(x)
    inside = [x[:-1] + u * h for u in fractions]
    return np.sort(np.concatenate([x, np.nextafter(x[1:], -np.inf),
                                   np.nextafter(x[:-1], np.inf), *inside]))


@settings(max_examples=60, deadline=None)
@given(knot_data(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
@example(("signed",  # one ulp below the third knot scipy is 13 ulps off, we are 1 ulp off
          np.array([250.65042944430854, 251.65042944430854, 256.0447955005762,
                    257.0447955005762]),
          np.array([0.0, 850.9936011194527, -869.2019813712335, 0.0])), [0.5])
def test_monotone_cubic_matches_scipy_pchip(data, fractions):
    kind, x, y = data
    q = _queries(x, fractions)
    ours = MonotoneCubic(x, y)(q)
    with np.errstate(over="ignore"):  # scipy's slopes at flat knots
        ref = PchipInterpolator(x, y)(q)
    # a few ulps of the cubic's terms, or less than the smallest normal double
    # (the data may be subnormal).  The knot slopes are at most 3 times the
    # secant, so the Hermite terms reach 3 |y[k+1] - y[k]|, which exceeds the
    # data where the segment changes sign
    k = np.clip(np.searchsorted(x, q, side="right") - 1, 0, len(x) - 2)
    scale = np.maximum.reduce([np.abs(y[k]), np.abs(y[k + 1]), 3.0 * np.abs(y[k + 1] - y[k])])
    assert np.all(np.abs(ours - ref) <= 8 * EPS * scale + TINY)
    assert np.array_equal(MonotoneCubic(x, y)(x), y)  # the knots are reproduced exactly
    if kind == "monotone":
        # monotone data give monotone values, continuation included
        span = x[-1] - x[0]
        dense = np.sort(np.concatenate([q, x[0] - span * np.linspace(0.01, 1, 5),
                                        x[-1] + span * np.linspace(0.01, 1, 5)]))
        v = MonotoneCubic(x, y)(dense) * np.sign(y[-1] - y[0] or 1.0)
        assert np.all(np.diff(v) >= -4 * EPS * np.max(np.abs(y)))


SUBNORMAL = np.nextafter(0.0, 1.0)


@st.composite
def lookup_knots(draw):
    """Strictly increasing knots (2 to 3000): the log-radii of geometric and
    boundary-layer grids, the unit gauge grid, random gaps over many scales,
    and knots a few subnormals apart."""
    kind = draw(st.sampled_from(["geometric", "boundary layer", "two-sided", "random", "subnormal"]))
    if kind == "geometric":
        n = draw(st.integers(16, 3000))
        lo = draw(st.floats(1e-6, 1.0))
        return np.log(el.RadialGrid.geometric(lo, lo * draw(st.floats(1.5, 1e8)), n, 3).nodes)
    if kind == "boundary layer":
        n = draw(st.integers(16, 3000))
        grid = el.RadialGrid.boundary_layer(draw(st.floats(0.1, 10.0)), draw(st.floats(1e-9, 1e-3)),
                                            draw(st.floats(1.0, 100.0)), n, 3)
        return np.log(grid.nodes)
    if kind == "two-sided":
        n = draw(st.integers(16, 3000))
        return el.RadialGrid.two_sided_unit(draw(st.floats(1e-9, 0.5 / n)), n).nodes
    n = draw(st.integers(2, 3000))
    if kind == "subnormal":
        gaps = draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
        return SUBNORMAL * (draw(st.integers(-50, 50)) + np.concatenate(([0], np.cumsum(gaps))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gaps = 10.0 ** rng.uniform(-9, 2, n - 1)
    return draw(st.floats(-1e3, 1e3)) + np.concatenate(([0.0], np.cumsum(gaps)))


def _lookup_queries(x: np.ndarray) -> np.ndarray:
    """The knots, their nextafter neighbours, midpoints, points far outside,
    the infinities, NaN, the signed zeros and subnormals."""
    span = x[-1] - x[0]
    edge = [-np.inf, np.inf, np.nan, 0.0, -0.0, SUBNORMAL, -SUBNORMAL, TINY, -TINY,
            -1e308, 1e308, x[0] - span, x[-1] + span, x[0] - 1e6, x[-1] + 1e6]
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                           0.5 * (x[:-1] + x[1:]), edge])


@settings(max_examples=80, deadline=None)
@given(lookup_knots(), st.sampled_from(["increasing", "random"]))
def test_monotone_cubic_lookup_is_searchsorted(x, values):
    """The guide-table lookup is searchsorted(side="right") for every double,
    and evaluation is the Horner formula of the segment it finds, bit for bit."""
    y = np.arange(x.size, dtype=float) if values == "increasing" else \
        np.random.default_rng(x.size).normal(size=x.size)
    q = _lookup_queries(x)
    # knots a few subnormals apart overflow the slopes and the bucket scale, and
    # far queries overflow (q - x0) * scale; the lookup stays exact
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mc = MonotoneCubic(x, y)
        k = np.searchsorted(x, q, side="right")
        assert np.array_equal(mc.index(q), k)
        assert all(mc.index(v) == kv for v, kv in zip(q[-15:], k[-15:]))  # 0-d queries
        s = q - mc._anchor[k]
        c3, c2, c1, c0 = mc._coef
        assert np.array_equal(mc(q), ((c3[k] * s + c2[k]) * s + c1[k]) * s + c0[k],
                              equal_nan=True)


@pytest.mark.parametrize("x, message", [
    ([0.0, 0.0, 1.0], "strictly increasing"),
    ([0.0], "two or more knots"),
    ([-1e308, 1e308], "finite interval"),  # the bucket scale would be 0
])
def test_monotone_cubic_rejects_bad_knots(x, message):
    with np.errstate(over="ignore"), pytest.raises(el.DomainError, match=message):
        MonotoneCubic(np.array(x), np.zeros(len(x)))


@pytest.mark.parametrize("ra, rb, count", [(1e-3, 1e3, 2048), (1.0, 64.0, 800),
                                           (0.5, 8.0, 16), (1e-8, 1e8, 4097)])
def test_geometric_profiles_look_up_in_one_step(ra, rb, count):
    """No bucket of a geometric grid (or of its Kelvin image) holds two knots,
    so the lookup is one bisection step; the edge values stay NaN."""
    grid = el.RadialGrid.geometric(ra, rb, count, 3)
    prof = el.RadialProfile(grid=grid, values=grid.nodes ** -0.7)
    for p in (prof, el.kelvin_transform(prof, 3)):
        assert p._log_interp._steps == (1,)
        with np.errstate(invalid="ignore"):  # the linear end segment's 0 * inf
            assert math.isnan(p(np.inf)) and math.isnan(p(np.nan))


def _old_profile_values(prof: el.RadialProfile, r: np.ndarray) -> np.ndarray:
    """The profile evaluation before the numpy interpolant: scipy's pchip of
    log-values against log-radius, continued along the end secants."""
    keep = (prof.values > 0) & (prof.grid.nodes > 0)
    interp = PchipInterpolator(np.log(prof.grid.nodes[keep]), np.log(prof.values[keep]),
                               extrapolate=False)
    x = np.log(r)
    lo, hi = interp.x[0], interp.x[-1]
    yl, yr = interp(interp.x[:2]), interp(interp.x[-2:])
    sl = (yl[1] - yl[0]) / (interp.x[1] - interp.x[0])
    sr = (yr[1] - yr[0]) / (interp.x[-1] - interp.x[-2])
    left, right = x < lo, x > hi
    inside = ~(left | right)
    out = np.empty_like(x)
    out[inside] = np.exp(interp(x[inside]))
    out[left] = np.exp(yl[0] + sl * (x[left] - lo))
    out[right] = np.exp(yr[1] + sr * (x[right] - hi))
    return out


@pytest.mark.parametrize("grid, values", [
    (el.RadialGrid.geometric(0.5, 8.0, 40, 3), lambda r: 2.0 / np.sqrt(r) + 0.5 * np.sin(r)),
    (el.RadialGrid.two_sided_unit(1e-5, 64), lambda t: np.sqrt(t * (1 - t))),
    (el.RadialGrid.boundary_layer(1.0, 1e-6, 10.0, 64, 4), lambda r: (r - 1.0) ** 0.3 + 1e-3 / r),
])
def test_profile_matches_the_scipy_evaluation(grid, values):
    """Inside the knots and along both power-law continuations."""
    prof = el.RadialProfile(grid=grid, values=values(grid.nodes))
    r = grid.nodes[grid.nodes > 0]
    lo, hi = r[0], r[-1]
    mids = np.sqrt(r[:-1] * r[1:])
    outside = np.concatenate([lo * np.geomspace(1e-6, 0.999, 9), hi * np.geomspace(1.001, 1e6, 9)])
    for points in (r, mids, outside):
        old = _old_profile_values(prof, points)
        assert np.allclose(prof(points), old, rtol=1e-13, atol=0.0)
    assert isinstance(prof(float(mids[3])), float)


def _old_two_sided_unit(t_min: float, count: int) -> np.ndarray:
    """The tanh-graded nodes with the grading found by brentq, as before."""
    if count % 2 == 0:
        count += 1
    xi = np.linspace(0.0, 1.0, count)

    def first_node(gamma: float) -> float:
        return 0.5 * (1.0 + math.tanh(gamma * (xi[1] - 0.5)) / math.tanh(gamma * 0.5))

    gamma = brentq(lambda g: first_node(g) - t_min, 1e-2, 80.0, xtol=1e-12)
    nodes = 0.5 * (1.0 + np.tanh(gamma * (xi - 0.5)) / np.tanh(gamma * 0.5))
    nodes[0], nodes[-1] = 0.0, 1.0
    return nodes


@pytest.mark.parametrize("t_min", [1e-3, 1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("count", [17, 101, 512, 4096])
def test_two_sided_unit_bisection_matches_brentq(t_min, count):
    if t_min > 1.0 / count:
        with pytest.raises(el.DomainError, match="t_min"):
            el.RadialGrid.two_sided_unit(t_min, count)
        return
    nodes = el.RadialGrid.two_sided_unit(t_min, count).nodes
    old = _old_two_sided_unit(t_min, count)
    # The first-node map is computed as 0.5 (1 + s) with s near -1, so it is a
    # staircase of steps eps / 2, flat over gamma intervals of relative width
    # about eps / t_min; the two root finders may stop anywhere on that step.
    assert np.allclose(nodes, old, rtol=EPS / t_min, atol=1e-12)
    assert nodes[1] == pytest.approx(t_min, rel=EPS / t_min + 1e-12)


@settings(max_examples=200, deadline=None)
@given(log_t=st.floats(-12.0, -3.0), count=st.integers(16, 4096))
def test_two_sided_unit_first_node_is_t_min(log_t, count):
    # the nodes are 0.5 sinh(g x) / (cosh(g (x - 1/2)) sinh(g / 2)), free of the
    # cancellation in 0.5 (1 + s) with s near -1
    t_min = 10.0 ** log_t
    if t_min >= 1.0 / (count + 1):
        return
    nodes = el.RadialGrid.two_sided_unit(t_min, count).nodes
    assert abs(nodes[1] - t_min) <= 1e-12 * t_min
    assert nodes[(len(nodes) - 1) // 2] == 0.5


def test_two_sided_unit_unreachable_first_node_is_a_domain_error():
    # the first node of 65 nodes cannot exceed 1/64, the uniform grid's
    with pytest.raises(el.DomainError, match="t_min = 0.2 is out of reach"):
        el.RadialGrid.two_sided_unit(0.2, 64)


def test_profile_is_immutable_and_has_no_cache():
    grid = el.RadialGrid.geometric(0.5, 8.0, 32, 3)
    prof = el.RadialProfile(grid=grid, values=2.0 / np.sqrt(grid.nodes))
    r = np.geomspace(0.1, 20.0, 57)
    state = dict(vars(prof))
    first = prof(r)
    assert {k: id(v) for k, v in vars(prof).items()} == {k: id(v) for k, v in state.items()}
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.values = prof.values * 2.0
    for copy in (dataclasses.replace(prof), pickle.loads(pickle.dumps(prof))):
        assert np.array_equal(copy(r), first)
    doubled = dataclasses.replace(prof, values=2.0 * prof.values)
    assert np.allclose(doubled(r), 2.0 * first, rtol=1e-14, atol=0.0)


def test_solve_config_schedule():
    cfg = el.SolveConfig(tol_sup=1e-8)
    eps = cfg.schedule()
    assert eps[0] == 1.0
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert eps[-1] < cfg.tol_sup


def _halving_final_eps(tol_sup: float, max_outer: int) -> float:
    """Last level of the halving schedule eps = 1, 1/2, 1/4, ... that stops below
    tol_sup / 10 or after max_outer halvings."""
    e, k = 1.0, 0
    while e >= tol_sup / 10.0 and k < max_outer:
        e *= 0.5
        k += 1
    return e


@settings(max_examples=200, deadline=None)
@given(tol_sup=st.floats(1e-30, 1e3), max_outer=st.integers(1, 200))
def test_schedule_steps_by_decades_to_the_halving_final_eps(tol_sup, max_outer):
    eps = el.SolveConfig(tol_sup=tol_sup, max_outer=max_outer).schedule()
    assert eps[0] == 1.0
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert eps[:-1] == tuple(10.0 ** -j for j in range(len(eps) - 1))
    assert eps[-1] == _halving_final_eps(tol_sup, max_outer)
    assert len(eps) <= max_outer + 1


def test_default_schedule_ends_at_two_to_the_minus_30():
    cfg = el.SolveConfig()
    assert cfg.schedule() == (*(10.0 ** -j for j in range(10)), 2.0 ** -30)
    assert cfg.final_level().schedule() == (2.0 ** -30,)


# ---------------------------------------------------------------------------
# solver exactness
# ---------------------------------------------------------------------------

def test_parabola_exact():
    # -H'' = 1 with zero data: H(t) = t(1-t)/2, reproduced nodally by the
    # conservative scheme (exact for quadratics)
    H = el.solve_H(el.PowerPhi(0.0), ONES, nodes=1024)
    t = H.grid.nodes
    assert np.max(np.abs(H.values - t * (1 - t) / 2)) <= 1e-12
    assert H(0.5) == pytest.approx(0.125, abs=1e-10)


def test_flat_surrogate_parabola():
    # N=1 on (0, 1) with unit weight and f=1: exact quadratic, u(1/2) = 1/8
    prof = el.solve_radial_dirichlet(1, lambda t: np.ones_like(t), ONES,
                                     (0.0, 1.0), (0.0, 0.0), nodes=257)
    t = prof.grid.nodes
    assert np.max(np.abs(prof.values - t * (1 - t) / 2)) < 1e-12
    assert prof(0.5) == pytest.approx(0.125, abs=1e-12)


def test_harmonic_reproduced_nodally():
    # weight 0: solution is a + b/r through the data; oracle solves the
    # 2x2 system for (a, b)
    A = np.array([[1.0, 1.0], [1.0, 0.5]])
    a, b = np.linalg.solve(A, np.array([1.0, 2.0]))
    prof = el.solve_radial_dirichlet(3, lambda r: np.zeros_like(r), el.PowerF(1.0),
                                     (1.0, 2.0), (1.0, 2.0), nodes=128)
    r = prof.grid.nodes
    assert np.max(np.abs(prof.values - (a + b / r))) < 1e-12


GRIDS = st.one_of(
    st.builds(lambda ra, decades, count: ("geometric", ra, ra * 10.0 ** decades, count),
              st.floats(1e-3, 10.0), st.floats(0.5, 6.0), st.integers(16, 2048)),
    st.builds(lambda anchor, delta_min, span, count:
              ("boundary_layer", anchor, delta_min, span, count),
              st.floats(0.1, 10.0), st.floats(1e-9, 1e-2), st.floats(1.0, 100.0),
              st.integers(16, 2048)),
)


@settings(max_examples=200, deadline=None)
@given(GRIDS, st.integers(3, 6), st.floats(0.0, 10.0, allow_subnormal=False),
       st.just(0.0) | st.floats(1e-200, 10.0))
def test_neg_laplacian_cancels_harmonics(grid, N, a, b):
    # the flux stencil annihilates a + b r^{2-N} up to the roundoff of its own
    # differences: eps times the stencil applied to |u| without cancellation.
    # b >= 1e-200 keeps u and the stencil's terms normal on every grid drawn
    # (r^(2-N) >= 1e-28): a subnormal result rounds with an absolute error
    # that no relative bound covers
    kind, *args = grid
    r = getattr(el.RadialGrid, kind)(*args, N).nodes
    u = a + b * r ** (2.0 - N)
    c = (r[:-1] ** (2.0 - N) - r[1:] ** (2.0 - N)) / (N - 2)
    m = 0.5 * (r[:-1] + r[1:])
    V = (m[1:] ** N - m[:-1] ** N) / N
    scale = ((u[:-2] + u[1:-1]) / c[:-1] + (u[1:-1] + u[2:]) / c[1:]) / V
    assert np.all(np.abs(neg_laplacian(r, u, N)) <= 8 * np.finfo(float).eps * scale)


def test_neg_laplacian_stack_equals_one_stencil_per_column():
    rng = np.random.default_rng(3)
    nodes = np.cumsum(rng.uniform(0.01, 1.0, (3, 50)), axis=0)
    u = rng.uniform(0.1, 5.0, (3, 50))
    for N in (1, 2, 3, 5):
        stacked = neg_laplacian(nodes, u, N)
        assert stacked.shape == (1, 50)
        for j in range(50):
            assert np.array_equal(stacked[:, j], neg_laplacian(nodes[:, j], u[:, j], N))
    nodes[0, 17] = 0.0  # one triple reaching the origin is refused for N >= 2
    with pytest.raises(el.DomainError):
        neg_laplacian(nodes, u, 3)


def test_closed_form_boundary_data(closed_form):
    prof = el.solve_radial_dirichlet(3, el.PowerPhi(-3.0), el.PowerF(1.0),
                                     (1.0 / 8.0, 8.0),
                                     (closed_form(1.0 / 8.0), closed_form(8.0)),
                                     nodes=2048)
    r = prof.grid.nodes
    rel = np.max(np.abs(prof.values - closed_form(r)) / closed_form(r))
    assert rel <= 0.005


def test_grid_refinement_reduces_error(closed_form):
    errs = []
    for nodes in (256, 512):
        prof = el.solve_radial_dirichlet(3, el.PowerPhi(-3.0), el.PowerF(1.0),
                                         (1.0 / 8.0, 8.0),
                                         (closed_form(1.0 / 8.0), closed_form(8.0)),
                                         nodes=nodes)
        r = prof.grid.nodes
        errs.append(np.max(np.abs(prof.values - closed_form(r)) / closed_form(r)))
    rate = np.log2(errs[0] / errs[1])
    print(f"refinement factor {errs[0] / errs[1]:.2f} (observed order {rate:.2f})")
    assert errs[0] / errs[1] >= 3.0


def test_monotone_in_regularization():
    # converged solutions are nondecreasing as the regularization decreases
    grid = el.RadialGrid.geometric(0.25, 4.0, 256, 3)
    w = lambda r: r ** -3.0
    sols = []
    for tol_sup in (1.25, 0.3125, 1e-8):  # schedules ending at eps 2^-4, 2^-6, 2^-30
        cfg = el.SolveConfig(tol_sup=tol_sup)
        sols += solve_on_nodes(flux_stack([grid.nodes], 3, w), el.PowerF(1.0), [0.0], [0.0],
                               config=cfg)
    assert np.min(sols[1] - sols[0]) >= -1e-12 * max(1.0, np.max(sols[1]))
    assert np.min(sols[2] - sols[1]) >= -1e-12 * max(1.0, np.max(sols[2]))


def test_uniqueness_surrogate_initial_iterates(closed_form):
    # zero start vs supersolution start converge to the same discrete solution
    grid = el.RadialGrid.geometric(0.25, 4.0, 256, 3)
    cfg = el.SolveConfig(tol_sup=1e-10)
    w = lambda r: r ** -3.0
    stack = flux_stack([grid.nodes], 3, w)
    [u0] = solve_on_nodes(stack, el.PowerF(1.0), [0.0], [0.0], config=cfg)
    upper = closed_form(grid.nodes[1:-1]) * 2.0
    [u1] = solve_on_nodes(stack, el.PowerF(1.0), [0.0], [0.0], config=cfg, initial=[upper])
    assert np.max(np.abs(u1 - u0)) <= 10.0 * cfg.tol_sup * max(1.0, float(np.max(u0)))


@pytest.mark.parametrize("N,p,alpha,a,b", [
    (3, 2.0, -3.05, 0.0, 1.0), (3, 1.0, -3.0, 0.5, 1.0), (5, 1.0, -6.0, 0.5, 0.0),
])
def test_one_level_solve_from_a_subsolution(N, p, alpha, a, b):
    # max(a r^{2-N} + b, xi) is a discrete subsolution of the family system, so
    # the one-level Newton solve rises from it to the full-schedule solution
    grid = el.RadialGrid.geometric(1.0 / 16.0, 16.0, 512, N)
    r = grid.nodes
    w, f, cfg = (lambda s: s ** alpha), el.PowerF(p), el.SolveConfig()
    lower = a * r ** (2.0 - N) + b
    stack = flux_stack([r], N, w)
    [xi] = solve_on_nodes(stack, f, [0.0], [0.0], config=cfg)
    start = np.maximum(lower[1:-1], xi)
    [one] = solve_on_nodes(stack, f, [lower[0]], [lower[-1]], config=cfg.final_level(),
                           initial=[start])
    [full] = solve_on_nodes(stack, f, [lower[0]], [lower[-1]], config=cfg)
    assert np.all(one >= start)
    assert np.max(np.abs(one - full) / full) <= 1e-9


def _count_solves(monkeypatch) -> list:
    """Record each call of bvp1d.solve_banded, one stacked Newton step each."""
    calls = []
    solve = bvp1d.solve_banded

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(bvp1d, "solve_banded", counted)
    return calls


@settings(max_examples=30, deadline=None)
@given(N=st.sampled_from([3, 4, 5]), p=st.sampled_from([0.5, 1.0, 2.0]),
       t=st.floats(0.05, 0.95), R=st.floats(2.0, 64.0), count=st.integers(64, 1024))
def test_solution_is_a_fixed_point_of_the_final_newton_map(N, p, t, R, count):
    # the intermediate eps take one Newton step each, the final eps iterates to
    # convergence: a final-level solve started from the result stops at once
    alpha = -(N + p * (N - 2)) * (1.0 - t) - 2.0 * t  # inside the closed form's interval
    r = np.geomspace(1.0 / R, R, count)
    w, f, cfg = (lambda s: s ** alpha), el.PowerF(p), el.SolveConfig()
    stack = flux_stack([r], N, w)
    [u] = solve_on_nodes(stack, f, [0.0], [0.0], config=cfg)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_solves(mp)
        [again] = solve_on_nodes(stack, f, [0.0], [0.0], config=cfg.final_level(),
                                 initial=[u])
    assert len(calls) <= 2
    assert np.max(np.abs(again - u) / u) <= 1e-12


def test_minimal_solution_takes_few_newton_steps(monkeypatch):
    # one stacked step for each eps above the final one, then the final eps
    # to convergence: 12 stacked solves here; converging every eps takes 51
    calls = _count_solves(monkeypatch)
    problem = el.ProblemSpec(3, el.PowerPhi(-3.0), el.PowerF(1.0), el.Origin())
    el.minimal_solution(problem, n_max=64, nodes=512)
    assert len(calls) <= 20


@pytest.mark.parametrize("N", [3, 4, 5])
def test_final_level_from_zero_is_no_stall(N):
    # from u = 0 at eps = 2^-30 the Newton increments grow while u << 1, with a
    # relative increment below STALL_TOL: a stall exit there returns
    # max u = 1.2e-9 against 3.7, so growing increments must not stop a level
    r = np.geomspace(1.0 / 16.0, 16.0, 512)
    w, f, cfg = (lambda s: s ** -4.0), el.PowerF(2.0), el.SolveConfig()
    stack = flux_stack([r], N, w)
    [full] = solve_on_nodes(stack, f, [0.0], [0.0], config=cfg)
    try:
        [one] = solve_on_nodes(stack, f, [0.0], [0.0], config=cfg.final_level())
    except el.NonConvergenceError:
        return  # the other outcome the solver may give: a refusal, not a wrong answer
    assert np.max(np.abs(one - full) / full) <= 1e-9


def test_final_level_minimal_solution_is_no_stall():
    # a stall exit on growing increments leaves this ladder 100 % off the
    # closed form
    problem = el.ProblemSpec(5, el.PowerPhi(-8.261069406497548), el.PowerF(2.0), el.Origin())
    full = el.minimal_solution(problem, n_max=4096)
    try:
        one = el.minimal_solution(problem, n_max=4096, config=el.SolveConfig().final_level())
    except el.NonConvergenceError:
        return
    rel = np.abs(one.profile.values - full.profile.values)[1:-1] / full.profile.values[1:-1]
    assert np.max(rel) <= 1e-9


@pytest.mark.parametrize("r,N,p,match", [
    (np.geomspace(0.5, 2.0, 64), 2000, 1.0, "flux stencil"),
    (np.arange(64) * 1e-310, 1, 1.0, "flux stencil"),
    (np.geomspace(0.5, 2.0, 64), 3, 1e6, "Newton step"),
])
def test_solver_refuses_what_overflows(r, N, p, match):
    # r^(2-N) on [1/2, 2] for N = 2000, 1/c for the subnormal spacings 1e-310,
    # and (u + eps)^p for p = 1e6 leave the doubles: a refusal that names the
    # cause, not NaN iterations up to the cap
    with pytest.raises(el.DomainError, match=match):
        solve_on_nodes(flux_stack([r], N, np.ones_like), el.PowerF(p), [0.0], [0.0],
                       config=el.SolveConfig())


@pytest.mark.parametrize("level,N,w,match", [
    (np.geomspace(0.5, 2.0, 15), 3, np.ones_like, "^need at least 16 nodes$"),
    (np.geomspace(0.5, 2.0, 64), 3, lambda r: 1.0 - r,
     r"^weight must be finite and nonnegative at interior nodes of \[0\.5, 2\]$"),
    (np.geomspace(0.5, 2.0, 64), 3, lambda r: np.where(r > 1.0, np.nan, 1.0),
     r"^weight must be finite and nonnegative at interior nodes of \[0\.5, 2\]$"),
    (np.geomspace(0.5, 2.0, 64), 2000, np.ones_like,
     r"^the N = 2000 flux stencil over- or underflows on \[0\.5, 2\]$"),
    (np.geomspace(2.0, 8.0, 64), 3, lambda r: np.where(r > 1.0, 1e308, 1.0),
     r"^the N = 3 flux stencil over- or underflows on \[2, 8\]$"),
])
def test_flux_stack_refusals_name_their_cause(level, N, w, match):
    # the second level is the one refused; the first, inside (0.8, 0.95), assembles
    first = np.geomspace(0.8, 0.95, 64)
    flux_stack([first], N, w)
    with pytest.raises(el.DomainError, match=match):
        flux_stack([first, level], N, w)


def test_solve_refuses_negative_boundary_data():
    stack = flux_stack([np.geomspace(0.25, 4.0, 64)] * 2, 3, np.ones_like)
    for va, vb in (([0.0, -1e-300], [0.0, 0.0]), ([0.0, 0.0], [-1.0, 0.0])):
        with pytest.raises(el.DomainError, match="^boundary data must be nonnegative$"):
            solve_on_nodes(stack, el.PowerF(1.0), va, vb, config=el.SolveConfig())
    with pytest.raises(el.DomainError, match="^need boundary data for each level$"):
        solve_on_nodes(stack, el.PowerF(1.0), [0.0], [0.0], config=el.SolveConfig())
    with pytest.raises(el.DomainError, match="^need one or more levels$"):
        flux_stack([], 3, np.ones_like)


@st.composite
def _stacks(draw):
    """A stack of 1-5 levels of one problem: nodes, data and starts per level."""
    N = draw(st.integers(1, 6))
    p = draw(st.sampled_from([0.5, 1.0, 2.0]))
    alpha = draw(st.floats(-3.0, 0.0))
    positive = draw(st.booleans())
    with_initial = draw(st.booleans())
    levels, va, vb, initial = [], [], [], []
    for _ in range(draw(st.integers(1, 5))):
        ra = draw(st.floats(0.05, 1.0))
        nodes = np.geomspace(ra, ra * draw(st.floats(2.0, 64.0)), draw(st.integers(16, 400)))
        levels.append(nodes)
        va.append(draw(st.floats(0.1, 2.0)) if positive else 0.0)
        vb.append(draw(st.floats(0.1, 2.0)) if positive else 0.0)
        initial.append(np.full(len(nodes) - 2, draw(st.floats(0.0, 1.0))))
    return N, p, alpha, levels, va, vb, initial if with_initial else None


@settings(max_examples=40, deadline=None)
@given(_stacks())
def test_stacked_levels_equal_their_own_solves_bit_for_bit(case):
    # the couplings between blocks are exactly 0, so no elimination crosses a
    # block: each level of a stack is its own solve, bit for bit
    N, p, alpha, levels, va, vb, initial = case
    w, f, cfg = (lambda s: s ** alpha), el.PowerF(p), el.SolveConfig()
    stacked = solve_on_nodes(flux_stack(levels, N, w), f, va, vb, config=cfg, initial=initial)
    for j, nodes in enumerate(levels):
        [own] = solve_on_nodes(flux_stack([nodes], N, w), f, [va[j]], [vb[j]], config=cfg,
                               initial=None if initial is None else [initial[j]])
        assert np.array_equal(stacked[j], own)


def test_stacked_errors_name_their_level():
    # the first level starts at its solution and stops after one step; the
    # second, from zero, reaches the iteration cap, and the message names it
    w, f = (lambda s: s ** -3.0), el.PowerF(1.0)
    one = el.SolveConfig(max_picard=1).final_level()
    first, second = np.geomspace(0.25, 4.0, 64), np.geomspace(0.5, 8.0, 96)
    alone, both = flux_stack([first], 3, w), flux_stack([first, second], 3, w)
    [solved] = solve_on_nodes(alone, f, [1.0], [1.0], config=el.SolveConfig().final_level())
    solve_on_nodes(alone, f, [1.0], [1.0], config=one, initial=[solved])  # within the cap
    with pytest.raises(el.NonConvergenceError, match=r"on \[0\.5, 8\]$") as exc:
        solve_on_nodes(both, f, [1.0, 0.0], [1.0, 0.0], config=one,
                       initial=[solved, np.zeros(94)])
    assert exc.value.last_increment > 0
    # a Newton step that overflows names its level too
    big = el.PowerF(1e6)
    with pytest.raises(el.DomainError, match=r"on \[0\.5, 8\] is not finite"):
        solve_on_nodes(both, big, [1.0, 0.0], [1.0, 0.0], config=el.SolveConfig(),
                       initial=[np.ones(62), np.zeros(94)])


def test_nonconvergence_cap():
    cfg = el.SolveConfig(tol_sup=1e-8, max_picard=1)
    with pytest.raises(el.NonConvergenceError) as exc:
        el.solve_radial_dirichlet(3, el.PowerPhi(-3.0), el.PowerF(1.0),
                                  (0.25, 4.0), (0.0, 0.0), cfg, nodes=64)
    assert exc.value.last_increment is not None


# ---------------------------------------------------------------------------
# gauge profile
# ---------------------------------------------------------------------------

def test_gauge_requires_finite_moment():
    with pytest.raises(el.NoSolutionError) as exc:
        el.solve_H(el.PowerPhi(-2.0), el.PowerF(1.0), nodes=512)
    assert exc.value.certificate is not None


def shooting_oracle_inverse_f(target: float = 0.5) -> float:
    """Shooting value H(1/2) for -H'' = 1/H with zero data, via the time map.

    By symmetry H'(1/2) = 0 at the peak h0; the first integral gives
    H' = -sqrt(2 log(h0/H)), so the half-interval transit time is
    T(h0) = int_0^{h0} dH / sqrt(2 log(h0/H)).  Substituting H = h0 e^{-z^2}
    turns the integrand into a smooth Gaussian; the oracle shoots on h0 so
    that T(h0) matches the half length.
    """
    nodes, wts = np.polynomial.legendre.leggauss(64)

    def transit(h0: float) -> float:
        total = 0.0
        edges = np.linspace(0.0, 8.0, 17)
        for lo, hi in zip(edges[:-1], edges[1:]):
            z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            total += 0.5 * (hi - lo) * float(
                np.sum(wts * h0 * np.sqrt(2.0) * np.exp(-z * z))
            )
        return total

    return brentq(lambda h: transit(h) - target, 1e-3, 10.0, xtol=1e-15)


def test_gauge_inverse_f_matches_shooting():
    oracle = shooting_oracle_inverse_f()
    # internal sanity of the oracle itself against the analytic transit value
    assert oracle == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-9)
    H = el.solve_H(el.PowerPhi(0.0), el.PowerF(1.0), nodes=4096)
    assert abs(H(0.5) - oracle) <= 1e-4


def test_gauge_symmetric_for_flat_weight():
    H = el.solve_H(el.PowerPhi(0.0), el.PowerF(1.0), nodes=2048)
    t = np.linspace(0.1, 0.45, 8)
    assert np.max(np.abs(H(t) - H(1.0 - t))) < 1e-6


def test_gauge_singular_weight_residual():
    # -H'' = t^-1 / H; independent local-quartic stencil on the interior window
    H = el.solve_H(el.PowerPhi(-1.0), el.PowerF(1.0), nodes=16384)
    t = H.grid.nodes
    u = H.values
    mask = (t > 0.02) & (t < 0.98)
    idx = np.where(mask)[0]
    idx = idx[2:-2][:: max(1, len(idx) // 400)]
    worst = 0.0
    for i in idx:
        ts = t[i - 2:i + 3]
        us = u[i - 2:i + 3]
        c = np.polynomial.polynomial.polyfit(ts - t[i], us, 4)
        d2 = 2.0 * c[2]
        rhs = t[i] ** -1.0 / u[i]
        worst = max(worst, abs(-d2 - rhs) / max(1.0, rhs))
    assert worst <= 1e-6
    # positive and concave
    assert np.all(u[1:-1] > 0)


def test_comparison_check_cases():
    grid = el.RadialGrid.geometric(0.5, 2.0, 32, 3)
    v = el.RadialProfile(grid=grid, values=1.0 / grid.nodes)
    u_same = el.RadialProfile(grid=grid, values=1.0 / grid.nodes)
    assert el.comparison_check(u_same, v)
    u_up = el.RadialProfile(grid=grid, values=1.0 / grid.nodes + 0.5)
    assert el.comparison_check(u_up, v)
    assert not el.comparison_check(v, u_up)
    other = el.RadialProfile(grid=el.RadialGrid.geometric(0.5, 2.0, 33, 3),
                             values=np.ones(33))
    with pytest.raises(el.DomainError):
        el.comparison_check(u_up, other)
