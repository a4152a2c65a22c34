"""Inversion transform, sphere averages, asymptotics, residual audits, obstructions."""

from __future__ import annotations

import math

import numpy as np
import pytest

import elliptic_lab as el
from conftest import sample_profile


# ---------------------------------------------------------------------------
# inversion transform
# ---------------------------------------------------------------------------

def test_kelvin_fundamental_maps_to_constant():
    r = np.geomspace(0.1, 10.0, 64)
    prof = sample_profile(lambda rr: rr ** -1.0, r)     # r^{2-N} for N=3
    out = el.kelvin_transform(prof, 3)
    assert np.max(np.abs(out.values - 1.0)) < 1e-14


def test_kelvin_constant_maps_to_fundamental():
    r = np.geomspace(0.1, 10.0, 64)
    prof = sample_profile(lambda rr: np.ones_like(rr), r)
    out = el.kelvin_transform(prof, 3)
    assert np.max(np.abs(out.values - out.grid.nodes ** -1.0)) < 1e-14


def test_kelvin_involution(closed_form):
    r = np.geomspace(1e-2, 1e2, 128)
    prof = sample_profile(closed_form, r)
    twice = el.kelvin_transform(el.kelvin_transform(prof, 3), 3)
    rel = np.max(np.abs(twice.values - prof.values) / prof.values)
    assert rel <= 1e-8


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(-24, 8), st.integers(3, 6), st.integers(1, 16))
@settings(max_examples=50, deadline=None)
def test_kelvin_weight_exponent_arithmetic(beta4, N, p4):
    # dyadic-rational exponents make the identity exact in floating point
    beta = beta4 / 4.0
    p = p4 / 4.0
    kw = el.kelvin_weight(el.PowerPhi(beta), N, p)
    assert kw.exact.alpha == -beta - 2.0 - N - p * (N - 2.0)


def test_kelvin_weight_exponent_identity():
    kw = el.kelvin_weight(el.PowerPhi(-3.0), 3, 1.0)
    assert isinstance(kw.exact, el.PowerPhi)
    assert kw.exact.alpha == -(-3.0) - 2.0 - 3.0 - 1.0 * (3.0 - 2.0)
    assert kw.exact.alpha == -3.0
    kw2 = el.kelvin_weight(el.PowerPhi(0.0), 3, 1.0)
    assert kw2.exact.alpha == -6.0
    kw3 = el.kelvin_weight(el.PowerSplitPhi(-1.0, -3.0), 3, 2.0)
    shift = -2.0 - 3.0 - 2.0 * 1.0
    assert kw3.exact.alpha == shift + 3.0
    assert kw3.exact.beta == shift + 1.0


def test_kelvin_transformed_solution_satisfies_transformed_equation(closed_form):
    # transform the closed form and audit it against the transformed weight
    # with an independent local-quartic stencil
    r = np.geomspace(1e-2, 1e2, 768)
    prof = sample_profile(closed_form, r)
    star = el.kelvin_transform(prof, 3)
    kw = el.kelvin_weight(el.PowerPhi(-3.0), 3, 1.0)
    t = star.grid.nodes
    u = star.values
    worst = 0.0
    for i in range(4, len(t) - 4, 7):
        c = np.polynomial.polynomial.polyfit(t[i - 2:i + 3] - t[i], u[i - 2:i + 3], 4)
        lap = 2.0 * c[2] + 2.0 / t[i] * c[1]
        rhs = kw(np.asarray([t[i]]))[0] * u[i] ** -1.0
        worst = max(worst, abs(-lap - rhs) / max(1.0, rhs))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# sphere potential averages
# ---------------------------------------------------------------------------

def test_sphere_average_reference_values():
    assert el.sphere_potential_average(3, 1.0, 2.0) == pytest.approx(0.5, rel=1e-10)
    assert el.sphere_potential_average(3, 1.0, 0.5) == pytest.approx(1.0, rel=1e-10)
    assert el.sphere_potential_average(4, 2.0, 1.0) == pytest.approx(0.25, rel=1e-10)


def test_sphere_average_random_configurations():
    rng = np.random.default_rng(123)
    for _ in range(20):
        N = int(rng.integers(3, 7))
        r = float(rng.uniform(0.2, 5.0))
        branch = rng.integers(0, 2)
        factor = float(rng.uniform(1.3, 4.0))
        x = r * factor if branch else r / factor
        got = el.sphere_potential_average(N, r, x)
        want = max(x, r) ** (2.0 - N)
        assert got == pytest.approx(want, rel=1e-8)


def test_sphere_average_singular_configuration():
    with pytest.raises(el.DomainError):
        el.sphere_potential_average(3, 1.0, 1.0)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotics_exact_profile():
    r = np.geomspace(1e-3, 1e3, 512)
    prof = sample_profile(lambda rr: rr ** -1.0 + 0.5, r)
    est = el.asymptotics(prof, 3)
    assert est.a_hat == pytest.approx(1.0, abs=1e-10)
    assert est.b_hat == pytest.approx(0.5, abs=1e-10)


def test_asymptotics_minimal_limits(closed_form):
    r = np.geomspace(1e-3, 1e3, 512)
    prof = sample_profile(closed_form, r)
    est = el.asymptotics(prof, 3)
    assert abs(est.a_hat) <= 1e-6
    assert abs(est.b_hat) <= 1e-6


def test_asymptotics_needs_span():
    r = np.geomspace(0.5, 2.0, 64)
    prof = sample_profile(lambda rr: 1.0 / rr, r)
    with pytest.raises(el.DomainError):
        el.asymptotics(prof, 3)


# ---------------------------------------------------------------------------
# residual audits
# ---------------------------------------------------------------------------

def test_residual_harmonic_zero_weight():
    phi0 = el.TabulatedPhi(knots=np.array([0.5, 2.0]), values=np.array([0.0, 0.0]),
                           near0_exp=0.0, tail_exp=0.0)
    problem = el.ProblemSpec(3, phi0, el.PowerF(1.0), el.Origin())
    r = np.geomspace(0.5, 50.0, 256)
    prof = sample_profile(lambda rr: 2.0 * rr ** -1.0 + 0.25, r)
    rep = el.residual_radial(prof, problem, "equality")
    assert rep.sup_norm_equation_defect <= 1e-10


def test_residual_closed_form_stencil_bound(closed_form, problem_power):
    # the defect of the exact power solution is pure stencil truncation,
    # second order with constants built from the analytic derivatives
    c, q = closed_form.coefficient, closed_form.exponent
    defects = {}
    for count in (256, 512):
        r = np.geomspace(1e-2, 1e2, count)
        prof = sample_profile(closed_form, r)
        rep = el.residual_radial(prof, problem_power, "equality")
        rin = r[1:-1]
        h = np.maximum(r[2:] - r[1:-1], r[1:-1] - r[:-2])
        u2 = abs(c * q * (q - 1)) * rin ** (q - 2)
        u3 = abs(c * q * (q - 1) * (q - 2)) * rin ** (q - 3)
        u4 = abs(c * q * (q - 1) * (q - 2) * (q - 3)) * rin ** (q - 4)
        envelope = h ** 2 * (u4 + 6.0 * u3 / rin + 6.0 * u2 / rin ** 2)
        rhs = rin ** -3.0 / closed_form(rin)
        defects[count] = rep.sup_norm_equation_defect
        assert rep.sup_norm_equation_defect <= np.max(envelope / np.maximum(1.0, rhs))
    # second-order decay under refinement
    assert defects[256] / defects[512] >= 3.0


def test_residual_node_count_guard(problem_power):
    r = np.geomspace(0.5, 2.0, 20)
    prof = sample_profile(lambda rr: 1.0 / rr, r)
    with pytest.raises(el.DomainError):
        el.residual_radial(prof, problem_power)


def test_residual_field_rejects_zero_weight(glued_split):
    phi0 = el.TabulatedPhi(knots=np.array([0.5, 2.0]), values=np.array([0.0, 0.0]),
                           near0_exp=0.0, tail_exp=0.0)
    centers = ((0.0, 0.0, 0.0), (4.0, 0.0, 0.0))
    problem = el.ProblemSpec(3, phi0, el.PowerF(1.0), el.PointSet(centers))
    V = el.superposition_field(glued_split.value, centers)
    with pytest.raises(el.DomainError):
        el.residual_field(V, problem, samples=100)


def test_residual_field_skips_near_centers(glued_split):
    centers = ((0.0, 0.0, 0.0), (0.05, 0.0, 0.0))
    V = el.superposition_field(glued_split.value, centers)
    problem = el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -3.0), el.PowerF(1.0),
                             el.PointSet(centers))
    rep = el.residual_field(V, problem, samples=500, h=1.0, seed=1)
    assert rep.skipped > 0
    assert rep.sample_count + rep.skipped == 500


def test_residual_field_keeping_no_sample_is_a_domain_error(glued_split):
    # every point of the box [-4, 8] x [-4, 4]^2 lies within 2h = 100 of K
    centers = ((0.0, 0.0, 0.0), (4.0, 0.0, 0.0))
    V = el.superposition_field(glued_split.value, centers)
    problem = el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -3.0), el.PowerF(1.0),
                             el.PointSet(centers))
    with pytest.raises(el.DomainError, match="keeps no sample: all 100 lie within 2h = 100"):
        el.residual_field(V, problem, samples=100, h=50.0)


@pytest.mark.parametrize("h", [8.668266060241998e-194, 1e-7])
def test_residual_field_refuses_a_spacing_below_roundoff(glued_split, h):
    # h^2 underflowed to 0 at the first h, and the stencil divided 0 by 0
    centers = ((0.0, 0.0, 0.0), (4.0, 0.0, 0.0))
    V = el.superposition_field(glued_split.value, centers)
    problem = el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -3.0), el.PowerF(1.0),
                             el.PointSet(centers))
    with pytest.raises(el.DomainError, match="is below 1e-06"):
        el.residual_field(V, problem, samples=100, h=h)


# n where the digit of one more position starts to vary: prime powers and their neighbours
HALTON_EDGES = sorted({b ** k + e for b in (2, 3, 5, 7, 11) for k in range(1, 12)
                       for e in (-1, 0, 1) if b ** k <= 4096})


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12) | st.sampled_from([169, 170, 200]),
       n=st.integers(1, 4096) | st.sampled_from(HALTON_EDGES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scrambled_halton_is_scipys_halton_bit_for_bit(d, n, seed):
    """The field audit's sampler is scipy's scrambled Halton, past its 168-prime table too."""
    from scipy.stats import qmc

    expected = qmc.Halton(d=d, seed=seed).random(n)
    assert np.array_equal(el.analysis.scrambled_halton(d, n, seed), expected)


# ---------------------------------------------------------------------------
# minimum principle and the planar obstruction
# ---------------------------------------------------------------------------

def test_min_principle_decreasing_superharmonic():
    r = np.geomspace(1e-2, 10.0, 128)
    prof = sample_profile(lambda rr: 1.0 / rr, r)
    assert el.min_principle_check(prof, 1.0)


def test_min_principle_constant():
    r = np.geomspace(1e-2, 10.0, 128)
    prof = sample_profile(lambda rr: np.full_like(rr, 3.0), r)
    assert el.min_principle_check(prof, 1.0)


def test_min_principle_minimal_solution(minimal64):
    ms = minimal64.value
    assert el.min_principle_check(ms.profile, 0.5, r_floor=ms.trusted_window[0])


def test_min_principle_detects_dip():
    r = np.geomspace(1e-2, 10.0, 128)
    vals = 1.0 / r
    vals[30] = 1e-3
    prof = sample_profile(lambda rr: rr, r)   # placeholder grid
    prof = el.RadialProfile(grid=prof.grid, values=vals)
    assert not el.min_principle_check(prof, 1.0)


def _exterior_profile(dip: float) -> el.RadialProfile:
    """Zero on the unit sphere, rising, then falling to 0 at r = 20, with a
    Gaussian dip of relative depth dip at r = 3."""
    r = np.geomspace(1.0, 20.0, 256)
    vals = (1.0 - 1.0 / r) * (20.0 - r) * (1.0 - dip * np.exp(-((r - 3.0) ** 2) / 0.1))
    return el.RadialProfile(grid=el.RadialGrid(nodes=r, dimension=3), values=vals)


def test_min_principle_annulus_outside_a_ball():
    # u vanishes on the ball, so only the annulus form holds on [1.01, r1]
    prof = _exterior_profile(dip=0.0)
    assert not el.min_principle_check(prof, 5.0, r_floor=1.01)
    assert el.min_principle_check(prof, 5.0, r_floor=1.01, annulus=True)


def test_min_principle_annulus_detects_dip():
    prof = _exterior_profile(dip=0.999)
    assert not el.min_principle_check(prof, 5.0, r_floor=1.01, annulus=True)


def _planar_profile(fn, r):
    grid = el.RadialGrid(nodes=np.asarray(r, dtype=float), dimension=2)
    return el.RadialProfile(grid=grid, values=np.asarray(fn(np.asarray(r)), dtype=float))


def test_planar_obstruction_constant_profile():
    r = np.geomspace(1.0, 100.0, 64)
    prof = _planar_profile(lambda rr: np.ones_like(rr), r)
    rep = el.dim2_ground_state_obstruction(prof, x_norm=2.0)
    assert rep.m == pytest.approx(1.0)
    assert np.all(np.diff(rep.minorants) > 0)
    assert rep.sup_minorant < rep.m
    assert rep.gap == pytest.approx(rep.m - rep.sup_minorant)
    assert rep.gap < 0.2


def test_planar_obstruction_log_decay_profile():
    # minorant sweep climbs toward the inner-circle minimum
    r = np.geomspace(1.0, 1e4, 256)
    prof = _planar_profile(lambda rr: 1.0 + 1.0 / np.log(rr + math.e), r)
    rep = el.dim2_ground_state_obstruction(prof, x_norm=4.0, levels=24)
    assert np.all(np.diff(rep.minorants) > 0)
    assert rep.sup_minorant <= rep.m
    assert rep.gap <= 0.15 * rep.m


def test_planar_obstruction_exact_comparison_pair():
    # u equals its own logarithmic minorant when r1 matches the outer radius;
    # compare at an exact grid node so no interpolation enters
    r0, R1, m = 1.0, 64.0, 2.0
    r = np.geomspace(r0, R1, 128)[:-1]
    prof = _planar_profile(lambda rr: m * np.log(R1 / rr) / np.log(R1 / r0), r)
    x = float(prof.grid.nodes[20])
    v = m * (math.log(R1) - math.log(x)) / (math.log(R1) - math.log(r0))
    assert float(prof(x)) == pytest.approx(v, rel=1e-12)


def test_planar_obstruction_requires_dimension_two():
    r = np.geomspace(1.0, 100.0, 64)
    prof = sample_profile(lambda rr: np.ones_like(rr), r)
    with pytest.raises(el.DomainError):
        el.dim2_ground_state_obstruction(prof)
