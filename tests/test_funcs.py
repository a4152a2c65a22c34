"""Weight/nonlinearity families, the closed-form power solution, and profiles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elliptic_lab as el
from elliptic_lab.funcs import phi_values, supersolution_profile


# ---------------------------------------------------------------------------
# weight evaluation
# ---------------------------------------------------------------------------

def test_power_eval():
    assert el.PowerPhi(-3.0)(2.0) == pytest.approx(0.125, abs=0)


def test_power_split_continuous_at_splice():
    phi = el.PowerSplitPhi(-1.0, -3.0)
    assert phi(1.0) == 1.0
    assert phi(1.0 - 1e-12) == pytest.approx(1.0, rel=1e-10)
    assert phi(1.0 + 1e-12) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("alpha, beta", [(79.0, -3.0), (-1.5, -85.0), (-3.0, -2.0)])
def test_power_split_branch_not_taken_warns_of_no_overflow(alpha, beta):
    # the branch not taken, r**79 at r = 1e5 or r**-85 at r = 1e-5, overflows
    # without a RuntimeWarning; the one taken is the same double as the plain branch
    phi = el.PowerSplitPhi(alpha, beta)
    r = np.concatenate([np.geomspace(1e-5, 1e5, 997), [1.0, np.nextafter(1.0, 2.0)]])
    with np.errstate(over="ignore"):
        plain = np.where(r <= 1.0, r ** alpha, r ** beta)
    assert np.array_equal(phi(r), plain)


def test_power_log_eval():
    # direct evaluation of r^alpha log(1+r)^beta at r=1
    assert el.PowerLogPhi(-3.0, 1.0)(1.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_log_weights_evaluate_in_log_space_where_the_power_overflows():
    # r**-2 overflows at 1e-200, but r**-2 log(1+r) = r**-1 (1 + O(r)) is finite
    assert el.PowerLogPhi(-2.0, 1.0)(1e-200) == pytest.approx(1e200, rel=1e-12)
    assert el.IterLogPhi(-2.0, (0.5, 0.5))(1e-200) == pytest.approx(1e200, rel=1e-12)


@pytest.mark.parametrize("phi, plain", [
    (el.PowerLogPhi(-2.5, 0.7), lambda r: r ** -2.5 * np.log1p(r) ** 0.7),
    (el.IterLogPhi(-3.0, (1.5, 0.5)),
     lambda r: r ** -3.0 * (np.log1p(r) ** 1.5 * np.log1p(np.log1p(r)) ** 0.5)),
])
def test_log_weights_keep_every_finite_plain_value(phi, plain):
    # r**alpha overflows below about 1e-123, so both evaluation paths run
    r = np.geomspace(1e-200, 1e120, 2001)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = plain(r)
    finite = np.isfinite(ref)
    assert np.array_equal(phi(r)[finite], ref[finite])


def test_iterlog_near0_exponent_matches_evaluation():
    # the iterated-log factors each behave like r near zero, so
    # phi(r) / r^(alpha + sum(betas)) tends to a positive constant
    phi = el.IterLogPhi(-3.0, (1.5, 0.5))
    target = phi.near0_exponent()
    r1, r2 = 1e-6, 1e-8
    c1 = phi(r1) / r1 ** target
    c2 = phi(r2) / r2 ** target
    assert c1 == pytest.approx(c2, rel=1e-4)


def test_tabulated_interp_and_extrapolation():
    phi = el.TabulatedPhi(knots=np.array([0.5, 1.0, 2.0]),
                          values=np.array([2.0, 1.0, 0.5]),
                          near0_exp=-1.0, tail_exp=-1.0)
    assert phi(1.0) == pytest.approx(1.0)
    # log-log interpolation of a pure power is exact
    assert phi(0.7071067811865476) == pytest.approx(2.0 ** 0.5, rel=1e-12)
    # declared power extension outside the knots
    assert phi(0.25) == pytest.approx(4.0, rel=1e-12)
    assert phi(8.0) == pytest.approx(0.125, rel=1e-12)


@pytest.mark.parametrize("values,exponents", [([0.0, 1.0], (-1e3, -3.0)),
                                               ([1.0, 0.0], (-1.0, 1e3))])
def test_tabulated_powers_apply_only_beyond_their_knot(values, exponents):
    # a steep declared power is not evaluated on the other side of the table,
    # and beyond a zero end value the weight is 0, not 0 * inf
    phi = el.TabulatedPhi(np.array([0.5, 2.0]), np.array(values), *exponents)
    r = np.array([1e-5, 0.3, 1.0, 3.0, 1e5])
    v = phi(r)
    assert np.all(np.isfinite(v)) and np.all(v >= 0.0)
    zero_side = r < 0.5 if values[0] == 0.0 else r > 2.0
    assert np.all(v[zero_side] == 0.0)
    simple, iterated = el.lemma_zero_check(phi, 3, "near0")
    assert simple.status == iterated.status == el.quad.FINITE


def test_eval_phi_domain_error():
    with pytest.raises(el.DomainError):
        el.PowerPhi(-1.0)(0.0)
    with pytest.raises(el.DomainError):
        el.PowerPhi(-1.0)(-2.0)


@given(st.floats(-3.0, -0.1), st.floats(0.01, 10.0), st.floats(1.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_negative_power_weights_nonincreasing(alpha, r1, factor):
    phi = el.PowerSplitPhi(alpha, -2.5)
    r2 = r1 * factor
    assert phi(r2) <= phi(r1) * (1 + 1e-12)
    assert phi(r1) > 0


def test_positivity_on_samples():
    weights = [el.PowerPhi(-2.0), el.PowerSplitPhi(-1.0, -3.0),
               el.PowerLogPhi(-2.5, 0.5), el.IterLogPhi(-3.0, (1.0, 1.0))]
    r = np.geomspace(1e-8, 1e8, 65)
    for phi in weights:
        assert np.all(phi_values(phi, r) > 0)


# ---------------------------------------------------------------------------
# G and its inverse
# ---------------------------------------------------------------------------

def test_G_power_values():
    G, Ginv = el.PowerF(1.0).G_and_inverse()
    assert G(2.0) == pytest.approx(2.0, abs=0)
    assert Ginv(2.0) == pytest.approx(2.0, abs=0)


@given(st.floats(0.3, 3.0), st.floats(-6, 6))
@settings(max_examples=60, deadline=None)
def test_G_inverse_roundtrip_power(p, log10_s):
    G, Ginv = el.PowerF(p).G_and_inverse()
    s = 10.0 ** log10_s
    assert G(Ginv(s)) == pytest.approx(s, rel=1e-10)


def test_G_general_decreasing_exponential():
    # oracle: the antiderivative of 1/f = e^t on (0, 1) is e - 1
    f = el.GeneralDecreasingF(lambda t: np.exp(-t))
    G, Ginv = f.G_and_inverse()
    assert G(1.0) == pytest.approx(math.expm1(1.0), rel=1e-10)
    assert Ginv(math.expm1(1.0)) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("f, closed", [
    (lambda t: np.exp(-t), np.expm1),
    (lambda t: 1.0 / (1.0 + t), lambda v: v + v * v / 2.0),
])
def test_G_general_matches_closed_forms(f, closed):
    G, _ = el.GeneralDecreasingF(f).G_and_inverse()
    v = np.geomspace(1e-6, 20.0, 100)
    g = G(v)
    assert np.allclose(g, closed(v), rtol=1e-13, atol=0.0)
    assert all(G(float(x)) == gx for x, gx in zip(v, g))
    assert G(0.0) == 0.0 and np.array_equal(G(np.array([0.0, 1.0]))[:1], [0.0])


@pytest.mark.parametrize("f", [
    lambda t: np.exp(-t),
    lambda t: 1.0 / (1.0 + t),
    lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
], ids=["exp", "rational", "constant"])
def test_G_inverse_general_roundtrip(f):
    G, Ginv = el.GeneralDecreasingF(f).G_and_inverse()
    s = np.geomspace(1e-8, 50.0, 64)
    v = Ginv(s)
    assert np.allclose(G(v), s, rtol=1e-12, atol=0.0)
    assert all(Ginv(float(x)) == vx for x, vx in zip(s, v))
    assert isinstance(Ginv(1.0), float)
    assert Ginv(0.0) == 0.0 and np.array_equal(Ginv(np.array([0.0, 1.0]))[:1], [0.0])
    with pytest.raises(el.DomainError):
        Ginv(-1.0)


def test_general_f_must_be_nonincreasing():
    with pytest.raises(el.ConstructionError):
        el.GeneralDecreasingF(lambda t: t)


# ---------------------------------------------------------------------------
# closed-form power solution (substitution oracle first)
# ---------------------------------------------------------------------------

def power_laplacian(c: float, q: float, N: int, r: np.ndarray) -> np.ndarray:
    """Analytic -Lap(c r^q) = -c q (q + N - 2) r^(q-2)."""
    return -c * q * (q + N - 2.0) * r ** (q - 2.0)


@pytest.mark.parametrize("N,p,alpha", [(3, 1.0, -3.0), (3, 1.0, -2.5),
                                       (4, 2.0, -3.0), (5, 0.5, -2.2)])
def test_xi_substitution_identity(N, p, alpha):
    cf = el.xi_closed_form(N, p, alpha)
    r = np.geomspace(1e-3, 1e3, 50)
    lhs = power_laplacian(cf.coefficient, cf.exponent, N, r)
    rhs = r ** alpha * (cf.coefficient * r ** cf.exponent) ** (-p)
    scale = r ** (alpha - p * cf.exponent)
    assert np.max(np.abs(lhs - rhs) / scale) <= 1e-10


def test_xi_values_for_reference_cases():
    cf = el.xi_closed_form(3, 1.0, -3.0)
    assert cf.coefficient == pytest.approx(2.0, rel=1e-14)
    assert cf.exponent == pytest.approx(-0.5, abs=0)
    cf2 = el.xi_closed_form(3, 1.0, -2.5)
    assert cf2.exponent == pytest.approx(-0.25, abs=0)
    assert cf2.coefficient ** 2 == pytest.approx(16.0 / 3.0, rel=1e-12)


def test_xi_no_solution_at_critical_exponent():
    with pytest.raises(el.NoSolutionError):
        el.xi_closed_form(3, 1.0, -2.0)
    with pytest.raises(el.NoSolutionError):
        el.xi_closed_form(3, 1.0, -5.0)  # N + alpha + p(N-2) = -1 < 0


# ---------------------------------------------------------------------------
# double-integral profile
# ---------------------------------------------------------------------------

def test_profile_tail_divergence_detected():
    # tail integrand s phi = s^(-1) is not integrable at infinity
    with pytest.raises(el.DivergenceError, match="profile tail moment"):
        el.quad.iterated_tail_profile(el.PowerPhi(-2.0), 3, np.array([1.0]))


def test_profile_log_case_value():
    # oracle: inner log t, outer antiderivative -(ln t + 1)/t gives exactly 1 at r=1
    v = el.quad.iterated_tail_profile(el.PowerPhi(-3.0), 3, np.array([1.0]))[0]
    assert v == pytest.approx(1.0, rel=1e-9)


def test_profile_beta_minus4_value():
    # oracle: inner (1 - 1/t), outer elementary antiderivatives give 1/2 at r=1
    v = el.quad.iterated_tail_profile(el.PowerPhi(-4.0), 3, np.array([1.0]))[0]
    assert v == pytest.approx(0.5, rel=1e-9)


def test_profile_zero_weight():
    phi = el.TabulatedPhi(knots=np.array([0.5, 2.0]), values=np.array([0.0, 0.0]),
                          near0_exp=0.0, tail_exp=-3.0)
    assert np.all(el.quad.iterated_tail_profile(phi, 3, np.array([0.5, 1.0, 4.0])) == 0.0)


@pytest.mark.parametrize("beta", [-2.5, -2.8])
def test_profile_pure_power_closed_form(beta):
    # inner integral from r0 = 0.5: A(r) = (r^(2+beta) - r^(2-N) r0^(N+beta)) / (N+beta)
    # + r^(2+beta) / (N-2) / |2+beta|, for N = 3
    N, r0 = 3, 0.5
    r = np.array([r0, 1.0, 4.0])
    got = el.quad.iterated_tail_profile(el.PowerPhi(beta), N, r)
    want = ((r ** (2.0 + beta) - r ** (2.0 - N) * r0 ** (N + beta)) / (N + beta)
            + r ** (2.0 + beta) / (-2.0 - beta)) / (N - 2)
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_profile_monotone_nonincreasing_in_r():
    vals = el.quad.iterated_tail_profile(el.PowerPhi(-2.5), 3, np.geomspace(0.2, 20.0, 9))
    assert np.all(np.diff(vals) <= 0)


# ---------------------------------------------------------------------------
# implicit supersolutions
# ---------------------------------------------------------------------------

def test_supersolution_power_map():
    # with p=1 the inverse map is v = sqrt(2 s); s = 2 gives v = 2
    _, Ginv = el.PowerF(1.0).G_and_inverse()
    assert Ginv(2.0) == pytest.approx(2.0)


def test_supersolution_profile_values():
    # from the log-case profile value 1 at r=1: v(1) = sqrt(2)
    values = supersolution_profile(el.PowerPhi(-3.0), el.PowerF(1.0), 3,
                                   inner_lower=1.0, r_min=1.0, nodes=256).values
    assert values[0] == pytest.approx(math.sqrt(2.0), rel=1e-8)
    # from the 1/2 value for the steeper power: v(1) = 1
    values2 = supersolution_profile(el.PowerPhi(-4.0), el.PowerF(1.0), 3,
                                    inner_lower=1.0, r_min=1.0, nodes=256).values
    assert values2[0] == pytest.approx(1.0, rel=1e-8)
    assert np.all(np.diff(values) < 0)


def test_supersolution_residual_sign():
    # finite-difference residual oracle at 20 interior radii
    prof = supersolution_profile(el.PowerPhi(-3.0), el.PowerF(1.0), 3,
                                 inner_lower=1.0, r_min=1.0, nodes=800)
    problem = el.ProblemSpec(3, el.PowerPhi(-3.0), el.PowerF(1.0), el.Origin())
    radii = np.geomspace(1.5, prof.r_max / 4.0, 20)
    h = 1e-3
    rp, rm = radii * math.exp(h), radii * math.exp(-h)
    u0, up, um = prof(radii), prof(rp), prof(rm)
    hp, hm = rp - radii, radii - rm
    d1 = (hm**2 * up - hp**2 * um + (hp**2 - hm**2) * u0) / (hp * hm * (hp + hm))
    d2 = 2.0 * (hm * up + hp * um - (hp + hm) * u0) / (hp * hm * (hp + hm))
    lap = d2 + 2.0 / radii * d1
    rhs = problem.phi(radii) * problem.f(u0)
    residual = (-lap - rhs) / np.maximum(1.0, rhs)
    assert np.min(residual) >= -1e-6
