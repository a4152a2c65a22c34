"""Improper quadrature, existence criteria, and the simple/iterated equivalence."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad as scipy_quad

import elliptic_lab as el
from elliptic_lab import quad
from elliptic_lab.quad import (FINITE, INCONCLUSIVE, INFINITE, MAX_WINDOWS, _EvalCounter,
                               _GL_NODES, _GL_WTS, _InnerCumulative, _join, _panels, _scan,
                               _windows_to_inf, _windows_to_point, iterated_near0,
                               iterated_tail, power_moment)


# ---------------------------------------------------------------------------
# singular and tail integrals
# ---------------------------------------------------------------------------

def test_constant_integrand():
    rep = el.integrate_singular(lambda r: r * r ** -1.0, 1.0)
    assert rep.status == FINITE
    assert rep.value == pytest.approx(1.0, rel=1e-9)


def test_log_divergence_with_certificate():
    rep = el.integrate_singular(lambda r: r * r ** -2.0, 1.0)
    assert rep.status == INFINITE
    assert rep.certificate is not None
    cert = np.asarray(rep.certificate)
    assert np.all(np.diff(cert) > 0)
    # partial sums over dyadic windows grow like log(1/eps): nearly equal steps
    steps = np.diff(cert)[-4:]
    assert np.all(np.abs(steps - np.log(2.0)) < 0.05)


def test_power_integrand_alpha_minus_one():
    rep = el.integrate_singular(lambda r: np.ones_like(r), 1.0)
    assert rep.status == FINITE
    assert rep.value == pytest.approx(1.0, rel=1e-9)


def test_tail_values():
    rep = el.integrate_tail(lambda r: r * r ** -3.0, 1.0)
    assert rep.status == FINITE
    assert rep.value == pytest.approx(1.0, rel=1e-9)
    rep = el.integrate_tail(lambda r: r * r ** -2.5, 1.0)
    assert rep.status == FINITE
    assert abs(rep.value - 2.0) <= 1e-6
    rep = el.integrate_tail(lambda r: r * r ** -2.0, 1.0)
    assert rep.status == INFINITE


def test_negative_integrand_rejected():
    with pytest.raises(el.DomainError):
        el.integrate_singular(lambda r: r - 0.5, 1.0)


def test_interval_monotonicity():
    # enlarging the interval never decreases the value of a positive integral
    g = lambda r: r ** -0.5
    vals = [el.integrate_singular(g, b).value for b in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(vals) > 0)


# ---------------------------------------------------------------------------
# existence classification
# ---------------------------------------------------------------------------

def test_classify_origin_exists():
    pr = el.classify_existence(
        el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -3.0), el.PowerF(1.0), el.Origin()))
    assert pr.exists is True
    assert pr.criterion_used == "shifted-moment"
    # one moment test: the compact set picks the near-zero shift and the names
    points = el.PointSet(((0.0, 0.0, 0.0), (3.0, 0.0, 0.0)))
    cases = [(pr, "shifted-moment"),
             (el.classify_existence(el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -3.0),
                                                   el.PowerF(1.0), points)), "shifted-moment"),
             (el.classify_existence(el.ProblemSpec(3, el.PowerSplitPhi(-1.0, -3.0),
                                                   el.PowerF(1.0), el.Ball(1.0))), "first-moment")]
    for prediction, name in cases:
        assert prediction.exists is True
        assert prediction.criterion_used == name
        # piecewise powers: both moments in closed form, no analytic row
        assert [rep.criterion for rep in prediction.reports] == [
            f"{name}-near0", "first-moment-tail"]
        assert {rep.method for rep in prediction.reports} == {"closed-form"}
    # a log family is scanned and cross-checked against its exponents
    log_family = el.classify_existence(
        el.ProblemSpec(3, el.PowerLogPhi(-2.5, 0.7), el.PowerF(1.0), el.Origin()))
    assert log_family.exists is True
    assert [(rep.criterion, rep.method) for rep in log_family.reports] == [
        ("shifted-moment-near0", "quadrature"), ("first-moment-tail", "quadrature"),
        ("shifted-moment-analytic", "analytic")]


def test_classify_origin_tail_boundary():
    pr = el.classify_existence(
        el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -2.0), el.PowerF(1.0), el.Origin()))
    assert pr.exists is False


def test_classify_ball_first_moment():
    pr = el.classify_existence(
        el.ProblemSpec(3, el.PowerPhi(-3.0), el.PowerF(1.0), el.Ball(1.0)))
    assert pr.exists is False
    pr2 = el.classify_existence(
        el.ProblemSpec(3, el.PowerSplitPhi(-1.0, -3.0),
                       el.GeneralDecreasingF(lambda t: 1.0 / (1.0 + t)), el.Ball(1.0)))
    assert pr2.exists is True


def test_classify_general_f_with_point_set_unsupported():
    f = el.GeneralDecreasingF(lambda t: 1.0 / (1.0 + t))
    with pytest.raises(el.UnsupportedCombinationError):
        el.classify_existence(el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -3.0), f, el.Origin()))


def test_classify_plane_has_no_decaying_states():
    pr = el.classify_existence(
        el.ProblemSpec(2, el.PowerSplitPhi(-1.0, -3.0), el.PowerF(1.0), el.Ball(1.0)))
    assert pr.exists is False


@pytest.mark.parametrize("N", [3, 4])
def test_classify_grid_matches_analytic(N):
    alphas = [-4.0, -3.0, -2.5, -2.1, -2.0]
    betas = [-3.0, -2.5, -2.1, -2.0, -1.0]
    ps = [0.5, 1.0, 2.0]
    disagree = 0
    inconclusive = 0
    for alpha in alphas:
        for beta in betas:
            for p in ps:
                problem = el.ProblemSpec(N, el.PowerSplitPhi(alpha, beta),
                                         el.PowerF(p), el.Origin())
                pr = el.classify_existence(problem)
                expected = (N + alpha + p * (N - 2) > 0) and (beta < -2.0)
                if pr.exists is None:
                    inconclusive += 1
                elif pr.exists != expected:
                    disagree += 1
    assert disagree == 0
    assert inconclusive <= 3


def test_classify_iterlog_agrees_with_quadrature():
    # iterated-log correction shifts the near-zero exponent by the sum of
    # the log powers; verdicts from both routes must coincide
    phi = el.IterLogPhi(-6.5, (1.0, 1.0))     # near-zero exponent -4.5: shifted moment fails
    pr = el.classify_existence(el.ProblemSpec(3, phi, el.PowerF(1.0), el.Origin()))
    assert pr.exists is False
    phi2 = el.IterLogPhi(-3.5, (0.6, 0.6))    # near-zero exponent -2.3: admissible
    pr2 = el.classify_existence(el.ProblemSpec(3, phi2, el.PowerF(1.0), el.Origin()))
    assert pr2.exists is True


# ---------------------------------------------------------------------------
# closed-form moments of piecewise powers
# ---------------------------------------------------------------------------

def _segment_knots(data, n):
    """n knots with log gaps in [0.02, 0.45], inside [e^-2.5, e^2.5]."""
    gaps = data.draw(st.lists(st.floats(0.02, 0.45), min_size=n - 1, max_size=n - 1),
                     label="gaps")
    logk = np.concatenate(([0.0], np.cumsum(gaps)))
    start = data.draw(st.floats(-2.5, 2.5 - logk[-1]), label="start")
    return np.exp(start + logk)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_power_moment_matches_a_quadrature_split_at_the_knots(data):
    """A tabulated weight's moment over [a, b] around its knots, for m up to 197
    (N = 100, p = 1) and one piece 1e-6 to 1 from its critical exponent, equals an
    adaptive quadrature of the weight split at the knots."""
    n = data.draw(st.integers(2, 12), label="n")
    knots = _segment_knots(data, n)
    values = 10.0 ** np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                                 max_size=n), label="log10 values"))
    zero_at = data.draw(st.none() | st.integers(0, n - 1), label="zero at")
    if zero_at is not None:
        values[zero_at] = 0.0
    m = data.draw(st.floats(0.0, 197.0), label="m")
    q = data.draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** data.draw(st.floats(-6.0, 0.0))
    e0, e1 = data.draw(st.floats(-250.0, 50.0)), data.draw(st.floats(-250.0, 50.0))
    critical = data.draw(st.sampled_from(["near0", "segment", "tail"]), label="critical")
    if critical == "near0":
        e0 = q - m - 1.0
    elif critical == "tail":
        e1 = q - m - 1.0
    else:  # the values beyond a random knot follow the critical power
        j = data.draw(st.integers(0, n - 2), label="segment")
        values[j + 1:] = values[j] * (knots[j + 1:] / knots[j]) ** (q - m - 1.0)
    phi = el.TabulatedPhi(knots, values, e0, e1)
    a = knots[0] * np.exp(-data.draw(st.floats(0.01, 0.5)))
    b = knots[-1] * np.exp(data.draw(st.floats(0.01, 0.5)))
    rep = power_moment(phi.pieces(), m, a, b, "moment")
    edges = np.concatenate(([a], knots, [b]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        ref = sum(scipy_quad(lambda s: s ** m * phi(np.array([s]))[0], lo, hi, epsabs=0.0,
                             epsrel=1e-13, limit=200)[0]
                  for lo, hi in zip(edges[:-1], edges[1:]))
    assert rep.status == FINITE and rep.method == "closed-form" and rep.evaluations == 0
    assert rep.value == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert rep.error_estimate <= 1e-12 * rep.value


@settings(max_examples=60, deadline=None)
@given(m=st.floats(0.0, 197.0), log_q=st.floats(-6.0, 0.0), sign=st.sampled_from([-1.0, 1.0]))
def test_power_moment_of_a_power_is_one_over_q(m, log_q, sign):
    # int_0^1 s^m s^alpha ds = 1/q and int_1^inf = -1/q, q = m + alpha + 1
    alpha = sign * 10.0 ** log_q - m - 1.0
    q = math.fsum((m, alpha, 1.0))
    zero_end, tail = (0.0, 1.0), (1.0, math.inf)
    rep = power_moment(el.PowerPhi(alpha).pieces(), m, *(zero_end if q > 0 else tail), "q")
    assert rep.status == FINITE
    assert abs(rep.value - 1.0 / abs(q)) <= rep.error_estimate <= 1e-14 * rep.value
    other = power_moment(el.PowerPhi(alpha).pieces(), m, *(tail if q > 0 else zero_end), "q")
    assert other.status == INFINITE and other.value is None and other.certificate is None


def _piecewise_weight(data, family, e0, e1):
    if family == "power":
        return el.PowerPhi(e0)
    if family == "power_split":
        return el.PowerSplitPhi(e0, e1)
    n = data.draw(st.integers(2, 6), label="n")
    values = 10.0 ** np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                                 max_size=n), label="log10 values"))
    return el.TabulatedPhi(_segment_knots(data, n), values, e0, e1)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), family=st.sampled_from(["power", "power_split", "tabulated"]),
       K=st.sampled_from(["origin", "ball", "points"]), N=st.integers(3, 100),
       p=st.floats(0.1, 4.0), line=st.sampled_from(["near0", "tail"]),
       side=st.sampled_from([-1e-3, 1e-3]))
def test_classification_next_to_each_critical_line_is_the_exponent_inequality(
        data, family, K, N, p, line, side):
    compact = {"origin": el.Origin(), "ball": el.Ball(1.0),
               "points": el.PointSet(((0.0,) * N, (4.0,) + (0.0,) * (N - 1)))}[K]
    near0_line = -2.0 if K == "ball" else -2.0 - (1.0 + p) * (N - 2)
    other = data.draw(st.floats(-300.0, 5.0), label="other exponent")
    if family == "power":  # one exponent for both ends
        e0 = e1 = (near0_line if line == "near0" else -2.0) + side
    elif line == "near0":
        e0, e1 = near0_line + side, other
    else:
        e0, e1 = other, -2.0 + side
    phi = _piecewise_weight(data, family, e0, e1)
    pred = el.classify_existence(el.ProblemSpec(N, phi, el.PowerF(p), compact))
    assert pred.exists == (e0 > near0_line and e1 < -2.0)
    assert [rep.method for rep in pred.reports] == ["closed-form", "closed-form"]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), zero_ends=st.sampled_from([(True, False), (False, True), (True, True)]),
       exponents=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       m=st.floats(0.0, 197.0))
def test_zero_table_values_give_finite_moments(data, zero_ends, exponents, m):
    """A zero value at an end makes the declared power there zero, so that end's
    moment is finite whatever its exponent; zeros inside make intervals zero."""
    n = data.draw(st.integers(2, 8), label="n")
    values = 10.0 ** np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                                 max_size=n), label="log10 values"))
    values[data.draw(st.integers(0, n - 1), label="inner zero")] = 0.0
    values[[0, -1]] = np.where(zero_ends, 0.0, values[[0, -1]])
    phi = el.TabulatedPhi(_segment_knots(data, n), values, *exponents)
    pieces = phi.pieces()
    ends = [power_moment(pieces, m, 0.0, 1.0, "near0"),
            power_moment(pieces, m, 1.0, math.inf, "tail")]
    for zero, rep in zip(zero_ends, ends):
        if zero:  # the other pieces may still leave the double range (value None)
            assert rep.status == FINITE and (rep.value is None or math.isfinite(rep.value))
    if all(zero_ends):
        assert el.classify_existence(el.ProblemSpec(3, phi, el.PowerF(1.0), el.Origin())).exists


@pytest.mark.parametrize("N", [3, 100])
@pytest.mark.parametrize("K", [el.Origin(), el.Ball(1.0)], ids=["origin", "ball"])
@pytest.mark.parametrize("e0,e1", [(-1e3, -1e3), (-1e3, 1e3), (1e3, -1e3), (1e3, 1e3)])
@pytest.mark.parametrize("family", ["power", "power_split", "tabulated"])
def test_extreme_exponents_classify_without_a_warning(family, e0, e1, K, N):
    phi = {"power": el.PowerPhi(e0), "power_split": el.PowerSplitPhi(e0, e1),
           "tabulated": el.TabulatedPhi(np.array([0.5, 2.0]), np.array([8.0, 0.125]), e0, e1)
           }[family]
    if family == "power":
        e1 = e0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = el.classify_existence(el.ProblemSpec(N, phi, el.PowerF(1.0), K))
    near0_line = -2.0 if K.solid else -2.0 - 2.0 * (N - 2)
    assert pred.exists == (e0 > near0_line and e1 < -2.0)


@pytest.mark.parametrize("N,p,alpha", [(43, 2.0, -3.0), (44, 2.0, -3.0), (100, 2.0, -3.0),
                                       (3, 0.5, -3.417)])
def test_power_weights_far_from_their_lines_exist_at_any_shift(N, p, alpha):
    # the window scans read these as infinite from N = 44 on (the increments of
    # s^(1 + shift) toward s = 1 grow) or overflowed (-3.417): the closed form is exact
    pred = el.classify_existence(el.ProblemSpec(N, el.PowerPhi(alpha), el.PowerF(p),
                                                el.Origin()))
    assert pred.exists is True
    q = 2.0 + (1.0 + p) * (N - 2) + alpha
    assert pred.reports[0].value == pytest.approx(1.0 / q, rel=1e-15)


def test_tabulated_weight_at_a_large_shift_exists():
    # int_0^1 s^197 phi ds with phi = 8 (s/0.5)^-3 below 2: finite, 1/195
    phi = el.TabulatedPhi(np.array([0.5, 2.0]), np.array([8.0, 0.125]), -3.0, -3.0)
    pred = el.classify_existence(el.ProblemSpec(100, phi, el.PowerF(1.0), el.Origin()))
    assert pred.exists is True
    assert pred.reports[0].value == pytest.approx(1.0 / 195.0, rel=1e-14)


@pytest.mark.parametrize("N", [43, 44, 100])
def test_log_weight_at_a_large_shift_exists(N):
    # int_0^1 s^(1 + 3(N-2)) s^-3 log(1+s)^0.5 ds is finite; the one scan toward 0
    # sees its increments fall from the first window on
    pred = el.classify_existence(el.ProblemSpec(N, el.PowerLogPhi(-3.0, 0.5), el.PowerF(2.0),
                                                el.Origin()))
    assert pred.exists is True
    assert [rep.status for rep in pred.reports] == [FINITE, FINITE, FINITE]


@settings(max_examples=100, deadline=None)
@given(split=st.booleans(), alpha=st.floats(-5.5, -0.5), N=st.integers(3, 100),
       p=st.sampled_from([0.5, 1.0, 2.0]), shifted=st.booleans())
def test_near_zero_scan_verdict_is_the_closed_forms(split, alpha, N, p, shifted):
    # the near-zero moment of every compact set, at least 0.25 from its line
    shift = (1.0 + p) * (N - 2) if shifted else 0.0
    assume(abs(alpha + 2.0 + shift) >= 0.25)
    phi = el.PowerSplitPhi(alpha, -3.0) if split else el.PowerPhi(alpha)
    m = 1.0 + shift
    scan = el.integrate_singular(lambda s: s ** m * phi(s), 1.0)
    assert scan.status == power_moment(phi.pieces(), m, 0.0, 1.0, "near0").status


# ---------------------------------------------------------------------------
# simple vs iterated equivalence
# ---------------------------------------------------------------------------

def test_lemma_zero_near0_values():
    simple, iterated = el.lemma_zero_check(el.PowerPhi(-1.0), 3, "near0")
    assert simple.status == FINITE and iterated.status == FINITE
    assert simple.value == pytest.approx(1.0, rel=1e-8)
    # iterated value 1/((N+alpha)(2+alpha)) = 1/2
    assert iterated.value == pytest.approx(0.5, rel=1e-8)


def test_lemma_zero_near0_divergent():
    simple, iterated = el.lemma_zero_check(el.PowerPhi(-2.0), 3, "near0")
    assert simple.status == INFINITE
    assert iterated.status == INFINITE


def test_lemma_zero_tail():
    simple, iterated = el.lemma_zero_check(el.PowerPhi(-3.0), 3, "tail")
    assert simple.status == FINITE
    assert iterated.status == FINITE


def _random_weights(count: int, rng: np.random.Generator):
    """Power-type weights with exponents in [-4, 0], kept 0.05 away from the
    critical exponents where any finite-resolution quadrature must saturate."""
    out = []
    while len(out) < count:
        kind = rng.integers(0, 3)
        def draw():
            while True:
                e = float(rng.uniform(-4.0, 0.0))
                if min(abs(e + 2.0), abs(e + 3.0)) > 0.05:
                    return e
        if kind == 0:
            out.append(el.PowerPhi(draw()))
        elif kind == 1:
            out.append(el.PowerSplitPhi(draw(), draw()))
        else:
            out.append(el.PowerLogPhi(draw(), float(rng.uniform(0.2, 1.5))))
    return out


def test_equivalence_randomized_weights():
    rng = np.random.default_rng(20260808)
    for phi in _random_weights(20, rng):
        for regime in ("near0", "tail", "full"):
            simple, iterated = el.lemma_zero_check(phi, 3, regime)
            assert simple.status == iterated.status, (phi, regime)


def test_iterated_helpers_match_direct():
    # spot value: alpha = -1.5, N = 3 near zero: simple 2, iterated
    # 1/((N+a)(2+a)) = 1/(1.5*0.5) = 4/3
    rep = iterated_near0(lambda s: s ** -1.5, 3, 1.0)
    assert rep.status == FINITE
    assert rep.value == pytest.approx(4.0 / 3.0, rel=1e-8)
    rep2 = iterated_tail(lambda s: s ** -4.0, 3, 1.0)
    assert rep2.status == FINITE
    # tail iterated for pure power: 1/((N+b)... via parts) = value of
    # int_1^inf t^-2 (1 - t^-1) dt = 1/2
    assert rep2.value == pytest.approx(0.5, rel=1e-8)


def _profile_closed_form(phi, N, radii):
    """(r^(2-N) int_r0^r s^(N-1) phi ds + int_r^inf s phi ds) / (N-2), r0 = radii[0],
    from power_moment."""
    pieces = phi.pieces()
    inner = [power_moment(pieces, N - 1.0, radii[0], r, "inner").value if r > radii[0] else 0.0
             for r in radii]
    tail = [power_moment(pieces, 1.0, r, math.inf, "tail").value for r in radii]
    return (radii ** (2.0 - N) * np.array(inner) + np.array(tail)) / (N - 2)


def _grid_with_one(r0, span, per_octave):
    """Geometric grid from r0 to max(r0 span, 2) with per_octave segments per
    doubling (one 24-point panel each), and a node at the splice r = 1.

    The grid ends at 2 or beyond, where the tail moment of the weights drawn
    here is below one: _scan reads a partial sum above BLOWUP as divergent.
    """
    end = max(r0 * span, 2.0)
    radii = np.geomspace(r0, end, 1 + math.ceil(per_octave * math.log2(end / r0)))
    return np.union1d(radii, [1.0]) if radii[0] < 1.0 else radii


@settings(max_examples=60, deadline=None)
@given(N=st.integers(3, 6), split=st.booleans(), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       below=st.booleans(), r0=st.floats(0.05, 20.0), span=st.floats(1.5, 1e4),
       per_octave=st.integers(1, 8))
def test_profile_matches_the_closed_form_of_power_weights(N, split, u, v, below, r0, span,
                                                          per_octave):
    # exponents at least 0.5 from each critical line: the tail needs beta < -2,
    # and alpha = -N is kept clear
    beta = -2.5 - 5.0 * v
    if split:
        alpha = -N + 0.5 + 5.0 * u if not below else -N - 0.5 - 5.0 * u
        phi = el.PowerSplitPhi(alpha, beta)
    else:
        assume(abs(beta + N) >= 0.5)
        phi = el.PowerPhi(beta)
    radii = _grid_with_one(r0, span, per_octave)
    A = quad.iterated_tail_profile(phi, N, radii)
    np.testing.assert_allclose(A, _profile_closed_form(phi, N, radii), rtol=1e-12, atol=0)


@settings(max_examples=15, deadline=None)
@given(N=st.integers(3, 6), r0=st.floats(0.1, 10.0),
       cuts=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=8, unique=True),
       slopes=st.lists(st.floats(-4.0, 2.0), min_size=9, max_size=9),
       v0=st.floats(0.1, 10.0), e0=st.floats(-6.0, 2.0), e1=st.floats(-5.0, -2.5))
def test_profile_of_a_tabulated_weight_with_knots_inside_the_grid(N, r0, cuts, slopes, v0,
                                                                  e0, e1):
    # the supersolution grid from inner_lower = r0, as lab verify builds it; the
    # panels that straddle a knot cost the accuracy.  The values are scaled to
    # s^2 phi(s) = v0 at the last radius, so the tail moment stays far below
    # BLOWUP, which _scan reads as divergence
    radii = np.geomspace(r0, 4096.0 * r0, 800)
    knots = r0 * 4096.0 ** np.sort(cuts)
    log_values = np.concatenate(([0.0], np.cumsum(
        np.array(slopes[:len(knots) - 1]) * np.diff(np.log(knots)))))
    log_end = log_values[-1] + e1 * math.log(radii[-1] / knots[-1]) + 2.0 * math.log(radii[-1])
    phi = el.TabulatedPhi(knots, v0 * np.exp(log_values - log_end), e0, e1)
    A = quad.iterated_tail_profile(phi, N, radii)
    np.testing.assert_allclose(A, _profile_closed_form(phi, N, radii), rtol=1e-4, atol=0)


@pytest.mark.parametrize("phi, N", [(el.PowerSplitPhi(-0.371, -2.104), 6),
                                    (el.PowerSplitPhi(-1.0, -3.5), 60),
                                    (el.PowerSplitPhi(-1.0, -3.5), 80)], ids=repr)
def test_profile_of_a_weight_the_nested_tail_scan_could_not_classify(phi, N):
    # the tail moment int s phi ds is finite and one ordinary scan settles it,
    # where the nested scan of t^(1-N) J(t) ended inconclusive
    radii = np.geomspace(1.0, 4096.0, 800)
    A = quad.iterated_tail_profile(phi, N, radii)
    np.testing.assert_allclose(A, _profile_closed_form(phi, N, radii), rtol=1e-12, atol=0)


def test_profile_refuses_an_inner_moment_that_overflows():
    # s^99 phi(s) passes the largest double below r = 4096: one DomainError, no nan
    with pytest.raises(el.DomainError, match="finite"):
        quad.iterated_tail_profile(el.PowerPhi(-3.0), 100, np.geomspace(1.0, 4096.0, 800))


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("phi", [el.PowerPhi(-3.5), el.PowerSplitPhi(-1.0, -3.2),
                                 el.PowerLogPhi(-3.5, 0.7), el.IterLogPhi(-3.5, (0.6, 1.0))],
                         ids=repr)
def test_profile_agrees_with_the_nested_tail_scan(phi, N):
    # A(1) as the Tonelli sum and as the outer scan over the inner cumulative
    nested = iterated_tail(phi, N, 1.0)
    assert nested.status == FINITE
    A = quad.iterated_tail_profile(phi, N, np.geomspace(1.0, 4096.0, 800))
    assert A[0] == pytest.approx(nested.value, rel=1e-9)


def test_profile_checks_inner_lower_against_its_grid():
    # the inner integral starts at the grid: inner_lower must be r_min itself
    for inner_lower, r_min in ((-1.0, 1.0), (2.0, 1.0), (0.0, 0.5), (1.0 + 1e-13, 1.0)):
        with pytest.raises(el.DomainError, match="inner_lower"):
            el.supersolution_profile(el.PowerPhi(-2.5), el.PowerF(1), 3,
                                     inner_lower=inner_lower, r_min=r_min)


# ---------------------------------------------------------------------------
# overflowing integrands
# ---------------------------------------------------------------------------

def test_scan_overflow_ends_inconclusive_with_certificate():
    # the integrand overflows in the tenth window toward 0, [2^-10, 2^-9]
    counter = _EvalCounter(lambda s: np.where(s < 1e-3, np.inf, s ** -0.5))
    rep = _scan(counter, _windows_to_point(0.0, 1.0), "overflow")
    assert rep.status == INCONCLUSIVE and rep.value is None
    # the first block of 16 windows raises (16 * 24 points) and is evaluated
    # again one window at a time up to the overflowing tenth (10 * 24 points)
    assert rep.evaluations == 24 * 16 + 24 * 10
    assert rep.windows == 9
    cert = np.asarray(rep.certificate)
    assert len(cert) == 9 and np.all(np.diff(cert) > 0)


def test_scan_reports_the_windows_it_read():
    # s^-0.99 converges too slowly for the exit test: every window is read
    counter = _EvalCounter(lambda s: s ** -0.99)
    rep = _scan(counter, _windows_to_point(0.0, 1.0), "slow")
    assert rep.status == INCONCLUSIVE
    assert rep.windows == MAX_WINDOWS and rep.evaluations == 24 * MAX_WINDOWS
    reports = [el.integrate_tail(lambda r: r * r ** -3.0, 1.0),
               el.integrate_tail(lambda r: r * r ** -2.0, 1.0),
               iterated_near0(lambda s: s ** -1.5, 3, 1.0),
               iterated_tail(lambda s: s ** -4.0, 3, 1.0)]
    for rep in reports:
        assert 0 < rep.windows <= MAX_WINDOWS
        assert rep.evaluations >= 24 * rep.windows
    joined = _join("both", reports[0], reports[1])
    assert joined.windows == reports[0].windows + reports[1].windows
    analytic = el.classify_existence(
        el.ProblemSpec(3, el.PowerLogPhi(-3.0, 0.7), el.PowerF(1.0), el.Ball(1.0))).reports[-1]
    assert analytic.method == "analytic" and analytic.windows == 0
    closed = el.classify_existence(
        el.ProblemSpec(3, el.PowerPhi(-3.0), el.PowerF(1.0), el.Ball(1.0))).reports
    assert all(rep.method == "closed-form" and rep.windows == 0 and rep.evaluations == 0
               for rep in closed)


# r**-4.117 log(1+r)**0.7 overflows deep in the near-zero scan (window 328)
# before its ratio test settles
OVERFLOWING = el.ProblemSpec(3, el.PowerLogPhi(-4.117, 0.7), el.PowerF(0.5), el.Origin())


def test_classify_overflow_is_inconclusive():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pred = el.classify_existence(OVERFLOWING)
    assert pred.exists is None
    assert pred.reports[0].status == INCONCLUSIVE
    # the pure power this once stood for has a closed-form moment
    power = el.ProblemSpec(3, el.PowerPhi(-3.417), el.PowerF(0.5), el.Origin())
    assert el.classify_existence(power).exists is True


def test_classify_overflow_report_keeps_its_certificate():
    near0 = el.classify_existence(OVERFLOWING).reports[0]
    assert near0.criterion == "shifted-moment-near0" and near0.status == INCONCLUSIVE
    assert near0.certificate is not None and np.all(np.diff(near0.certificate) > 0)


def test_full_simple_certificate_is_lifted_by_the_finite_near_zero_value():
    # int_0^1 s^-0.5 ds = 2 is finite, int_1^inf s^-1 ds diverges: the tail's
    # partial sums are partial sums of the whole integral, so they start above 2
    simple, iterated = el.lemma_zero_check(el.PowerSplitPhi(-1.5, -2.0), 3, "full")
    assert simple.status == INFINITE and iterated.status == INFINITE
    cert = np.asarray(simple.certificate)
    assert cert[0] > 2.0 and np.all(np.diff(cert) > 0)


def test_inconclusive_second_piece_certificate_is_lifted_by_the_first_value():
    # int_0^1 1 ds = 1 is finite; the tail scan of s^-2 overflows past s = 8 after
    # the windows [1, 2], [2, 4], [4, 8], so the join is inconclusive, with the
    # tail's partial sums lifted by 1
    first = el.integrate_singular(lambda s: np.ones_like(s), 1.0)
    second = el.integrate_tail(lambda s: np.where(s > 8.0, np.inf, s ** -2.0), 1.0)
    assert first.status == FINITE and second.status == INCONCLUSIVE
    rep = _join("both", first, second)
    assert rep.status == INCONCLUSIVE
    assert rep.certificate == pytest.approx([1.5, 1.75, 1.875], rel=1e-12)


def test_lemma_near0_overflow_is_inconclusive():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        simple, iterated = el.lemma_zero_check(el.PowerLogPhi(-3.6, 0.7), 3, "near0")
    assert simple.status == INFINITE
    assert iterated.status == INCONCLUSIVE


# ---------------------------------------------------------------------------
# Gauss-Legendre panels: the batched path against one np.dot per panel
# ---------------------------------------------------------------------------

def _panels_reference(g, lo, hi):
    out = []
    for a, b in zip(lo, hi):
        x = 0.5 * (b - a) * _GL_NODES + (a + 0.5 * (b - a))
        out.append(0.5 * (b - a) * float(np.dot(_GL_WTS, g(x))))
    return np.asarray(out)


def _cumulative_reference(J, g, t):
    """J(t) point by point: the power-law continuation below the first anchor,
    else the anchor value below t plus one panel."""
    e = J.edges
    out = []
    for tj in t:
        i = min(max(int(np.searchsorted(e, tj, side="right")) - 1, 0), len(e) - 2)
        if tj < e[0]:
            out.append(J.base * (tj / e[0]) ** J.base_kappa)
        else:
            out.append(J.J[i] + _panels_reference(g, [e[i]], [tj])[0] + J.base)
    return np.asarray(out)


PANELS = st.lists(st.tuples(st.floats(1e-6, 1e3), st.floats(1e-9, 1e2)), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(-4.0, 3.0), panels=PANELS)
def test_panels_match_reference(alpha, panels):
    lo = np.array([a for a, _ in panels])
    hi = lo + np.array([w for _, w in panels])
    g = lambda s: s ** alpha  # noqa: E731
    np.testing.assert_allclose(_panels(g, lo, hi), _panels_reference(g, lo, hi),
                               rtol=1e-15, atol=0.0)


def test_panels_call_the_integrand_once_per_block():
    sizes = []

    def g(s):
        sizes.append(len(s))
        return np.exp(-s) * s ** 1.5

    lo = np.geomspace(1e-3, 50.0, 2 * 1024 + 1)
    hi = lo * 1.01
    got = _panels(g, lo, hi)
    assert sizes == [24 * 1024, 24 * 1024, 24]
    np.testing.assert_allclose(got, _panels_reference(g, lo, hi), rtol=1e-15, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2049), alpha=st.floats(-4.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_panels_are_independent_of_their_block(n, alpha, seed):
    rng = np.random.default_rng(seed)
    lo = 10.0 ** rng.uniform(-6.0, 3.0, n)
    hi = lo * (1.0 + 10.0 ** rng.uniform(-9.0, 1.0, n))
    g = lambda s: s ** alpha  # noqa: E731
    block = _panels(g, lo, hi)
    alone = np.array([_panels(g, a, b)[0] for a, b in zip(lo, hi)])
    np.testing.assert_array_equal(block, alone)


def test_gauss_cumulative_matrix_integrates_polynomials_exactly():
    # row k of the matrix integrates the node values' interpolant from -1 to node k
    x = _GL_NODES
    for degree in range(24):
        exact = (x ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
        np.testing.assert_allclose(quad._GL_CUMUL @ x ** degree, exact, rtol=0.0, atol=1e-14)


def _old_windows_to_point(a, width, count):
    return [(a + width * 2.0 ** -(k + 1), a + width * 2.0 ** -k) for k in range(count)]


def _old_windows_to_inf(a, count):
    return [(a * 2.0 ** k, a * 2.0 ** (k + 1)) for k in range(count)]


@pytest.mark.parametrize("a,width", [(0.0, 1.0), (0.0, 0.3), (0.5, 0.5), (0.0, 1e-300),
                                     (2.0, 1e-5), (0.0, 7.3e300)])
def test_point_windows_are_the_old_generator(a, width):
    lo, hi = _windows_to_point(a, width)(np.arange(MAX_WINDOWS))
    old = np.array(_old_windows_to_point(a, width, MAX_WINDOWS))
    np.testing.assert_array_equal(lo, old[:, 0])
    np.testing.assert_array_equal(hi, old[:, 1])


@pytest.mark.parametrize("a", [1.0, 0.3, 1e-300, 3.7, 1e300])
def test_tail_windows_are_the_old_generator(a):
    with np.errstate(over="ignore"):  # a 2^k overflows for a = 1e300, to inf on both sides
        lo, hi = _windows_to_inf(a)(np.arange(MAX_WINDOWS))
    old = np.array(_old_windows_to_inf(a, MAX_WINDOWS))
    np.testing.assert_array_equal(lo, old[:, 0])
    np.testing.assert_array_equal(hi, old[:, 1])


WEIGHTS = [el.PowerPhi(-1.0), el.PowerPhi(-2.0), el.PowerPhi(-3.5), el.PowerPhi(-3.417),
           el.PowerSplitPhi(-1.5, -3.5), el.PowerSplitPhi(-3.0, -2.0),
           el.PowerLogPhi(-2.5, 0.7), el.PowerLogPhi(-3.6, 0.7), el.PowerLogPhi(-1.2, 1.5),
           el.IterLogPhi(-3.5, (0.6, 0.6)), el.IterLogPhi(-6.5, (1.0, 1.0)),
           el.TabulatedPhi(knots=np.array([0.5, 1.0, 2.0, 4.0]),
                           values=np.array([4.0, 1.0, 0.2, 0.02]),
                           near0_exp=-2.0, tail_exp=-3.3)]


def _verdicts(phi):
    """Every report field but the evaluation count, for classify and all regimes."""
    reports = list(el.classify_existence(
        el.ProblemSpec(3, phi, el.PowerF(0.5), el.Origin())).reports)
    for N in (3, 5):
        for regime in ("near0", "tail", "full"):
            reports.extend(el.lemma_zero_check(phi, N, regime))
    return [(r.criterion, r.status, r.value, r.certificate, r.error_estimate, r.windows)
            for r in reports]


@pytest.mark.parametrize("phi", WEIGHTS, ids=repr)
def test_reports_are_independent_of_the_window_block(phi, monkeypatch):
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for size in (1, 3, 16, MAX_WINDOWS):
            monkeypatch.setattr(quad, "_WINDOW_BLOCK", size)
            results.append(_verdicts(phi))
    for other in results[1:]:
        assert other == results[0]


@pytest.mark.parametrize("phi", WEIGHTS, ids=repr)
def test_full_lemma_scans_toward_zero_once(phi, monkeypatch):
    # the reports equal the composition of the public pieces, evaluations
    # included, while the inner scan over [0, 1] runs once
    s0 = el.integrate_singular(lambda s: s * phi(s), 1.0, criterion="simple-full")
    s1 = el.integrate_tail(lambda s: s * phi(s), 1.0, criterion="simple-full")
    it0 = iterated_near0(phi, 3, 1.0)
    it1 = (iterated_tail(phi, 3, 1.0, inner_base=quad._inner_near0(phi, 3, 1.0).value)
           if it0.status == FINITE else None)
    expected = (_join("simple-full", s0, s1), _join("iterated-full", it0, it1))
    his = []
    scan = quad._inner_near0
    monkeypatch.setattr(quad, "_inner_near0", lambda w, N, hi: his.append(hi) or scan(w, N, hi))
    assert el.lemma_zero_check(phi, 3, "full") == expected
    assert his.count(1.0) == 1


def test_window_block_cases_cover_every_verdict():
    statuses = {r[1] for phi in WEIGHTS for r in _verdicts(phi)}
    assert statuses == {FINITE, INFINITE, INCONCLUSIVE}


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(1e-3, 10.0), span=st.floats(2.0, 1e6),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_inner_cumulative_is_independent_of_its_extensions(lo, span, cuts):
    N = 3
    T = lo * span
    w = lambda s: 1.0 / (1.0 + s * s)  # noqa: E731
    once = _InnerCumulative(N, lo, 2.0 * lo, _EvalCounter(w))
    once.extend_to(T)
    steps = _InnerCumulative(N, lo, 2.0 * lo, _EvalCounter(w))
    for c in sorted(cuts):
        steps.extend_to(2.0 * lo + c * (T - 2.0 * lo))
    steps.extend_to(T)
    np.testing.assert_array_equal(steps.edges, once.edges)
    np.testing.assert_array_equal(steps.J, once.J)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-2.5, 1.0), lo=st.floats(1e-3, 1.0), span=st.floats(1.5, 1e3),
       N=st.integers(3, 6), base=st.floats(0.0, 1.0), extension=st.floats(1.0, 1e3),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_inner_cumulative_node_table(alpha, lo, span, N, base, extension, cuts):
    # at the Gauss nodes of its anchor intervals J reads the cumulative rule's
    # table, which agrees with one panel per node and evaluates nothing
    w = lambda s: s ** alpha  # noqa: E731
    counter = _EvalCounter(w)
    J = _InnerCumulative(N, lo, lo * span, counter, base=base)
    T = J.edges[-1] * extension
    J.extend_to(T)
    steps = _InnerCumulative(N, lo, lo * span, _EvalCounter(w), base=base)
    for c in sorted(cuts):
        steps.extend_to(lo * span + c * (T - lo * span))
    steps.extend_to(T)
    np.testing.assert_array_equal(steps.nodes, J.nodes)
    np.testing.assert_array_equal(steps.at_nodes, J.at_nodes)
    assert len(J.nodes) == 24 * (len(J.edges) - 1) and np.all(np.diff(J.nodes) > 0)

    before = counter.count
    got = J(J.nodes)
    assert counter.count == before
    ref = _cumulative_reference(J, lambda s: s ** alpha * s ** (N - 1), J.nodes)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


FRACTIONS = st.lists(st.floats(0.001, 0.999), max_size=6)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-2.5, 1.0), lo=st.floats(1e-3, 1.0), span=st.floats(1.5, 1e3),
       base=st.floats(0.0, 1.0), kappa=st.floats(0.0, 4.0), data=st.data())
def test_inner_cumulative_matches_reference(alpha, lo, span, base, kappa, data):
    # node and below-anchor queries in any order read the table and the power
    # law, evaluating nothing (test_inner_cumulative_node_table checks the table)
    N = 3
    counter = _EvalCounter(lambda s: s ** alpha)
    J = _InnerCumulative(N, lo, lo * span, counter, base=base, base_kappa=kappa)
    below = J.edges[0] * np.array(data.draw(FRACTIONS))
    k = np.array(data.draw(st.lists(st.integers(0, len(J.nodes) - 1), max_size=12)), dtype=int)
    t = np.concatenate([below, J.nodes[k]])
    order = np.array(data.draw(st.permutations(range(len(t)))), dtype=int)

    before = counter.count
    got = J(t[order])[np.argsort(order)]
    assert counter.count == before
    ref = _cumulative_reference(J, lambda s: s ** alpha * s ** (N - 1), below)
    np.testing.assert_allclose(got[:len(below)], ref, rtol=2e-15, atol=0.0)
    np.testing.assert_array_equal(got[len(below):], J.at_nodes[k] + base)


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(1e-3, 1.0), span=st.floats(1.5, 1e3), data=st.data())
def test_inner_cumulative_refuses_off_table_queries(lo, span, data):
    # an anchor, a point between nodes and a point beyond the last anchor are
    # off the table: one DomainError, whatever else the query holds
    J = _InnerCumulative(3, lo, lo * span, _EvalCounter(lambda s: 1.0 / (1.0 + s * s)))
    e = J.edges
    i = data.draw(st.integers(0, len(J.nodes) - 2))
    off = data.draw(st.sampled_from([e[i // 24], 0.5 * (J.nodes[i] + J.nodes[i + 1]),
                                     e[-1] * (1.0 + data.draw(st.floats(0.001, 1.0)))]))
    with pytest.raises(el.DomainError, match="off its node table"):
        J(np.array([J.nodes[0], 0.5 * e[0], off]))


# ---------------------------------------------------------------------------
# boundary certificates
# ---------------------------------------------------------------------------

def test_boundary_certificate_divergent():
    cert = el.divergence_certificate_boundary(el.PowerPhi(-2.0), 1.0)
    assert cert.divergent
    ks = np.arange(1, len(cert.values) + 1, dtype=float)
    model = np.log(2.0 ** ks) + 2.0 ** -ks - 1.0
    assert np.max(np.abs(np.asarray(cert.values) - model)) < 1e-8
    assert np.all(np.diff(cert.values) > 0)


def test_boundary_certificate_convergent():
    cert = el.divergence_certificate_boundary(el.PowerPhi(-1.0), 1.0)
    assert not cert.divergent
    assert cert.limit == pytest.approx(1.0, rel=1e-6)


def test_boundary_certificate_constant_weight():
    cert = el.divergence_certificate_boundary(el.PowerPhi(0.0), 1.0)
    assert not cert.divergent
    assert cert.limit == pytest.approx(0.5, rel=1e-8)


def test_boundary_certificate_levels_guard():
    with pytest.raises(el.DomainError):
        el.divergence_certificate_boundary(el.PowerPhi(-1.0), 1.0, levels=2)
    # r0 2^-levels would be subnormal: refused before any panel is built
    with pytest.raises(el.DomainError, match="smallest normal double"):
        el.divergence_certificate_boundary(el.PowerPhi(-1.0), 1e-10, levels=1000)


def _power_moment(alpha, lo, hi, r):
    """int_lo^hi (rho - r) rho^alpha d rho in closed form."""
    def F(a, x):  # an antiderivative of x^a
        return np.log(x) if a == -1.0 else x ** (a + 1.0) / (a + 1.0)
    return (F(alpha + 1.0, hi) - F(alpha + 1.0, lo)) - r * (F(alpha, hi) - F(alpha, lo))


@pytest.mark.parametrize("r0", [0.3, 1.0, 5.0])
@pytest.mark.parametrize("alpha", [-2.5, -2.0, -1.0, 0.0, 1.0])
def test_boundary_certificate_matches_power_closed_form(alpha, r0):
    cert = el.divergence_certificate_boundary(el.PowerPhi(alpha), r0)
    r = np.asarray(cert.radii)
    np.testing.assert_array_equal(r, r0 * 2.0 ** -np.arange(1.0, 25.0))
    np.testing.assert_allclose(cert.values, _power_moment(alpha, r, r0, r), rtol=1e-13, atol=0)


def test_boundary_certificate_split_weight_across_its_kink():
    # rho^-1.5 below 1 and rho^-3 above: the kink at 1 lies inside the window [0.625, 1.25]
    cert = el.divergence_certificate_boundary(el.PowerSplitPhi(-1.5, -3.0), 5.0)
    r = np.asarray(cert.radii)
    exact = np.where(r >= 1.0, _power_moment(-3.0, r, 5.0, r),
                     _power_moment(-1.5, r, 1.0, r) + _power_moment(-3.0, 1.0, 5.0, r))
    np.testing.assert_allclose(cert.values, exact, rtol=1e-5, atol=0)


def test_tail_monotonicity_probe():
    assert el.quad.phi_tail_monotone(el.PowerPhi(-2.0), 1.0)
    bumpy = el.TabulatedPhi(knots=np.array([1.0, 2.0, 3.0, 4.0]),
                            values=np.array([1.0, 2.0, 0.5, 1.5]),
                            near0_exp=0.0, tail_exp=0.0)
    assert not el.quad.phi_tail_monotone(bumpy, 1.0)


def test_tail_monotonicity_probe_of_an_overflowing_weight():
    # r^1e3 is inf beyond r = 2.1, and inf - inf is NaN: not monotone, and no warning
    assert not el.quad.phi_tail_monotone(el.PowerPhi(1e3), 1.0)
