"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Shared constructions come from session fixtures so their wall
times are measured once.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import elliptic_lab as el
from test_bvp1d import ONES, shooting_oracle_inverse_f


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_minimal(minimal64, closed_form):
    """Minimal solution matches the substitution-derived power law."""
    ms = minimal64.value
    rw = np.geomspace(0.1, 10.0, 512)
    rel = float(np.max(np.abs(ms.profile(rw) - closed_form(rw)) / closed_form(rw)))
    ok = rel <= 0.02 and minimal64.seconds <= 30.0
    report(1, ok,
           f"sup-rel {rel:.4f} (<= 0.02) on [0.1, 10], c={closed_form.coefficient}, "
           f"time {minimal64.seconds:.1f}s (<= 30s)")


def test_criterion_2_existence_phase_diagram():
    """Classification agrees with the exponent inequalities on the 75-point grid."""
    t0 = time.perf_counter()
    alphas = [-4.0, -3.0, -2.5, -2.1, -2.0]
    betas = [-3.0, -2.5, -2.1, -2.0, -1.0]
    ps = [0.5, 1.0, 2.0]
    disagreements = 0
    inconclusive = 0
    off_boundary_inconclusive = 0
    for alpha in alphas:
        for beta in betas:
            for p in ps:
                problem = el.ProblemSpec(3, el.PowerSplitPhi(alpha, beta),
                                         el.PowerF(p), el.Origin())
                pr = el.classify_existence(problem)
                expected = (3.0 + alpha + p > 0) and (beta < -2.0)
                boundary = (3.0 + alpha + p == 0.0) or (beta == -2.0)
                if pr.exists is None:
                    inconclusive += 1
                    if not boundary:
                        off_boundary_inconclusive += 1
                elif pr.exists != expected:
                    disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = (disagreements == 0 and inconclusive <= 3
          and off_boundary_inconclusive == 0 and elapsed <= 60.0)
    report(2, ok,
           f"75 points: {disagreements} disagreements, {inconclusive} inconclusive, "
           f"time {elapsed:.1f}s (<= 60s)")


def test_criterion_3_integral_equivalence():
    """Simple and iterated verdicts agree on randomized weights; exact spot value."""
    rng = np.random.default_rng(20260808)
    mismatches = 0
    count = 0
    while count < 20:
        kind = int(rng.integers(0, 3))
        def draw():
            while True:
                e = float(rng.uniform(-4.0, 0.0))
                if min(abs(e + 2.0), abs(e + 3.0)) > 0.05:
                    return e
        if kind == 0:
            phi = el.PowerPhi(draw())
        elif kind == 1:
            phi = el.PowerSplitPhi(draw(), draw())
        else:
            phi = el.PowerLogPhi(draw(), float(rng.uniform(0.2, 1.5)))
        count += 1
        for regime in ("near0", "tail", "full"):
            simple, iterated = el.lemma_zero_check(phi, 3, regime)
            if simple.status != iterated.status:
                mismatches += 1
    _, iterated = el.lemma_zero_check(el.PowerPhi(-1.0), 3, "near0")
    value_err = abs(iterated.value - 0.5)
    ok = mismatches == 0 and value_err <= 1e-8
    report(3, ok, f"20 weights x 3 regimes: {mismatches} mismatches; "
                  f"iterated value error {value_err:.2e} (<= 1e-8)")


def test_criterion_4_two_parameter_family(family_grid, minimal_deep):
    """Family asymptotics within 1 percent and discrete sandwich margins."""
    worst_extract = 0.0
    worst_margin = 0.0
    for (a, b), fm in family_grid.value.items():
        est = el.asymptotics(fm.profile, 3, samples=8, window=fm.trusted_window)
        tol = 0.01 * max(1.0, a, b)
        worst_extract = max(worst_extract, abs(est.a_hat - a) / tol,
                            abs(est.b_hat - b) / tol)
        scale = max(1.0, a * 4096.0 + b)
        worst_margin = min(worst_margin, fm.sandwich_lower_margin / scale,
                           fm.sandwich_upper_margin / scale)
    elapsed = family_grid.seconds + minimal_deep.seconds
    ok = worst_extract <= 1.0 and worst_margin >= -1e-8 and elapsed <= 120.0
    report(4, ok,
           f"worst extraction {worst_extract:.3f} (of the 1% budget), "
           f"worst sandwich margin {worst_margin:.2e} (>= -1e-8 scale), "
           f"time {elapsed:.1f}s (<= 120s)")


def test_criterion_5_gauge_exactness():
    """Flat-data gauge is the exact parabola; inverse nonlinearity matches shooting."""
    H1 = el.solve_H(el.PowerPhi(0.0), ONES, nodes=1024)
    t = H1.grid.nodes
    sup_err = float(np.max(np.abs(H1.values - t * (1.0 - t) / 2.0)))
    oracle = shooting_oracle_inverse_f()
    H2 = el.solve_H(el.PowerPhi(0.0), el.PowerF(1.0), nodes=4096)
    mid_err = abs(float(H2(0.5)) - oracle)
    ok = sup_err <= 1e-8 and mid_err <= 1e-4
    report(5, ok, f"parabola sup error {sup_err:.2e} (<= 1e-8); "
                  f"shooting mismatch {mid_err:.2e} (<= 1e-4)")


def test_criterion_6_boundary_layer_ratio(ball_problem):
    """Exterior solution to gauge ratio is bracketed and grid-stable."""
    H = el.solve_H(ball_problem.phi, ball_problem.f, nodes=4096)
    ratios = {}
    for nodes in (1536, 3072):
        ext = el.exterior_ball_minimal(ball_problem, n_max=32, nodes=nodes)
        _, _, vals = el.ratio_bracket(ext.profile, H, 1.0, (1e-3, 0.1))
        ratios[nodes] = vals
    spread = float(np.max(ratios[3072]) / np.min(ratios[3072]))
    drift = float(np.max(np.abs(ratios[3072] - ratios[1536]) / ratios[3072]))
    ok = spread <= 10.0 and drift <= 0.05
    report(6, ok, f"ratio sup/inf {spread:.3f} (<= 10); "
                  f"grid-to-grid change {drift:.4f} (<= 0.05)")


def test_criterion_7_inversion_checks(closed_form):
    """Involution, transformed-weight exponents, sphere potential averages."""
    r = np.geomspace(1e-2, 1e2, 256)
    grid = el.RadialGrid(nodes=r, dimension=3)
    prof = el.RadialProfile(grid=grid, values=closed_form(r))
    twice = el.kelvin_transform(el.kelvin_transform(prof, 3), 3)
    inv_rel = float(np.max(np.abs(twice.values - prof.values) / prof.values))
    kw = el.kelvin_weight(el.PowerPhi(-3.0), 3, 1.0)
    exponent_exact = (kw.exact.alpha == -(-3.0) - 2.0 - 3.0 - (3.0 - 2.0))
    sphere_err = max(
        abs(el.sphere_potential_average(3, 1.0, 2.0) - 0.5),
        abs(el.sphere_potential_average(3, 1.0, 0.5) - 1.0),
        abs(el.sphere_potential_average(4, 2.0, 1.0) - 0.25),
    )
    ok = inv_rel <= 1e-8 and exponent_exact and sphere_err <= 1e-8
    report(7, ok, f"involution {inv_rel:.2e} (<= 1e-8); exponent identity exact: "
                  f"{exponent_exact}; sphere averages {sphere_err:.2e} (<= 1e-8)")


def test_criterion_8_superposition_audit(glued_split):
    """Two-center field passes the inequality at 99 percent of samples."""
    U = glued_split.value
    centers = ((0.0, 0.0, 0.0), (4.0, 0.0, 0.0))
    V = el.superposition_field(U, centers)
    problem = el.ProblemSpec(3, el.PowerSplitPhi(-3.0, -3.0), el.PowerF(1.0),
                             el.PointSet(centers))
    rep = el.residual_field(V, problem, samples=10_000, h=0.01, seed=42)
    V1 = el.superposition_field(U, [[0.0, 0.0, 0.0]])
    pts = np.random.default_rng(3).normal(size=(128, 3)) * 2.0
    single_exact = float(np.max(np.abs(V1(pts) - U(np.linalg.norm(pts, axis=1)))))
    ok = rep.fraction_nonnegative >= 0.99 and single_exact == 0.0
    report(8, ok, f"fraction nonnegative {rep.fraction_nonnegative:.4f} (>= 0.99) "
                  f"over {rep.sample_count} samples; single-center deviation "
                  f"{single_exact}")


def test_criterion_9_divergence_certificates():
    """Tail and near-boundary certificates with the exact convergent value."""
    div = el.integrate_tail(lambda s: s * s ** -2.0, 1.0)
    conv = el.integrate_tail(lambda s: s * s ** -2.5, 1.0)
    boundary = el.divergence_certificate_boundary(el.PowerPhi(-2.0), 1.0)
    value_err = abs(conv.value - 2.0)
    ok = (div.status == el.INFINITE and conv.status == el.FINITE
          and value_err <= 1e-6 and boundary.divergent)
    report(9, ok, f"tail -2 {div.status}; tail -2.5 value error {value_err:.2e} "
                  f"(<= 1e-6); boundary -2 divergent: {boundary.divergent}")


def test_criterion_10_uniqueness_surrogate(problem_power, minimal64):
    """Different initial iterates and grids give the same family member."""
    runs = []
    ms_other = el.minimal_solution(problem_power, n_max=64, nodes=1536)
    for ms, nodes, start in ((minimal64.value, 2048, 0.0),
                             (ms_other, 1536, 4.0)):
        fm = el.family_member(problem_power, 1.0, 0.5, ms, n_max=64,
                              nodes=nodes, initial_scale=start)
        runs.append(fm.raw_last)
    rw = np.geomspace(0.5, 2.0, 200)
    rel = float(np.max(np.abs(runs[0](rw) - runs[1](rw)) / runs[0](rw)))
    ok = rel <= 0.005
    report(10, ok, f"cross-grid, cross-start agreement {rel:.2e} (<= 5e-3) "
                   f"on the common window")
