"""The three in-process workloads: phase-sweep, ladder and superposition.

Each workload draws plain-data inputs from the seed (``draw``), turns them into
a fixed list of operations (``prepare``), and checks each operation's outputs
with the acceptance-suite tolerances (``check``).  One pass runs the list once
in order; the runner repeats passes for the measured time, so faster code runs
more passes of the same work rather than different work.

``smoke=True`` shrinks every size for the benchmark's own tests; the measured
runs always use the full sizes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from common import Op, rng_for
from elliptic_lab import analysis, bvp1d, construct, funcs, quad
from elliptic_lab.problem import Ball, Origin, PointSet, ProblemSpec


def _allowed(u: float, lo: float, hi: float, excluded: list[tuple[float, float]]) -> float:
    """Map u in [0, 1) uniformly onto [lo, hi] minus the excluded intervals.

    The map preserves order and measure, so stratified values of u give
    stratified exponents however the excluded intervals fall.
    """
    cuts = []
    for a, b in sorted(excluded):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cuts and a <= cuts[-1][1]:
            cuts[-1] = (cuts[-1][0], max(cuts[-1][1], b))
        else:
            cuts.append((a, b))
    x = lo + u * ((hi - lo) - sum(b - a for a, b in cuts))
    for a, b in cuts:
        if x >= a:
            x += b - a
    return x


def _cells(rng: np.random.Generator, n: int, salt: int) -> np.ndarray:
    """One value in each cell [k/n, (k+1)/n): the cell of item i is fixed (by the
    salt), the position inside the cell is seeded."""
    return (np.random.default_rng(salt).permutation(n) + rng.uniform(0.0, 1.0, n)) / n


# ---------------------------------------------------------------------------
# phase-sweep: existence classification and the simple/iterated equivalence
# ---------------------------------------------------------------------------

FAMILIES = ("power", "power_split", "power_log", "iter_log", "tabulated")
EXPONENT_RANGE = (-5.5, -0.5)
# Distance of every drawn exponent from the critical lines.  Closer to a line,
# the lab's window scans run past MAX_WINDOWS (inconclusive verdicts) or
# evaluate a steep weight so near zero that it overflows (DomainError).
CRITICAL_MARGIN = 0.25
REGIMES = ("near0", "tail", "full")


def _near0_critical(N: int, p: float) -> list[float]:
    # first moment (ball, simple lemma), iterated inner moment, shifted moment
    return [-2.0, -float(N), -2.0 - (1.0 + p) * (N - 2)]


def _tail_critical(N: int) -> list[float]:
    return [-2.0, -float(N)]


def _draw_phi(rng, family: str, N: int, p: float, u0: float, u1: float) -> dict:
    """Weight with near-zero exponent e0 and tail exponent e1 kept CRITICAL_MARGIN
    away from the critical lines; u0 and u1 place them within the allowed range."""
    m = CRITICAL_MARGIN
    c0 = _near0_critical(N, p)
    c1 = _tail_critical(N)
    lo, hi = EXPONENT_RANGE
    if family == "power":
        alpha = _allowed(u1, lo, hi, [(c - m, c + m) for c in c0 + c1])
        return {"kind": family, "alpha": alpha, "e0": alpha, "e1": alpha}
    if family in ("power_log", "iter_log"):
        if family == "power_log":
            betas = [float(rng.uniform(0.2, 1.5))]
        else:
            betas = [float(x) for x in rng.uniform(0.2, 0.8, size=2)]
        bs = sum(betas)
        # log factors slow the tail windows' decay near the start of the scan,
        # so the tail exponent keeps the log powers as extra distance
        excluded = [(c - m - bs, c + m + bs) for c in c1] + \
            [(c - bs - m, c - bs + m) for c in c0]
        alpha = _allowed(u1, lo, hi, excluded)
        return {"kind": family, "alpha": alpha, "betas": betas,
                "e0": alpha + bs, "e1": alpha}
    a = _allowed(u0, lo, hi, [(c - m, c + m) for c in c0])
    b = _allowed(u1, lo, hi, [(c - m, c + m) for c in c1])
    if family == "power_split":
        return {"kind": family, "alpha": a, "beta": b, "e0": a, "e1": b}
    knots = np.geomspace(0.25, 4.0, 9)
    values = knots ** np.where(knots <= 1.0, a, b) * np.exp(rng.normal(0.0, 0.1, 9))
    return {"kind": family, "knots": knots.tolist(), "values": values.tolist(),
            "e0": a, "e1": b}


def _make_phi(d: dict):
    kind = d["kind"]
    if kind == "power":
        return funcs.PowerPhi(d["alpha"])
    if kind == "power_split":
        return funcs.PowerSplitPhi(d["alpha"], d["beta"])
    if kind == "power_log":
        return funcs.PowerLogPhi(d["alpha"], d["betas"][0])
    if kind == "iter_log":
        return funcs.IterLogPhi(d["alpha"], tuple(d["betas"]))
    return funcs.TabulatedPhi(np.asarray(d["knots"]), np.asarray(d["values"]),
                              d["e0"], d["e1"])


def expected_verdicts(case: dict) -> tuple[bool, str]:
    """Existence and lemma status implied by the closed exponent inequalities."""
    N, p, e0, e1 = case["N"], case["p"], case["phi"]["e0"], case["phi"]["e1"]
    near0_crit = -2.0 if case["K"] == "ball" else -2.0 - (1.0 + p) * (N - 2)
    exists = e0 > near0_crit and e1 < -2.0
    near0_finite = e0 > -2.0
    tail_finite = e1 < -2.0
    finite = {"near0": near0_finite, "tail": tail_finite,
              "full": near0_finite and tail_finite}[case["regime"]]
    return exists, "finite" if finite else "infinite"


class PhaseSweep:
    """Every family x N x p x K stratum once per pass, with seeded exponents."""

    name = "phase-sweep"
    in_process = True
    seeded_outputs = True

    def draw(self, seed: int, smoke: bool = False) -> dict:
        rng = rng_for(seed, 1)
        strata = [(fam, N, p, K) for fam in FAMILIES for N in (3, 4, 5)
                  for p in (0.5, 1.0, 2.0) for K in ("origin", "ball")]
        if smoke:
            strata = strata[::9]
        # Each case keeps its own cell of the exponent range and the seed moves
        # it inside the cell.  A scan's cost grows as its exponent nears a
        # critical line, so free draws would make the pass cost depend on the seed.
        u0 = _cells(rng, len(strata), 10)
        u1 = _cells(rng, len(strata), 11)
        cases = []
        for i, (fam, N, p, K) in enumerate(strata):
            cases.append({"N": N, "p": p, "K": K, "regime": REGIMES[i % 3],
                          "phi": _draw_phi(rng, fam, N, p, float(u0[i]), float(u1[i]))})
        return {"cases": cases}

    def prepare(self, inputs: dict, workdir=None) -> list[Op]:
        ops = []
        for i, case in enumerate(inputs["cases"]):
            phi = _make_phi(case["phi"])
            K = Origin() if case["K"] == "origin" else Ball(1.0)
            problem = ProblemSpec(case["N"], phi, funcs.PowerF(case["p"]), K)
            ops.append(Op(f"case{i:03d}/{case['phi']['kind']}", "classify+lemma",
                          _sweep_op(problem, phi, case)))
        return ops

    def check(self, op: Op, out: dict) -> tuple[list[str], dict]:
        exists, status = out["expected"]
        mismatches = int(out["exists"] != exists)
        mismatches += int(out["simple"] != status) + int(out["iterated"] != status)
        mismatches += int(out["simple"] != out["iterated"])
        failures = []
        if mismatches:
            failures.append(f"verdicts exists={out['exists']} simple={out['simple']} "
                            f"iterated={out['iterated']}, expected {exists}/{status}")
        return failures, {"verdict_mismatches": mismatches}

    def record(self, op: Op, out: dict) -> dict:
        return {"text": [str(out["exists"]), out["simple"], out["iterated"]]
                + out["statuses"], "numbers": out["values"]}


def _sweep_op(problem, phi, case) -> Callable[[dict], dict]:
    expected = expected_verdicts(case)

    def run(state: dict) -> dict:
        prediction = quad.classify_existence(problem)
        simple, iterated = quad.lemma_zero_check(phi, case["N"], case["regime"])
        reports = list(prediction.reports) + [simple, iterated]
        return {
            "expected": expected,
            "exists": prediction.exists,
            "simple": simple.status,
            "iterated": iterated.status,
            "statuses": [rep.status for rep in reports],
            "values": [rep.value for rep in reports if rep.value is not None],
        }

    return run


# ---------------------------------------------------------------------------
# ladder: minimal solutions, family members, exterior ball, radial audits
# ---------------------------------------------------------------------------

CHECK_RADII = np.geomspace(0.1, 10.0, 512)
AB_GRID = [(a, b) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]


class Ladder:
    """The exterior-ball construction, then three admissible problems
    (N = 3, 4, 5) per pass with nine family members spread over them."""

    name = "ladder"
    in_process = True
    seeded_outputs = True

    def draw(self, seed: int, smoke: bool = False) -> dict:
        rng = rng_for(seed, 2)
        # Each p goes with one N.  With the default solver settings some N = 3,
        # p = 2 family members stop at the fixed-point iteration cap
        # (NonConvergenceError, e.g. alpha = -3.05, a = 0, b = 1), so p = 2 goes
        # with N = 4 or 5.
        p3 = float(rng.choice([0.5, 1.0]))
        ps = [p3, *rng.permutation([p for p in (0.5, 1.0, 2.0) if p != p3])]
        pairs = [AB_GRID[i] for i in rng.permutation(len(AB_GRID))]
        problems = []
        for k, (N, p) in enumerate(zip((3, 4, 5), ps)):
            lo, hi = -N - float(p) * (N - 2), -2.0
            # central half of the admissible interval: xi_closed_form exists
            alpha = lo + (hi - lo) * float(rng.uniform(0.3, 0.7))
            problems.append({"N": N, "p": float(p), "alpha": alpha,
                             "family": [list(ab) for ab in pairs[3 * k:3 * k + 3]]})
        sizes = {"n_max": 512, "nodes": 512} if smoke else {"n_max": 4096, "nodes": 2048}
        return {"problems": problems, **sizes}

    def prepare(self, inputs: dict, workdir=None) -> list[Op]:
        n_max, nodes = inputs["n_max"], inputs["nodes"]
        ball = ProblemSpec(3, funcs.PowerSplitPhi(-1.0, -3.0), funcs.PowerF(1.0), Ball(1.0))
        ops = [Op("exterior", "exterior", _exterior_op(ball, nodes))]
        for d in inputs["problems"]:
            N, p, alpha = d["N"], d["p"], d["alpha"]
            problem = ProblemSpec(N, funcs.PowerPhi(alpha), funcs.PowerF(p), Origin())
            closed = funcs.xi_closed_form(N, p, alpha)
            tag = f"N{N}"
            ops.append(Op(f"minimal/{tag}", "minimal",
                          _minimal_op(problem, closed, tag, n_max, nodes)))
            ops.append(Op(f"audit/{tag}", "audit", _audit_op(problem, tag)))
            for a, b in d["family"]:
                ops.append(Op(f"family/{tag}/a{a:g}b{b:g}", "family",
                              _family_op(problem, tag, a, b, n_max, nodes)))
        return ops

    def check(self, op: Op, out: dict) -> tuple[list[str], dict]:
        failures: list[str] = []
        quality: dict = {}
        if op.kind == "minimal":
            err = float(np.max(np.abs(out["u"] - out["closed"]) / out["closed"]))
            quality["closed_form_rel_err"] = err
            if not err <= 0.02:
                failures.append(f"closed-form sup-rel error {err:.3e} > 0.02")
        elif op.kind == "family":
            margin = min(out["lower"], out["upper"]) / out["scale"]
            quality["sandwich_margin_min"] = margin
            if not margin >= -1e-8:
                failures.append(f"scaled sandwich margin {margin:.3e} < -1e-8")
        elif op.kind == "audit":
            if not out["defect"] <= out["tol"]:
                failures.append(f"equation defect {out['defect']:.3e} > {out['tol']:.3e}")
            if not (np.isfinite(out["a_hat"]) and np.isfinite(out["b_hat"])):
                failures.append("asymptotic limits not finite")
        elif op.kind == "exterior":
            u = np.asarray(out["u"])
            inc = np.asarray(out["increments"])
            if not np.all(u > 0):
                failures.append("exterior profile not positive")
            elif not float(np.max(u / out["gauge"]) / np.min(u / out["gauge"])) <= 10.0:
                failures.append("boundary-layer ratio to the gauge spreads beyond 10")
            if not np.all(np.diff(inc) <= 0):
                failures.append(f"exhaustion increments not decreasing: {inc}")
        return failures, quality

    def record(self, op: Op, out: dict) -> dict:
        if op.kind == "audit":
            numbers = [out["defect"], out["a_hat"], out["b_hat"]]
        else:
            numbers = out["u"]
        return {"text": [], "numbers": [float(x) for x in numbers]}


def _minimal_op(problem, closed, tag, n_max, nodes):
    def run(state: dict) -> dict:
        res = construct.minimal_solution(problem, n_max=n_max, nodes=nodes)
        state[tag] = res
        return {"u": np.asarray(res.profile(CHECK_RADII)), "closed": closed(CHECK_RADII)}

    return run


def _audit_op(problem, tag):
    """The residual and asymptotics audits that ``lab solve`` runs on a minimal solution."""

    def run(state: dict) -> dict:
        res = state[tag]
        rep = analysis.residual_radial(res.raw_last, problem, "equality",
                                       r_window=res.trusted_window)
        est = analysis.asymptotics(res.profile, problem.N, window=res.trusted_window)
        r = res.raw_last.grid.nodes
        h = float(np.log(r[-1] / r[0]) / (len(r) - 1))
        return {"defect": rep.sup_norm_equation_defect, "tol": max(1e-8, 10.0 * h * h),
                "a_hat": est.a_hat, "b_hat": est.b_hat}

    return run


def _family_op(problem, tag, a, b, n_max, nodes):
    scale = max(1.0, a * float(n_max) ** (problem.N - 2) + b)

    def run(state: dict) -> dict:
        fm = construct.family_member(problem, a, b, state[tag], n_max=n_max, nodes=nodes)
        return {"lower": fm.sandwich_lower_margin, "upper": fm.sandwich_upper_margin,
                "scale": scale, "u": fm.profile(CHECK_RADII[::8]).tolist()}

    return run


def _exterior_op(problem, nodes):
    """Exterior minimal solution; its boundary layer is compared with the gauge H."""
    delta = np.geomspace(1e-3, 0.1, 64)
    gauge = bvp1d.solve_H(problem.phi, problem.f, nodes=4096)(delta)

    def run(state: dict) -> dict:
        ext = construct.exterior_ball_minimal(problem, n_max=32, nodes=nodes)
        return {"increments": list(ext.window_increments),
                "u": ext.profile(problem.K.radius + delta).tolist(), "gauge": gauge}

    return run


# ---------------------------------------------------------------------------
# superposition: glued single-point bound and point-set field audits
# ---------------------------------------------------------------------------

POINT_SET_SIZES = (2, 4, 8, 16)
BOUND_RADII = np.geomspace(0.01, 100.0, 64)


class Superposition:
    """The glued single-point bound for a seeded split weight (three operations),
    then field audits over seeded point sets of 2 to 16 centers."""

    name = "superposition"
    in_process = True
    seeded_outputs = True

    def draw(self, seed: int, smoke: bool = False) -> dict:
        rng = rng_for(seed, 3)
        alpha = float(rng.uniform(-3.5, -2.5))
        beta = float(rng.uniform(-3.5, -2.5))
        point_sets = []
        for k in POINT_SET_SIZES[:2] if smoke else POINT_SET_SIZES:
            half = 1.5 * k ** (1.0 / 3.0)
            centers: list[list[float]] = []
            while len(centers) < k:
                c = rng.uniform(-half, half, 3)
                if all(np.linalg.norm(c - np.asarray(o)) >= 1.0 for o in centers):
                    centers.append(c.tolist())
            point_sets.append({"centers": centers,
                               "halton_seed": int(rng.integers(0, 2 ** 31))})
        return {"alpha": alpha, "beta": beta, "point_sets": point_sets,
                "nodes": 200 if smoke else 800, "samples": 2000 if smoke else 30_000}

    def prepare(self, inputs: dict, workdir=None) -> list[Op]:
        phi = funcs.PowerSplitPhi(inputs["alpha"], inputs["beta"])
        f = funcs.PowerF(1.0)
        # the glued single-point bound, built as ``lab verify`` builds it
        ops = [Op("supersolution/outer", "supersolution", _outer_op(phi, f, inputs["nodes"])),
               Op("supersolution/inner", "supersolution", _inner_op(phi, f, inputs["nodes"])),
               Op("glue", "glue", _glue_op(phi, f))]
        for ps in inputs["point_sets"]:
            centers = ps["centers"]
            problem = ProblemSpec(3, phi, f, PointSet(tuple(map(tuple, centers))))
            ops.append(Op(f"field/{len(centers)}", "field",
                          _field_op(problem, np.asarray(centers), inputs["samples"],
                                    ps["halton_seed"])))
        return ops

    def check(self, op: Op, out: dict) -> tuple[list[str], dict]:
        failures: list[str] = []
        quality: dict = {}
        if op.kind in ("supersolution", "glue"):
            u = np.asarray(out["u"])
            if not (np.all(np.isfinite(u)) and np.all(u > 0)):
                failures.append(f"{op.key} not positive and finite")
            elif not np.all(np.diff(u) <= 0):
                failures.append(f"{op.key} not nonincreasing")
        else:
            frac = out["fraction"]
            quality["field_frac_nonneg_min"] = frac
            if not frac >= 0.99:
                failures.append(f"field fraction nonnegative {frac:.4f} < 0.99")
            if not out["skipped"] <= out["samples"] // 100:
                failures.append(f"{out['skipped']} samples skipped near centers")
        return failures, quality

    def record(self, op: Op, out: dict) -> dict:
        if op.kind == "supersolution":
            return {"text": [], "numbers": [float(x) for x in out["u"]]}
        if op.kind == "glue":
            return {"text": [], "numbers": [float(x) for x in out["u"]] + [out["M"]]}
        return {"text": [str(out["skipped"])],
                "numbers": [out["fraction"], out["min_residual"]]}


def _outer_op(phi, f, nodes):
    def run(state: dict) -> dict:
        prof = funcs.supersolution_profile(phi, f, 3, inner_lower=1.0, r_min=1.0, nodes=nodes)
        state["outer"] = prof
        return {"u": prof.values}

    return run


def _inner_op(phi, f, nodes):
    """Supersolution for the Kelvin-transformed weight, mapped back inside r = 1."""

    def run(state: dict) -> dict:
        kw = analysis.kelvin_weight(phi, 3, f.p)
        prof = funcs.supersolution_profile(kw.exact, f, 3, inner_lower=1.0, r_min=1.0,
                                           nodes=nodes)
        state["inner"] = analysis.kelvin_transform(prof, 3)
        return {"u": prof.values}

    return run


def _glue_op(phi, f):
    single = ProblemSpec(3, phi, f, Origin())

    def run(state: dict) -> dict:
        U = construct.glue_supersolution(state["inner"], state["outer"], single)
        state["bound"] = U
        return {"u": np.asarray(U(BOUND_RADII)), "M": float(U.M)}

    return run


def _field_op(problem, centers, samples, halton_seed):
    def run(state: dict) -> dict:
        V = construct.superposition_field(state["bound"], centers)
        rep = analysis.residual_field(V, problem, samples=samples, h=0.01, seed=halton_seed)
        return {"fraction": rep.fraction_nonnegative, "skipped": rep.skipped,
                "samples": samples, "min_residual": rep.min_residual}

    return run


WORKLOADS = {w.name: w for w in (PhaseSweep, Ladder, Superposition)}
