"""Solution constructions: minimal solutions by expanding-annulus exhaustion,
two-parameter families, exterior-ball minimal solutions, glued global
supersolutions, and point-set superpositions.

Exhaustion truncation converges only algebraically for slowly decaying
minimal solutions (the measured deficit follows (r/n)^kappa with kappa < 1),
so the returned minimal profile is a guarded pointwise extrapolation of the
monotone ladder; the raw iterates and their increments stay available on the
result for the discrete order checks, which hold exactly on shared grids.
Every ladder is defined from its top level n_max down, and every exhaustion
returns one result type, LadderResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    GluingError,
    NoSolutionError,
    UnsupportedCombinationError,
)
from ._extrapolate import aitken_limit_rows
from .bvp1d import RadialGrid, RadialProfile, SolveConfig, neg_laplacian, solve_on_nodes
from .problem import (Ball, Origin, ProblemSpec, center_distance, check_centers,
                      nearest_center_distance)
from . import quad as _quad

# extrapolation ladder refinement: steps of 2^(1/3) below the final annulus
_REFINE_STEPS = 6
_COVER_MARGIN = 1.10
# radius window of the minimal and family ladder increments
_WINDOW = (0.5, 2.0)
# glued supersolutions: residual slack, amplitude doublings, log-radius stencil step
_GLUE_TOL = 1e-6
_GLUE_MAX_POW = 40
_H_LOG = 1e-3


def _require_existence(problem: ProblemSpec) -> None:
    """Refuse a zero weight, and a problem the existence criteria do not admit."""
    if problem.phi.is_zero:
        raise DomainError("constructions require a positive weight")
    prediction = _quad.classify_existence(problem)
    if prediction.exists is True:
        return
    for rep in prediction.reports:
        if rep.status == _quad.INFINITE and rep.certificate:
            raise NoSolutionError(
                f"criterion {rep.criterion} diverges",
                certificate=rep.certificate,
            )
    raise NoSolutionError(
        f"existence criteria refuse this problem (exists={prediction.exists})"
    )


def _trusted_window(n_max: float) -> tuple[float, float]:
    """Radius range covered (with margin) by the three deepest ladder levels.

    Inside this range the pointwise extrapolation has at least three entries,
    so profile values approximate the exhaustion limit rather than the
    truncated last iterate.
    """
    n3 = n_max * 2.0 ** (-2.0 / 3.0)
    return (_COVER_MARGIN / n3, n3 / _COVER_MARGIN)


def _doublings(n_max: float) -> list[float]:
    """The ladder's doubling radii n_max 2^-k >= 2, in increasing order (n_max >= 2)."""
    k = math.frexp(n_max / 2.0)[1] - 1  # the largest k with n_max 2^-k >= 2
    return [n_max * 2.0 ** -j for j in range(k, -1, -1)]


def _origin_ladder(n_max: float) -> list[float]:
    """The doublings and the refinements n_max 2^(-j/3) >= 2, j = 1.._REFINE_STEPS,
    in increasing order: the top seven levels step by 2^(1/3)."""
    refinements = (n_max * 2.0 ** (-j / 3.0) for j in range(1, _REFINE_STEPS + 1))
    return sorted(set(_doublings(n_max)).union(n for n in refinements if n >= 2.0))


def _solve_level(problem: ProblemSpec, weight: Callable, grid: RadialGrid,
                 va: float, vb: float, config: SolveConfig,
                 initial: np.ndarray | None = None) -> RadialProfile:
    """One ladder level: the Dirichlet problem with data va, vb on grid."""
    interior = solve_on_nodes(grid.nodes, problem.N, weight, problem.f, va, vb,
                              config, initial=initial)
    return RadialProfile(grid=grid, values=np.concatenate(([va], interior, [vb])))


def _ladder_gaps(rungs: Sequence[RadialProfile], window: tuple[float, float],
                 ordered: bool) -> list[float]:
    """One pass over consecutive doublings, each earlier level evaluated once.

    Gives the sup change from each level to the next over the later one's
    interior nodes inside window, inf where the window holds none of them.
    On an ordered (zero-data) ladder the later level must not fall below the
    earlier one there by more than 1e-8 of its scale: NoSolutionError otherwise.
    """
    lo, hi = window
    out = []
    for prev, cur in zip(rungs, rungs[1:]):
        r = cur.grid.interior
        mask = (r >= lo) & (r <= hi)
        if not np.any(mask):
            out.append(np.inf)
            continue
        gap = cur.values[1:-1][mask] - prev(r[mask])
        out.append(float(np.max(np.abs(gap))))
        if ordered and float(np.min(gap)) < -1e-8 * max(1.0, float(np.max(prev.values))):
            raise NoSolutionError(
                f"exhaustion iterates lost monotonicity by {float(np.min(gap)):.3e}")
    return out


@dataclass(eq=False)
class LadderResult:
    """An exhaustion construction: its profile and its monotone ladder.

    levels maps each ladder radius n, in increasing order, to the raw iterate
    of that level: on [1/n, n] around the origin, on [R, R + n] outside a
    ball of radius R.  The top level is the construction's n_max; the
    doublings n_max 2^-k >= 2 are raw_levels, and around the origin the
    refinements n_max 2^(-j/3) lie between them.  window_increments are the
    sup changes between consecutive doublings over the construction's
    increment window.  Construction-specific fields: truncation (per-node
    extrapolation error estimate, around the origin), the sandwich margins
    (family members) and layer_window (exterior ball).
    """

    profile: RadialProfile
    levels: dict[float, RadialProfile] = field(repr=False)
    window_increments: list[float]
    converged: bool
    trusted_window: tuple[float, float]
    truncation: np.ndarray | None = None
    sandwich_lower_margin: float | None = None
    sandwich_upper_margin: float | None = None
    layer_window: tuple[float, float] | None = None

    @property
    def raw_levels(self) -> list[RadialProfile]:
        """The raw iterates at the doubling radii, in increasing order."""
        return [self.levels[n] for n in _doublings(max(self.levels))]

    @property
    def raw_last(self) -> RadialProfile:
        """The raw iterate at the top level n_max."""
        return self.levels[max(self.levels)]

    def __call__(self, r):
        return self.profile(r)


def _origin_result(levels: dict[float, RadialProfile], grid: RadialGrid,
                   config: SolveConfig, ordered: bool, **fields) -> LadderResult:
    """The result of an origin ladder: its gaps, and its extrapolation on grid."""
    top = max(levels)
    increments = _ladder_gaps([levels[n] for n in _doublings(top)], _WINDOW, ordered)
    accel, trunc = _extrapolate_ladder(levels, grid)
    return LadderResult(
        profile=RadialProfile(grid=grid, values=accel),
        levels=levels,
        window_increments=increments,
        converged=bool(increments and increments[-1] < config.tol_sup),
        trusted_window=_trusted_window(top),
        truncation=trunc,
        **fields,
    )


def minimal_solution(
    problem: ProblemSpec,
    n_max: int = 64,
    config: SolveConfig | None = None,
    nodes: int = 2048,
) -> LadderResult:
    """Minimal solution around the origin as the limit of zero-data annulus problems.

    Solves on [1/n, n] for the ladder radii n of n_max: the doublings
    n_max 2^-k >= 2 (the raw monotone ladder) and the refinements of its top
    at ratio 2^(1/3).  Returns a guarded pointwise Aitken extrapolation on
    the final grid.  Refuses when the existence criteria fail.
    """
    config = config or SolveConfig()
    if not isinstance(problem.K, Origin):
        raise DomainError("minimal_solution expects the origin as compact set")
    _require_existence(problem)
    if n_max < 4:
        raise DomainError("n_max must be at least 4")
    decades_final = math.log10(float(n_max) ** 2)

    levels: dict[float, RadialProfile] = {}
    for nv in _origin_ladder(float(n_max)):
        ra, rb = 1.0 / nv, nv
        count = max(192, int(round(nodes * math.log10(rb / ra) / decades_final)))
        levels[nv] = _solve_level(problem, problem.phi,
                                  RadialGrid.geometric(ra, rb, count, problem.N),
                                  0.0, 0.0, config)
    final_grid = RadialGrid.geometric(1.0 / n_max, float(n_max), nodes, problem.N)
    return _origin_result(levels, final_grid, config, ordered=True)


def _extrapolate_ladder(levels: dict[float, RadialProfile],
                        final_grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-node guarded Aitken on the uniform-ratio top of the ladder."""
    ns = sorted(levels)
    top = [nv for nv in ns if nv >= ns[-1] * 2.0 ** (-(_REFINE_STEPS + 0.5) / 3.0)]
    rv = final_grid.interior
    table = np.full((len(top), len(rv)), np.nan)
    valid = np.zeros_like(table, dtype=bool)
    for i, nv in enumerate(top):
        prof = levels[nv]
        mask = (rv >= prof.r_min * _COVER_MARGIN) & (rv <= prof.r_max / _COVER_MARGIN)
        table[i, mask] = prof(rv[mask])
        valid[i, mask] = True
    last = levels[ns[-1]]
    raw_vals = last(rv)
    limits, errors = aitken_limit_rows(table, valid)
    use = np.isfinite(limits) & (np.sum(valid, axis=0) >= 3)
    # the exhaustion is nondecreasing, so the limit cannot fall below the last iterate
    out = np.maximum(np.where(use, limits, raw_vals), raw_vals)
    return (np.concatenate(([last.values[0]], out, [last.values[-1]])),
            np.where(use, errors, np.inf))


def family_member(
    problem: ProblemSpec,
    a: float,
    b: float,
    xi: LadderResult,
    n_max: int = 64,
    config: SolveConfig | None = None,
    nodes: int = 2048,
    initial_scale: float = 0.0,
) -> LadderResult:
    """Family member with boundary data a r^{2-N} + b + xi_n(r) on each annulus.

    The data uses the level-matched raw minimal iterate xi_n (same grid), which
    makes a r^{2-N} + b a discrete subsolution and a r^{2-N} + b + xi_n a
    discrete supersolution of the same tridiagonal system; the sandwich then
    holds at solver tolerance independent of discretization error.  The data
    are positive, so each level is one Newton solve at the schedule's final
    eps (config.final_level()), started from max(a r^{2-N} + b, xi_n): the
    flux stencil annihilates the harmonic, xi_n solves the zero-data system,
    and the maximum of two subsolutions is one, so the iterates rise
    monotonically.  A positive initial_scale starts from that constant
    instead.  The member (0, 0) is xi's own ladder and solves nothing.  The
    member is solved on xi's whole ladder, so n_max must be its top level
    (DomainError otherwise).  The grids come from xi, so nodes is not read;
    it is kept for callers that pass it.
    """
    config = config or SolveConfig()
    if a < 0 or b < 0:
        raise DomainError("family parameters must be nonnegative")
    if not isinstance(problem.K, Origin):
        raise DomainError("family members are built around the origin")
    if problem.f.power_exponent() is None:
        raise UnsupportedCombinationError("family construction requires a power nonlinearity")
    if float(n_max) != max(xi.levels):
        raise DomainError(f"n_max = {n_max} is not the top level {max(xi.levels):g} "
                          "of the minimal-solution ladder")

    one_level = config.final_level()
    levels: dict[float, RadialProfile] = {}
    low_margin = up_margin = np.inf
    for nv, xi_prof in xi.levels.items():
        rn = xi_prof.grid.nodes
        lower = a * rn ** (2.0 - problem.N) + b
        upper = lower + xi_prof.values
        if a == 0.0 and b == 0.0:
            prof = xi_prof
        else:
            start = (np.full(len(rn) - 2, initial_scale) if initial_scale > 0.0
                     else np.maximum(lower, xi_prof.values)[1:-1])
            prof = _solve_level(problem, problem.phi, xi_prof.grid, float(upper[0]),
                                float(upper[-1]), one_level, initial=start)
        levels[nv] = prof
        low_margin = min(low_margin, float(np.min(prof.values - lower)))
        up_margin = min(up_margin, float(np.min(upper - prof.values)))
    return _origin_result(levels, levels[max(levels)].grid, config, ordered=False,
                          sandwich_lower_margin=low_margin, sandwich_upper_margin=up_margin)


def exterior_ball_minimal(
    problem: ProblemSpec,
    n_max: int = 32,
    config: SolveConfig | None = None,
    nodes: int = 2048,
    delta_min: float = 1e-6,
) -> LadderResult:
    """Minimal solution outside a ball as the limit of zero-data shell problems.

    Solves on (R, R+n) for the doublings n = n_max 2^-k >= 2 with zero data
    at both ends; the weight argument is the distance r - R, so the grid
    grades geometrically in that distance.  The profile is the raw top shell.
    Refused when the full first-moment criterion fails.
    """
    config = config or SolveConfig()
    if not isinstance(problem.K, Ball):
        raise DomainError("exterior_ball_minimal expects a ball compact set")
    if not 0.0 < delta_min < 0.05:
        raise DomainError("delta_min must lie in (0, 0.05), below the layer window's end 0.1")
    if n_max < 2:
        raise DomainError("n_max must be at least 2")
    _require_existence(problem)
    R = problem.K.radius

    def shifted_weight(r: np.ndarray) -> np.ndarray:
        return problem.phi(np.maximum(np.asarray(r, dtype=float) - R, 1e-300))

    levels = {
        n: _solve_level(problem, shifted_weight,
                        RadialGrid.boundary_layer(R, delta_min, n, nodes, problem.N),
                        0.0, 0.0, config)
        for n in _doublings(float(n_max))
    }
    increments = _ladder_gaps(list(levels.values()), (R + 10.0 * delta_min, R + 0.5),
                              ordered=True)
    return LadderResult(
        profile=levels[max(levels)],
        levels=levels,
        window_increments=increments,
        converged=bool(increments and increments[-1] < max(config.tol_sup, 1e-6)),
        trusted_window=(R + 1e-2, R + n_max / 4.0),
        layer_window=(max(1e-3, 2.0 * delta_min), 0.1),
    )


# ---------------------------------------------------------------------------
# glued global supersolutions
# ---------------------------------------------------------------------------

def _smoothstep(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (10.0 + s * (-15.0 + 6.0 * s))


@dataclass(eq=False)
class GluedField:
    """U(r) = W(r) + M (1+r^2)^{(2-N)/2} with W blended from two branches.

    W follows the inner branch below rho0 and the outer branch above R_blend,
    with a quintic smoothstep blend of log-values in between; the superharmonic
    bump absorbs the blend defect once the amplitude M is large enough.
    """

    inner: RadialProfile
    outer: RadialProfile
    rho0: float
    R_blend: float
    M: float
    N: int
    problem: ProblemSpec

    def W(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        rr = np.atleast_1d(r)
        out = np.empty_like(rr)
        lo = rr <= self.rho0
        hi = rr >= self.R_blend
        mid = ~(lo | hi)
        if np.any(lo):
            out[lo] = self.inner(rr[lo])
        if np.any(hi):
            out[hi] = self.outer(rr[hi])
        if np.any(mid):
            s = (np.log(rr[mid]) - np.log(self.rho0)) / (
                np.log(self.R_blend) - np.log(self.rho0)
            )
            sm = _smoothstep(s)
            out[mid] = np.exp(
                (1.0 - sm) * np.log(self.inner(rr[mid]))
                + sm * np.log(self.outer(rr[mid]))
            )
        return float(out[0]) if scalar else out

    def bump(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (1.0 + r ** 2) ** ((2.0 - self.N) / 2.0)

    def __call__(self, r) -> np.ndarray:
        return self.W(r) + self.M * self.bump(r)


def _radial_inequality_residual(U: Callable, problem: ProblemSpec,
                                radii: np.ndarray) -> np.ndarray:
    """Normalized residual of -Lap(U) - phi(delta) f(U) at the given radii, by
    the solver's flux stencil on the nodes r e^{-_H_LOG}, r, r e^{_H_LOG}."""
    r = np.asarray(radii, dtype=float)
    nodes = np.exp([-_H_LOG, 0.0, _H_LOG])[:, None] * r
    u = np.asarray(U(nodes), dtype=float)
    return problem.residual(neg_laplacian(nodes, u, problem.N)[0],
                            problem.delta_radial(r), u[1])


def glue_supersolution(
    inner: RadialProfile,
    outer: RadialProfile,
    problem: ProblemSpec,
) -> GluedField:
    """Join a near-singularity branch and a tail branch into a global supersolution.

    The amplitude M runs over powers of two, at most 2^_GLUE_MAX_POW, until
    the finite-difference inequality residual is >= -_GLUE_TOL (normalized by
    the local equation scale) at every audit radius: 200 geometric radii
    across both branches plus 32 in the blend zone.  Residual improvement is monotone in M because the bump
    is superharmonic with -Lap bounded away from zero on compact annuli.
    """
    if inner.r_min >= outer.r_min:
        raise DomainError("inner branch must start below the outer branch")
    R_blend = outer.r_min
    rho0 = R_blend / 2.0
    if inner.r_max < rho0:
        raise DomainError("branches must overlap enough to blend")
    audit = np.sort(np.concatenate([
        np.geomspace(inner.r_min * 2.0, outer.r_max / 2.0, 200),
        np.geomspace(rho0, R_blend, 32),
    ]))

    M = 1.0
    for _ in range(_GLUE_MAX_POW + 1):
        field_ = GluedField(inner=inner, outer=outer, rho0=rho0,
                            R_blend=R_blend, M=M, N=problem.N, problem=problem)
        res = _radial_inequality_residual(field_, problem, audit)
        worst = float(np.min(res))
        if worst >= -_GLUE_TOL:
            return field_
        M *= 2.0
    raise GluingError(
        f"no amplitude up to 2^{_GLUE_MAX_POW} yields a nonnegative residual",
        worst_radius=float(audit[int(np.argmin(res))]),
    )


# ---------------------------------------------------------------------------
# superpositions over point sets
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SuperpositionField:
    """V(x) = sum over centers of U(|x - a|); evaluation-only."""

    U: Callable[[np.ndarray], np.ndarray]
    centers: np.ndarray

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        check_centers(self.centers)

    def delta(self, x: np.ndarray) -> np.ndarray:
        return nearest_center_distance(x, self.centers)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        total = np.zeros(x.shape[0])
        for a in self.centers:
            total += np.asarray(self.U(center_distance(x, a)))
        return total


def superposition_field(U, centers) -> SuperpositionField:
    """Superpose a positive decreasing radial bound over finitely many centers."""
    return SuperpositionField(U=U, centers=centers)
