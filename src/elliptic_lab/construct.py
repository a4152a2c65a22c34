"""Solution constructions: minimal solutions by expanding-annulus exhaustion,
two-parameter families, exterior-ball minimal solutions, glued global
supersolutions, and point-set superpositions.

Exhaustion truncation converges only algebraically for slowly decaying
minimal solutions (the measured deficit follows (r/n)^kappa with kappa < 1),
so the returned minimal profile is a guarded pointwise extrapolation of the
monotone ladder; the raw iterates and their increments stay available on the
result for the discrete order checks, which hold exactly on shared grids.
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
    """The exhaustion radii 2, 4, 8, ... up to n_max (n_max >= 0)."""
    return [2.0 ** k for k in range(1, int(n_max).bit_length())]


def _solve_level(problem: ProblemSpec, weight: Callable, grid: RadialGrid,
                 va: float, vb: float, config: SolveConfig,
                 initial: np.ndarray | None = None) -> RadialProfile:
    """One ladder level: the Dirichlet problem with data va, vb on grid."""
    interior = solve_on_nodes(grid.nodes, problem.N, weight, problem.f, va, vb,
                              config, initial=initial)
    return RadialProfile(grid=grid, values=np.concatenate(([va], interior, [vb])))


def _increments(profiles: Sequence[RadialProfile],
                window: tuple[float, float]) -> list[float]:
    """Sup change from each profile to the next over the later one's interior
    nodes inside window; inf where the window holds none of them."""
    lo, hi = window
    out = []
    for prev, cur in zip(profiles, profiles[1:]):
        r = cur.grid.interior
        mask = (r >= lo) & (r <= hi)
        out.append(float(np.max(np.abs(cur.values[1:-1][mask] - prev(r[mask]))))
                   if np.any(mask) else np.inf)
    return out


@dataclass(eq=False)
class MinimalSolutionResult:
    """Accelerated minimal-solution estimate plus the monotone ladder.

    levels maps each annulus radius n of the ladder, the doublings and the
    refinements below the final annulus, to the raw iterate on [1/n, n].
    """

    profile: RadialProfile
    levels: dict[float, RadialProfile] = field(repr=False)
    window_increments: list[float] = field(default_factory=list)
    converged: bool = False
    truncation: np.ndarray | None = None
    trusted_window: tuple[float, float] = (0.0, np.inf)

    @property
    def raw_levels(self) -> list[RadialProfile]:
        """The raw iterates at the doubling radii, in increasing order."""
        return [self.levels[n] for n in _doublings(max(self.levels))]

    @property
    def raw_last(self) -> RadialProfile:
        """The raw iterate at the largest doubling radius."""
        return self.raw_levels[-1]

    def __call__(self, r):
        return self.profile(r)


def _assert_exhaustion_monotone(prev: RadialProfile, cur: RadialProfile) -> None:
    lo = max(_WINDOW[0], prev.r_min * 1.05)
    hi = min(_WINDOW[1], prev.r_max / 1.05)
    mask = (cur.grid.interior >= lo) & (cur.grid.interior <= hi)
    if not np.any(mask):
        return
    rw = cur.grid.interior[mask]
    gap = cur.values[1:-1][mask] - prev(rw)
    scale = max(1.0, float(np.max(prev.values)))
    if float(np.min(gap)) < -1e-8 * scale:
        raise NoSolutionError(
            f"expanding-annulus iterates lost monotonicity by {float(np.min(gap)):.3e}"
        )


def minimal_solution(
    problem: ProblemSpec,
    n_max: int = 64,
    config: SolveConfig | None = None,
    nodes: int = 2048,
) -> MinimalSolutionResult:
    """Minimal solution around the origin as the limit of zero-data annulus problems.

    Solves on [1/n, n] for doubling n up to n_max (the raw monotone ladder),
    refines the top of the ladder at ratio 2^(1/3), and returns a guarded
    pointwise Aitken extrapolation on the final grid.  Refuses when the
    existence criteria fail.
    """
    config = config or SolveConfig()
    if not isinstance(problem.K, Origin):
        raise DomainError("minimal_solution expects the origin as compact set")
    _require_existence(problem)
    if n_max < 4:
        raise DomainError("n_max must be at least 4")
    decades_final = math.log10(float(n_max) ** 2)

    doublings = _doublings(n_max)
    levels: dict[float, RadialProfile] = {}
    for nv in sorted(set(doublings).union(
            float(n_max) * 2.0 ** (-j / 3.0) for j in range(1, _REFINE_STEPS + 1))):
        ra, rb = 1.0 / nv, nv
        count = max(192, int(round(nodes * math.log10(rb / ra) / decades_final)))
        levels[nv] = _solve_level(problem, problem.phi,
                                  RadialGrid.geometric(ra, rb, count, problem.N),
                                  0.0, 0.0, config)
        if nv in doublings[1:]:
            _assert_exhaustion_monotone(levels[nv / 2.0], levels[nv])

    increments = _increments([levels[nv] for nv in doublings], _WINDOW)
    final_grid = RadialGrid.geometric(1.0 / n_max, float(n_max), nodes, problem.N)
    accel, trunc = _extrapolate_ladder(levels, final_grid)
    return MinimalSolutionResult(
        profile=RadialProfile(grid=final_grid, values=accel),
        levels=levels,
        window_increments=increments,
        converged=bool(increments and increments[-1] < config.tol_sup),
        truncation=trunc,
        trusted_window=_trusted_window(float(n_max)),
    )


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


@dataclass(eq=False)
class FamilyMemberResult:
    """Two-parameter family member with its discrete sandwich margins."""

    profile: RadialProfile
    raw_last: RadialProfile
    a: float
    b: float
    sandwich_lower_margin: float
    sandwich_upper_margin: float
    window_increments: list[float] = field(default_factory=list)
    trusted_window: tuple[float, float] = (0.0, np.inf)

    def __call__(self, r):
        return self.profile(r)


def family_member(
    problem: ProblemSpec,
    a: float,
    b: float,
    xi: MinimalSolutionResult,
    n_max: int = 64,
    config: SolveConfig | None = None,
    nodes: int = 2048,
    initial_scale: float = 0.0,
) -> FamilyMemberResult:
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
    grids come from xi, so nodes is not read; it is kept for callers that
    pass it.
    """
    config = config or SolveConfig()
    if a < 0 or b < 0:
        raise DomainError("family parameters must be nonnegative")
    if not isinstance(problem.K, Origin):
        raise DomainError("family members are built around the origin")
    if problem.f.power_exponent() is None:
        raise UnsupportedCombinationError("family construction requires a power nonlinearity")

    one_level = config.final_level()
    levels: dict[float, RadialProfile] = {}
    low_margin = up_margin = np.inf
    for nv, xi_prof in xi.levels.items():
        if nv > n_max:
            continue
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
    if not levels:
        raise DomainError("minimal-solution ladder does not reach n_max")

    deepest = max(levels)
    raw_last = levels[deepest]
    accel, _ = _extrapolate_ladder(levels, raw_last.grid)
    return FamilyMemberResult(
        profile=RadialProfile(grid=raw_last.grid, values=accel),
        raw_last=raw_last,
        a=a,
        b=b,
        sandwich_lower_margin=low_margin,
        sandwich_upper_margin=up_margin,
        window_increments=_increments([levels[n] for n in _doublings(deepest)], _WINDOW),
        trusted_window=_trusted_window(deepest),
    )


@dataclass(eq=False)
class ExteriorBallResult:
    """Exterior minimal solution (the raw last shell iterate) with its boundary-layer
    window for ratio analysis and the radius window its audits trust."""

    profile: RadialProfile
    layer_window: tuple[float, float]
    window_increments: list[float] = field(default_factory=list)
    converged: bool = False
    trusted_window: tuple[float, float] = (0.0, np.inf)

    @property
    def raw_last(self) -> RadialProfile:
        return self.profile

    def __call__(self, r):
        return self.profile(r)


def exterior_ball_minimal(
    problem: ProblemSpec,
    n_max: int = 32,
    config: SolveConfig | None = None,
    nodes: int = 2048,
    delta_min: float = 1e-6,
) -> ExteriorBallResult:
    """Minimal solution outside a ball as the limit of zero-data shell problems.

    Solves on (R, R+n) for doubling n with zero data at both ends; the weight
    argument is the distance r - R, so the grid grades geometrically in that
    distance.  Refused when the full first-moment criterion fails.
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

    shells = [
        _solve_level(problem, shifted_weight,
                     RadialGrid.boundary_layer(R, delta_min, n, nodes, problem.N),
                     0.0, 0.0, config)
        for n in _doublings(n_max)
    ]
    increments = _increments(shells, (R + 10.0 * delta_min, R + 0.5))
    return ExteriorBallResult(
        profile=shells[-1],
        layer_window=(max(1e-3, 2.0 * delta_min), 0.1),
        window_increments=increments,
        converged=bool(increments and increments[-1] < max(config.tol_sup, 1e-6)),
        trusted_window=(R + 1e-2, R + n_max / 4.0),
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
