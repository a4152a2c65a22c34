"""Transforms and verifiers: inversion (Kelvin) transform, sphere potential
averages, asymptotics extraction, residual audits, minimum-principle and
two-dimensional obstruction demonstrations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quad import _panels
from ._extrapolate import MAX_LEVELS, aitken_limit
from .bvp1d import AUDIT_TOL, RadialGrid, RadialProfile
from .problem import Origin, PointSet, ProblemSpec


# ---------------------------------------------------------------------------
# inversion transform
# ---------------------------------------------------------------------------

def kelvin_transform(profile: RadialProfile, N: int) -> RadialProfile:
    """Image profile u*(r) = r^{2-N} u(1/r) on the inverted radius range.

    Node radii map to their reciprocals (reversed to stay increasing) and the
    transform is an involution up to floating-point roundoff.
    """
    if N < 3:
        raise DomainError("inversion transform requires N >= 3")
    r = profile.grid.nodes
    if r[0] <= 0:
        raise DomainError("profile domain must be strictly positive")
    new_r = (1.0 / r)[::-1]
    new_v = (r ** (N - 2) * profile.values)[::-1]
    grid = RadialGrid(nodes=new_r, dimension=profile.grid.dimension)
    return RadialProfile(grid=grid, values=new_v)


@dataclass(frozen=True, eq=False)
class KelvinWeight:
    """Transformed weight r^{-2-N-p(N-2)} phi(1/r), with the exact family when closed."""

    base: object
    N: int
    p: float
    exact: object | None

    @property
    def exponent_shift(self) -> float:
        return -2.0 - self.N - self.p * (self.N - 2.0)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return r ** self.exponent_shift * self.base(1.0 / r)


def kelvin_weight(phi, N: int, p: float) -> KelvinWeight:
    """Weight seen by the inverted equation; exact power families map to power families."""
    if N < 3:
        raise DomainError("requires N >= 3")
    shift = -2.0 - N - p * (N - 2.0)
    return KelvinWeight(base=phi, N=N, p=p, exact=phi.kelvin_image(shift))


# ---------------------------------------------------------------------------
# sphere potential average
# ---------------------------------------------------------------------------

def sphere_potential_average(N: int, r: float, x_norm: float) -> float:
    """Average of |x - y|^{2-N} over the sphere |y| = r, by polar quadrature.

    Equals max(|x|, r)^{2-N}; the configuration |x| = r is singular and refused.
    """
    if N < 3:
        raise DomainError("requires N >= 3")
    if r <= 0 or x_norm <= 0:
        raise DomainError("radii must be positive")
    if x_norm == r:
        raise DomainError("singular configuration |x| = r")
    edges = np.linspace(0.0, math.pi, 25)

    def sin_pow(theta):
        return np.sin(theta) ** (N - 2)

    def weighted_potential(theta):
        dist2 = x_norm ** 2 + r ** 2 - 2.0 * x_norm * r * np.cos(theta)
        return sin_pow(theta) * dist2 ** ((2.0 - N) / 2.0)

    num, den = (np.sum(_panels(g, edges[:-1], edges[1:])) for g in (weighted_potential, sin_pow))
    return float(num / den)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticsEstimate:
    """Extrapolated limits a = lim r^{N-2} u(r) (r -> 0) and b = lim u(r) (r -> inf)."""

    a_hat: float
    b_hat: float
    a_error: float
    b_error: float
    orders: dict


def _stride_samples(profile: RadialProfile, lo: float, hi: float, count: int,
                    from_small: bool) -> tuple[np.ndarray, np.ndarray]:
    """Node samples at a constant index stride of about one octave.

    On geometric grids the sampled radii then form an exactly geometric
    sequence (constant ratio), so the extrapolation sees pure modes with no
    interpolation noise; sampling starts at the window end nearest the limit.
    """
    r = profile.grid.nodes
    v = profile.values
    mask = (v > 0) & (r >= lo) & (r <= hi)
    idx_all = np.where(mask)[0]
    if idx_all.size < count:
        raise DomainError("not enough nodes in the sampling window")
    dln = float(np.median(np.diff(np.log(r[idx_all]))))
    stride = max(1, int(round(math.log(2.0) / dln)))
    stride = min(stride, (idx_all.size - 1) // (count - 1))
    take = idx_all[: (count - 1) * stride + 1 : stride] if from_small else \
        idx_all[:: -1][: (count - 1) * stride + 1 : stride][::-1]
    return r[take], v[take]


def asymptotics(profile: RadialProfile, N: int, samples: int = 7,
                window: tuple[float, float] | None = None) -> AsymptoticsEstimate:
    """Octave-spaced node sampling near both ends with guarded Aitken extrapolation.

    Sample radii at octave targets are snapped to actual grid nodes, so on
    geometric grids the sequences are exactly geometric and free of
    interpolation noise; iterated Aitken then strips the leading power
    corrections.  The reported errors are the final accepted row differences.
    A window restricts sampling to the radius range the caller trusts (e.g.
    away from truncation boundaries of an exhaustion construction).
    """
    r_lo = profile.r_min if profile.values[0] > 0 else float(profile.grid.nodes[1])
    r_hi = profile.r_max if profile.values[-1] > 0 else float(profile.grid.nodes[-2])
    if math.log10(r_hi / r_lo) < 3.0:
        raise DomainError("asymptotics needs at least three decades of radius")
    if window is not None:
        r_lo = max(r_lo, window[0])
        r_hi = min(r_hi, window[1])
    k = min(samples, int(math.floor(math.log2(r_hi / r_lo))) - 1)
    if k < 3:
        raise DomainError("profile too short for extrapolation")
    small_r, small_v = _stride_samples(profile, r_lo, r_hi, k, from_small=True)
    big_r, big_v = _stride_samples(profile, r_lo, r_hi, k, from_small=False)
    # order sequences so the limit direction is the last entry
    a_seq = (small_r ** (N - 2) * small_v)[::-1]
    b_seq = big_v
    a_hat, a_err = aitken_limit(a_seq)
    b_hat, b_err = aitken_limit(b_seq)
    return AsymptoticsEstimate(
        a_hat=float(a_hat), b_hat=float(b_hat),
        a_error=float(a_err), b_error=float(b_err),
        orders={"samples": k, "levels": MAX_LEVELS,
                "small_radii": small_r.tolist(), "large_radii": big_r.tolist()},
    )


# ---------------------------------------------------------------------------
# residual audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Pointwise statistics of -Lap(u) - phi(delta) f(u), normalized by the equation scale."""

    sample_count: int
    min_residual: float
    fraction_nonnegative: float
    sup_norm_equation_defect: float
    stencil_spacing: float
    skipped: int = 0
    worst_radius: float | None = None  # of the largest |residual|, radial audits only

    def csv_row(self) -> list[str]:
        return [
            str(self.sample_count),
            f"{self.min_residual:.16e}",
            f"{self.fraction_nonnegative:.16e}",
            f"{self.sup_norm_equation_defect:.16e}",
            f"{self.stencil_spacing:.16e}",
            str(self.skipped),
        ]


def _flux_negative_laplacian(r: np.ndarray, u: np.ndarray, N: int) -> np.ndarray:
    """-Lap(u) at interior nodes via the conservative flux stencil.

    Face conductances are exact integrals of s^{1-N}, so pure radial
    harmonics a + b r^{2-N} are annihilated exactly; smooth profiles carry
    the usual second-order truncation.
    """
    from .bvp1d import _cell_volumes, _face_conductance

    c = _face_conductance(r, N)
    V = _cell_volumes(r, N)
    flux_div = (u[1:-1] - u[:-2]) / c[:-1] + (u[1:-1] - u[2:]) / c[1:]
    return flux_div / V


def residual_radial(
    profile: RadialProfile,
    problem: ProblemSpec,
    mode: str = "inequality",
    r_window: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residual statistics of the radial equation at interior grid nodes.

    The discrete -Lap is the conservative flux stencil, which is exact on
    radial harmonics; residuals are normalized by max(1, phi(delta) f(u)) so
    that verdicts are meaningful across the profile's full dynamic range.
    Equality mode reports the sup of |residual|; inequality mode reports the
    minimum and the fraction above -AUDIT_TOL.  A radius window restricts the audit
    (e.g. to the trusted zone of an exhaustion construction, away from its
    truncation boundaries).
    """
    if mode not in ("equality", "inequality"):
        raise DomainError("mode must be equality | inequality")
    r = profile.grid.nodes
    u = profile.values
    if len(r) < 32:
        raise DomainError("residual audit needs at least 32 nodes")
    neg_lap = _flux_negative_laplacian(r, u, problem.N)
    rin = r[1:-1]
    rhs = problem.phi(problem.delta_radial(rin)) * problem.f(u[1:-1])
    residual = (neg_lap - rhs) / np.maximum(1.0, rhs)
    if r_window is not None:
        keep = (rin >= r_window[0]) & (rin <= r_window[1])
        if not np.any(keep):
            raise DomainError("residual window contains no interior nodes")
        residual = residual[keep]
        rin = rin[keep]
    spacing = float(np.max(np.diff(r)))
    worst = int(np.argmax(np.abs(residual)))
    return ResidualReport(
        sample_count=len(residual),
        min_residual=float(np.min(residual)),
        fraction_nonnegative=float(np.mean(residual >= -AUDIT_TOL)),
        sup_norm_equation_defect=float(np.abs(residual[worst])),
        stencil_spacing=spacing,
        worst_radius=float(rin[worst]),
    )


def residual_field(
    V,
    problem: ProblemSpec,
    samples: int = 10_000,
    h: float = 0.01,
    seed: int = 42,
    box_pad: float = 4.0,
) -> ResidualReport:
    """Stencil-Laplacian audit of a superposition field at low-discrepancy points.

    Uses the 2N+1-point stencil with spacing min(h, margin/4), margin being the
    distance to the nearest center; points closer than 2h to a center are
    skipped and counted.
    """
    report, _ = field_sample_table(V, problem, samples=samples, h=h, seed=seed,
                                   box_pad=box_pad)
    return report


def field_sample_table(
    V,
    problem: ProblemSpec,
    samples: int = 10_000,
    h: float = 0.01,
    seed: int = 42,
    box_pad: float = 4.0,
) -> tuple[ResidualReport, np.ndarray]:
    """Field audit plus the full sample table (x_1..x_N, V, residual) for plotting."""
    if not isinstance(problem.K, (PointSet, Origin)):
        raise DomainError("field audits expect a point-set compact set")
    if problem.phi.is_zero:
        raise DomainError("field audits require a positive weight")
    centers = V.centers
    N = problem.N
    if centers.shape[1] != N:
        raise DomainError("field dimension mismatch")
    lo = centers.min(axis=0) - box_pad
    hi = centers.max(axis=0) + box_pad
    from scipy.stats import qmc

    sampler = qmc.Halton(d=N, seed=seed)
    pts = qmc.scale(sampler.random(samples), lo, hi)
    margin = V.delta(pts)
    keep = margin > 2.0 * h
    skipped = int(np.sum(~keep))
    pts = pts[keep]
    margin = margin[keep]
    hloc = np.minimum(h, margin / 4.0)
    v0 = V(pts)
    lap = np.zeros(len(pts))
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        vp = V(pts + hloc[:, None] * e[None, :])
        vm = V(pts - hloc[:, None] * e[None, :])
        lap += (vp - 2.0 * v0 + vm) / hloc ** 2
    delta = problem.delta_points(pts)
    rhs = problem.phi(delta) * problem.f(v0)
    residual = (-lap - rhs) / np.maximum(1.0, rhs)
    report = ResidualReport(
        sample_count=len(residual),
        min_residual=float(np.min(residual)),
        fraction_nonnegative=float(np.mean(residual >= -AUDIT_TOL)),
        sup_norm_equation_defect=float(np.max(np.abs(residual))),
        stencil_spacing=float(np.max(hloc)),
        skipped=skipped,
    )
    table = np.column_stack([pts, v0, residual])
    return report, table


# ---------------------------------------------------------------------------
# minimum principle and the planar obstruction
# ---------------------------------------------------------------------------

def min_principle_check(profile: RadialProfile, r1: float,
                        r_floor: float | None = None) -> bool:
    """True iff u(r) >= u(r1) - AUDIT_TOL*scale for every node r in [r_floor, r1].

    The hypothesis (superharmonic side of the residual near the puncture) is
    the caller's responsibility; this is the conclusion used as a test oracle.
    The floor excludes truncation-pinned nodes of finite constructions.
    """
    r = profile.grid.nodes
    if not (r[0] <= r1 <= r[-1]):
        raise DomainError("r1 outside the profile domain")
    m = float(profile(r1))
    mask = (r <= r1) & (profile.values > 0)
    if r_floor is not None:
        mask &= r >= r_floor
    vals = profile.values[mask]
    if vals.size == 0:
        return True
    return bool(np.min(vals) >= m - AUDIT_TOL * max(1.0, abs(m)))


@dataclass(frozen=True)
class PlanarObstructionReport:
    """Logarithmic-minorant sweep showing a planar decaying state is impossible."""

    m: float
    x_norm: float
    minorants: tuple[float, ...]
    sup_minorant: float
    gap: float
    pointwise_ok: bool | None


def dim2_ground_state_obstruction(
    profile: RadialProfile,
    x_norm: float | None = None,
    levels: int = 20,
) -> PlanarObstructionReport:
    """In the plane, harmonic log minorants force inf u >= min on the inner circle.

    For u positive and superharmonic outside r0, the comparison functions
    v_{r1}(x) = m (log r1 - log|x|) / (log r1 - log r0) lie below u on the
    annulus (r0, r1); as r1 grows they increase to m at any fixed x, so u
    cannot decay to zero.  The report records that sweep numerically.
    """
    if profile.grid.dimension != 2:
        raise DomainError("planar obstruction requires a dimension-2 profile")
    r = profile.grid.nodes
    r0 = float(r[0]) if profile.values[0] > 0 else float(r[1])
    m = float(profile(r0))
    if x_norm is None:
        x_norm = 2.0 * r0
    if x_norm <= r0:
        raise DomainError("evaluation point must lie outside the inner circle")
    minorants = []
    for k in range(1, levels + 1):
        r1 = x_norm * 2.0 ** k
        v = m * (math.log(r1) - math.log(x_norm)) / (math.log(r1) - math.log(r0))
        minorants.append(v)
    sup_v = max(minorants)
    pointwise = None
    if profile.r_min <= x_norm <= profile.r_max:
        pointwise = bool(float(profile(x_norm)) >= sup_v - AUDIT_TOL * max(1.0, m))
    return PlanarObstructionReport(
        m=m, x_norm=float(x_norm), minorants=tuple(minorants),
        sup_minorant=float(sup_v), gap=float(m - sup_v), pointwise_ok=pointwise,
    )


def ratio_bracket(
    u: RadialProfile,
    gauge: RadialProfile,
    offset: float,
    window: tuple[float, float],
) -> tuple[float, float, np.ndarray]:
    """Empirical bracket of u(offset + delta) / gauge(delta) at 64 geometric deltas."""
    lo, hi = window
    if not (0 < lo < hi):
        raise DomainError("window must satisfy 0 < lo < hi")
    delta = np.geomspace(lo, hi, 64)
    ratios = np.asarray(u(offset + delta)) / np.asarray(gauge(delta))
    return float(np.min(ratios)), float(np.max(ratios)), ratios
