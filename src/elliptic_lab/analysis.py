"""Transforms and verifiers: inversion (Kelvin) transform, sphere potential
averages, asymptotics extraction, residual audits, minimum-principle and
two-dimensional obstruction demonstrations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .quad import _panels
from ._extrapolate import MAX_LEVELS, aitken_limit
from .bvp1d import AUDIT_TOL, RadialGrid, RadialProfile, neg_laplacian
from .problem import ProblemSpec


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

FIELD_BOX_PAD = 4.0  # residual_field samples the centers' bounding box grown by this
FIELD_MIN_H = 1e-6  # below it the stencil's second difference is roundoff, and h^2 may underflow


def _first_primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % b for b in primes if b * b <= k):
            primes.append(k)
        k += 1
    return primes


def scrambled_halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the scrambled Halton sequence in [0, 1)^d, as
    ``scipy.stats.qmc.Halton(d, seed=seed).random(n)`` draws them, bit for bit.

    Coordinate i is the van der Corput sequence in the i-th prime base b with
    Owen's random digit permutations (Halton 1960; Owen, arXiv:1706.02808):
    one ``np.random.default_rng(seed)`` shuffles ``ceil(54 / log2 b) - 1``
    rows of ``arange(b)``, base after base, and point k is the left-to-right
    sum over digit positions j of ``perm_j[digit_j(k)] * b^-(j+1)``.  Digit j
    of 0..n-1 is ``arange(b)`` repeated ``b^j`` times and tiled, so each
    position is one repeat of the b products ``perm_j * b^-(j+1)``; once
    ``b^j >= n`` every digit is 0 and the term is one scalar.
    """
    rng = np.random.default_rng(seed)
    sample = np.zeros((d, n))
    for v, b in zip(sample, _first_primes(d)):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        b2r = 1.0 / b
        period = 1  # b^j
        for perm in perms:
            terms = perm * b2r
            if period >= n:
                v += terms[0]
            else:
                v += np.tile(np.repeat(terms, period), -(-n // (b * period)))[:n]
            b2r /= b
            period *= b
    return sample.T


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
    # the kept samples (x_1..x_N, V, residual), field audits only
    table: np.ndarray | None = field(default=None, repr=False, compare=False)

    def csv_row(self) -> list[str]:
        return [
            str(self.sample_count),
            f"{self.min_residual:.16e}",
            f"{self.fraction_nonnegative:.16e}",
            f"{self.sup_norm_equation_defect:.16e}",
            f"{self.stencil_spacing:.16e}",
            str(self.skipped),
        ]


def _report(residual: np.ndarray, spacing: float, skipped: int = 0,
            radii: np.ndarray | None = None, table: np.ndarray | None = None) -> ResidualReport:
    """The statistics of one audit's normalized residuals."""
    worst = int(np.argmax(np.abs(residual)))
    return ResidualReport(
        sample_count=len(residual),
        min_residual=float(np.min(residual)),
        fraction_nonnegative=float(np.mean(residual >= -AUDIT_TOL)),
        sup_norm_equation_defect=float(np.abs(residual[worst])),
        stencil_spacing=spacing,
        skipped=skipped,
        worst_radius=None if radii is None else float(radii[worst]),
        table=table,
    )


def residual_radial(
    profile: RadialProfile,
    problem: ProblemSpec,
    mode: str = "inequality",
    r_window: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residual statistics of the radial equation at interior grid nodes.

    The discrete -Lap is the solver's flux stencil, which is exact on
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
    rin = r[1:-1]
    residual = problem.residual(neg_laplacian(r, u, problem.N),
                                problem.K.delta_radial(rin), u[1:-1])
    if r_window is not None:
        keep = (rin >= r_window[0]) & (rin <= r_window[1])
        if not np.any(keep):
            raise DomainError("residual window contains no interior nodes")
        residual = residual[keep]
        rin = rin[keep]
    return _report(residual, float(np.max(np.diff(r))), radii=rin)


def residual_field(
    V,
    problem: ProblemSpec,
    samples: int = 10_000,
    h: float = 0.01,
    seed: int = 42,
) -> ResidualReport:
    """Stencil-Laplacian audit of a superposition field at low-discrepancy points.

    V is built from K's own centers.  Scrambled Halton points, as scipy's
    ``qmc.Halton(d=N, seed=seed)`` draws them (scrambled_halton), fill their
    bounding box, grown by FIELD_BOX_PAD, and the 2N+1-point stencil has
    spacing min(h, delta/4), delta = K.delta(x); points closer than 2h to a
    center are skipped and counted, and an audit that keeps none is a
    DomainError, as is h below FIELD_MIN_H.  The report's table holds the
    kept samples.
    """
    if not h >= FIELD_MIN_H:
        raise DomainError(f"field audit spacing h = {h:g} is below {FIELD_MIN_H:g}, where "
                          "the stencil measures roundoff")
    if problem.K.solid:
        raise DomainError("field audits expect the origin or a point-set compact set")
    if problem.phi.is_zero:
        raise DomainError("field audits require a positive weight")
    centers = V.centers
    N = problem.N
    if centers.shape[1] != N:
        raise DomainError("field dimension mismatch")
    lo = centers.min(axis=0) - FIELD_BOX_PAD
    hi = centers.max(axis=0) + FIELD_BOX_PAD
    pts = scrambled_halton(N, samples, seed) * (hi - lo) + lo
    delta = problem.K.delta(pts)
    keep = delta > 2.0 * h
    skipped = int(np.sum(~keep))
    if skipped == samples:
        raise DomainError(f"field audit keeps no sample: all {samples} lie within "
                          f"2h = {2.0 * h:g} of K")
    pts = pts[keep]
    delta = delta[keep]
    hloc = np.minimum(h, delta / 4.0)
    v0 = V(pts)
    lap = np.zeros(len(pts))
    shifted = pts.copy()
    for j in range(N):
        shifted[:, j] = pts[:, j] + hloc
        vp = V(shifted)
        shifted[:, j] = pts[:, j] - hloc
        vm = V(shifted)
        shifted[:, j] = pts[:, j]
        lap += (vp - 2.0 * v0 + vm) / hloc ** 2
    residual = problem.residual(-lap, delta, v0)
    return _report(residual, float(np.max(hloc)), skipped=skipped,
                   table=np.column_stack([pts, v0, residual]))


# ---------------------------------------------------------------------------
# minimum principle and the planar obstruction
# ---------------------------------------------------------------------------

def min_principle_check(profile: RadialProfile, r1: float,
                        r_floor: float | None = None, annulus: bool = False) -> bool:
    """True iff u(r) >= m - AUDIT_TOL*scale for every positive node r in [r_floor, r1].

    Around a point, m = u(r1) (punctured-ball form).  Outside a ball u vanishes
    on the boundary, so the inner end r_a, the first node kept, bounds an
    annulus: m = min(u(r_a), u(r1)).  The hypothesis (superharmonic side of the
    residual) is the caller's responsibility; this is the conclusion used as a
    test oracle.  The floor excludes truncation-pinned nodes of finite
    constructions.
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
    if annulus:
        m = min(m, float(vals[0]))
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
