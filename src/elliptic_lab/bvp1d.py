"""Graded grids, radial profiles, and the regularized monotone solver for the
singular two-point problems -(r^{N-1} u')' = r^{N-1} w(r) f(u).

The discretization is the conservative flux form on graded grids: face
conductances are exact integrals of s^{1-N}, so pure harmonics a + b r^{2-N}
are reproduced nodally and the operator stays an M-matrix, which is what the
discrete comparison arguments lean on.  The nonlinearity is regularized as
f(. + eps_k) along a decade schedule eps_k = 1, 1/10, ... that ends at the
largest 2^-k below tol_sup / 10; each level is solved by Newton steps (a
monotone shifted iteration for a general f), and the converged levels are
nondecreasing as eps decreases.  Problems with positive data need no
regularization path: started from a discrete subsolution, one level at the
final eps suffices (SolveConfig.final_level).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DomainError, NonConvergenceError, NoSolutionError, SolverFault
from . import quad as _quad

if TYPE_CHECKING:
    from . import funcs as _funcs

AUDIT_TOL = 1e-8  # slack of the order and residual audits, relative to max(1, scale)
# a level stops at this relative Newton increment, or at a stall below STALL_TOL
STEP_TOL = 1e-13
STALL_TOL = 1e-9


# ---------------------------------------------------------------------------
# grids and profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing nonnegative nodes of a radial problem in dimension N.

    The constructors grade the nodes geometrically (constant node ratio), in
    the distance to an inner anchor (boundary layers), or into both endpoints
    of the unit interval.
    """

    nodes: np.ndarray
    dimension: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 16:
            raise DomainError("grid needs at least 16 nodes")
        if nodes[0] < 0 or np.any(np.diff(nodes) <= 0):
            raise DomainError("nodes must be nonnegative and strictly increasing")
        if self.dimension < 1:
            raise DomainError("dimension must be >= 1")

    @staticmethod
    def geometric(ra: float, rb: float, count: int, dimension: int) -> "RadialGrid":
        if not (0 < ra < rb):
            raise DomainError("geometric grid requires 0 < ra < rb")
        return RadialGrid(nodes=np.geomspace(ra, rb, count), dimension=dimension)

    @staticmethod
    def boundary_layer(anchor: float, delta_min: float, span: float,
                       count: int, dimension: int) -> "RadialGrid":
        """Nodes anchor + delta with delta geometric in (delta_min, span]."""
        if anchor < 0 or delta_min <= 0 or span <= delta_min:
            raise DomainError("bad boundary-layer grid parameters")
        delta = np.geomspace(delta_min, span, count - 1)
        return RadialGrid(nodes=np.concatenate(([anchor], anchor + delta)),
                          dimension=dimension)

    @staticmethod
    def two_sided_unit(t_min: float, count: int) -> "RadialGrid":
        """Grid on [0, 1] graded smoothly into both endpoints (tanh mapping).

        The smooth mapping avoids spacing kinks, so the scheme's truncation
        stays uniformly second order; t_min sets the first interior node.  The
        node 0.5 (1 + tanh(g (x - 1/2)) / tanh(g / 2)) is computed as
        0.5 sinh(g x) / (cosh(g (x - 1/2)) sinh(g / 2)), which has no
        cancellation near 0.
        """
        if not (0 < t_min < 0.25):
            raise DomainError("t_min must lie in (0, 0.25)")
        if count < 16:
            raise DomainError("grid needs at least 16 nodes")
        if count % 2 == 0:
            count += 1  # keep the midpoint as an exact node
        xi = np.linspace(0.0, 1.0, count)

        def first_node(gamma: float) -> float:
            return 0.5 * math.sinh(gamma * xi[1]) / (math.cosh(gamma * (xi[1] - 0.5))
                                                     * math.sinh(gamma * 0.5))

        # the first node decreases in gamma: bisect on [1e-2, 80] to 1e-12
        lo, hi = 1e-2, 80.0
        if not first_node(hi) < t_min < first_node(lo):
            raise DomainError(f"t_min = {t_min:g} is out of reach of a {count}-node grid "
                              f"(first node between {first_node(hi):.3g} and "
                              f"{first_node(lo):.3g})")
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if first_node(mid) > t_min else (lo, mid)
        gamma = 0.5 * (lo + hi)
        nodes = 0.5 * np.sinh(gamma * xi) / (np.cosh(gamma * (xi - 0.5)) * np.sinh(gamma * 0.5))
        nodes[0], nodes[count // 2], nodes[-1] = 0.0, 0.5, 1.0
        return RadialGrid(nodes=nodes, dimension=1)

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]


@dataclass(frozen=True, eq=False)
class MonotoneCubic:
    """Monotone piecewise cubic Hermite interpolant of the knots (x, y), with
    linear continuation along the end secants beyond the first and last knot.

    The knot slopes are PCHIP's (Fritsch & Carlson 1980), as scipy's
    PchipInterpolator computes them: zero where the adjacent secants vanish or
    change sign, else their weighted harmonic mean (Fritsch & Butland 1984);
    at each end the three-point estimate, set to zero when its sign differs
    from the end secant's and clamped to 3 times that secant when the first two
    secants change sign.  Segment k of the coefficient table starts at
    anchor[k]: k = 0 is the left continuation, 1 .. n-1 are the cubics and n
    is the right continuation, so evaluation is a lookup, gathers and Horner.

    The lookup returns searchsorted(x, q, side="right") through a guide table
    (Chen & Asau 1974): n equal buckets over [x[0], x[-1]], the index of the
    first knot of each bucket, and a fixed number of branch-free bisection
    steps within one bucket, one step when no bucket holds two knots (grids
    uniform in the variable, such as geometric grids in log r).  The bucket
    map is a chain of monotone rounded operations, so knots in lower buckets
    lie below q and knots in higher buckets above it, and the lookup is exact
    for every double q, NaN (sorted last) and the infinities included.
    """

    x: np.ndarray
    y: np.ndarray
    _anchor: np.ndarray = field(init=False, repr=False)
    _coef: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _scale: float = field(init=False, repr=False)
    _first: np.ndarray = field(init=False, repr=False)
    _steps: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise DomainError("monotone cubic needs two or more knots and one value per knot")
        h = np.diff(x)
        if np.any(h <= 0):
            raise DomainError("knots must be strictly increasing")
        span = float(x[-1] - x[0])
        if not math.isfinite(span):
            raise DomainError("knots must span a finite interval")
        m = np.diff(y) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2 * m) / h
        zero = np.zeros(1)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_coef", (
            np.concatenate((zero, t / h, zero)),
            np.concatenate((zero, (m - d[:-1]) / h - t, zero)),
            np.concatenate((m[:1], d[:-1], m[-1:])),
            np.concatenate((y[:1], y[:-1], y[-1:])),
        ))
        # the guide table: first[b] counts the knots in buckets below b
        object.__setattr__(self, "_scale", x.size / span)
        per_bucket = np.bincount(self._bucket(x), minlength=x.size)
        first = np.zeros(x.size + 1, dtype=np.intp)
        np.cumsum(per_bucket, out=first[1:])
        steps = int(per_bucket.max()).bit_length()
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_steps", tuple(1 << j for j in reversed(range(steps))))
        # +inf past the right continuation's anchor stops every step of a finite q
        object.__setattr__(self, "_anchor",
                           np.concatenate((x[:1], x, np.full(1 << steps, np.inf))))

    def _bucket(self, q: np.ndarray) -> np.ndarray:
        """clip(floor((q - x[0]) * scale), 0, n - 1), with NaN in the last bucket,
        for q of one or more dimensions."""
        t = q - self.x[0]
        t *= self._scale
        np.fmin(t, self.x.size - 1, out=t)
        np.fmax(t, 0.0, out=t)
        return t.astype(np.intp)

    def index(self, q) -> np.ndarray:
        """searchsorted(x, q, side="right"), the segment of q, for q of any shape.

        From the first knot of q's bucket, each step moves k on to segment
        k + step unless q lies below where that segment starts.  The knots of
        higher buckets and the +inf padding stop every finite q; the final
        clamp stops +inf and NaN at len(x).
        """
        q = np.asarray(q, dtype=float)
        if q.ndim == 0:
            return self.index(q.reshape(1))[0]
        k = self._first[self._bucket(q)]
        for step in self._steps:
            k += step * ~(q < self._anchor[step:][k])
        return np.minimum(k, self.x.size, out=k)

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        k = self.index(q)
        s = q - self._anchor[k]
        c3, c2, c1, c0 = self._coef
        return ((c3[k] * s + c2[k]) * s + c1[k]) * s + c0[k]


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """PCHIP knot slopes from the knot spacings h and the secants m."""
    if m.size == 1:
        return np.concatenate((m, m))  # two knots: the line through them
    d = np.zeros(m.size + 1)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    sign = np.sign(m)
    flat = sign[:-1] * sign[1:] <= 0  # a secant vanishes or the sign changes
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # at flat knots
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """The one-sided three-point slope at an end knot, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Sampled positive profile on a graded grid with monotone cubic interpolation.

    Node values at the two ends may be zero (Dirichlet data); interior values
    are strictly positive.  Evaluation interpolates log-values against
    log-radius through the positive nodes (MonotoneCubic, PCHIP slopes), with
    power-law continuation along the end segments beyond the sampled range.
    The interpolant is built with the profile, which is not modified after.
    """

    grid: RadialGrid
    values: np.ndarray
    _log_interp: MonotoneCubic = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise DomainError("values must match grid nodes")
        if not values[1:-1].min() > 0:
            raise SolverFault("interior profile values must be positive")
        if values[0] < 0 or values[-1] < 0:
            raise SolverFault("profile values must be nonnegative")
        # interior nodes and values are positive, so the knots are one slice
        r = self.grid.nodes
        lo = 0 if values[0] > 0 and r[0] > 0 else 1
        hi = r.size if values[-1] > 0 else r.size - 1
        object.__setattr__(self, "_log_interp",
                           MonotoneCubic(np.log(r[lo:hi]), np.log(values[lo:hi])))

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def r_min(self) -> float:
        return float(self.grid.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.grid.nodes[-1])

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise DomainError("profiles are evaluated at positive radii")
        out = np.exp(self._log_interp(np.log(r)))
        return float(out) if r.ndim == 0 else out

    def to_csv_rows(self) -> list[list[str]]:
        return [[f"{r:.16e}", f"{u:.16e}"] for r, u in zip(self.grid.nodes, self.values)]


@dataclass(frozen=True)
class SolveConfig:
    """Where the regularization schedule ends, and the caps on its levels and
    on the Newton steps of each level."""

    tol_sup: float = 1e-8
    max_outer: int = 64
    max_picard: int = 600

    def __post_init__(self):
        if self.tol_sup <= 0:
            raise DomainError("tol_sup must be positive")
        if self.max_outer < 1 or self.max_picard < 1:
            raise DomainError("iteration caps must be positive")

    def schedule(self) -> tuple[float, ...]:
        """Regularization levels eps = 1, 1/10, 1/100, ... above the final eps, then it.

        The final eps is the largest 2^-k below tol_sup / 10, with k at most
        max_outer (2^-30 at the default tol_sup), so the schedule has at most
        max_outer + 1 entries.  k also stops at 1074, where 2^-k is the
        smallest positive double (tol_sup / 10 can underflow to zero).
        """
        k = 0
        while k < min(self.max_outer, 1074) and math.ldexp(1.0, -k) >= self.tol_sup / 10.0:
            k += 1
        final = math.ldexp(1.0, -k)
        decades = itertools.takewhile(lambda e: e > final,
                                      (10.0 ** -j for j in itertools.count()))
        return (*decades, final)

    def final_level(self) -> "SolveConfig":
        """The same control with the schedule cut to its final eps: one level."""
        return _FinalLevel(self.tol_sup, self.max_outer, self.max_picard)


@dataclass(frozen=True)
class _FinalLevel(SolveConfig):
    def schedule(self) -> tuple[float, ...]:
        return super().schedule()[-1:]


# ---------------------------------------------------------------------------
# core solver
# ---------------------------------------------------------------------------

def _face_conductance(nodes: np.ndarray, N: int) -> np.ndarray:
    """c_{i+1/2} = int_{r_i}^{r_{i+1}} s^{1-N} ds, exact per segment (along axis 0)."""
    lo, hi = nodes[:-1], nodes[1:]
    if N == 1:
        return hi - lo
    if np.min(lo) <= 0:
        raise DomainError(f"N={N} grids must have positive nodes")
    if N == 2:
        return np.log(hi / lo)
    return (lo ** (2.0 - N) - hi ** (2.0 - N)) / (N - 2)


def _cell_volumes(nodes: np.ndarray, N: int) -> np.ndarray:
    """int_{m-}^{m+} s^{N-1} ds around each interior node."""
    m = 0.5 * (nodes[:-1] + nodes[1:])
    return (m[1:] ** N - m[:-1] ** N) / N


def neg_laplacian(nodes: np.ndarray, u: np.ndarray, N: int) -> np.ndarray:
    """-Lap(u) at the interior nodes by the flux stencil that solve_on_nodes assembles.

    Pure radial harmonics a + b r^{2-N} are annihilated up to roundoff, smooth
    profiles carry second-order truncation.  The stencil runs along axis 0, so
    a (3, k) stack of nodes gives k separate three-point stencils.
    """
    c = _face_conductance(nodes, N)
    V = _cell_volumes(nodes, N)
    return ((u[1:-1] - u[:-2]) / c[:-1] + (u[1:-1] - u[2:]) / c[1:]) / V


def solve_banded(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solution of the tridiagonal system (sub, diag, sup) x = rhs by LAPACK gtsv.

    diag and rhs are overwritten (the solution is returned in rhs's storage);
    sub and sup are left intact, so callers can reuse them.  gtsv is imported
    on first use to keep imports light.  The name stays a module global that
    solve_on_nodes looks up on every step, so a tracer that replaces it sees
    every banded solve.
    """
    from scipy.linalg.lapack import dgtsv

    _, _, _, x, info = dgtsv(sub, diag, sup, rhs, overwrite_d=1, overwrite_b=1)
    if info != 0:
        raise SolverFault(f"tridiagonal solve failed (LAPACK gtsv info={info})")
    return x


def solve_on_nodes(
    nodes: np.ndarray,
    N: int,
    weight: Callable[[np.ndarray], np.ndarray],
    f: "_funcs.FSpec",
    va: float,
    vb: float,
    config: SolveConfig,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Interior solution values of the flux-form system with Dirichlet data va, vb.

    Each level eps of config.schedule() is solved by the Newton step
        (L + Lam) u_new = Lam u + V w f(u + eps),   Lam = V w |f'(u + eps)|,
    from the previous level (from initial, or zero, at the first).  For a
    convex power f the map u -> L u - V w f(u + eps) is concave and L + Lam is
    an M-matrix, so from a discrete subsolution the iterates rise
    monotonically; other f use slope_bound as a monotone shift.  A level stops
    when max_i |du_i| / max(|u_i|, 1) <= STEP_TOL, or when that relative
    increment is below STALL_TOL and fails to halve from one step to the next
    (roundoff).  Converged levels must be pointwise nondecreasing as eps
    decreases (checked after every level).  A stencil or a Newton step that
    is not finite in double precision is a DomainError.
    """
    nodes = np.asarray(nodes, dtype=float)
    M = len(nodes)
    if M < 16:
        raise DomainError("need at least 16 nodes")
    if va < 0 or vb < 0:
        raise DomainError("boundary data must be nonnegative")
    w_i = np.asarray(weight(nodes[1:-1]), dtype=float)
    if np.any(w_i < 0) or np.any(~np.isfinite(w_i)):
        raise DomainError("weight must be finite and nonnegative at interior nodes")

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
        c = _face_conductance(nodes, N)
        V = _cell_volumes(nodes, N)
        Vw = V * w_i
        off = -1.0 / c[1:-1]  # the flux form is symmetric: one off-diagonal
        diag = 1.0 / c[:-1] + 1.0 / c[1:]
    if not (np.all(c > 0) and np.all(diag < np.inf) and np.all((V > 0) & (Vw < np.inf))):
        raise DomainError(f"the N = {N} flux stencil over- or underflows on "
                          f"[{nodes[0]:g}, {nodes[-1]:g}]")

    u = np.zeros(M - 2) if initial is None else np.asarray(initial, dtype=float).copy()
    if initial is not None and len(u) != M - 2:
        raise DomainError("initial iterate must have one value per interior node")

    prev_level = None
    for eps in config.schedule():
        rel = np.inf
        for _ in range(config.max_picard):
            with np.errstate(over="ignore", invalid="ignore"):  # a NaN rel is refused below
                ueps = u + eps
                fvals = f(ueps)
                lam = Vw * f.slope_bound(ueps)
                rhs = Vw * fvals + lam * u
                rhs[0] += va / c[0]
                rhs[-1] += vb / c[-1]
                unew = solve_banded(off, diag + lam, off, rhs)
                step = np.abs(unew - u)
                u = unew
                prev_rel, rel = rel, float(np.max(step / np.maximum(np.abs(u), 1.0)))
            if math.isnan(rel):  # an infinite or NaN entry of u
                raise DomainError(f"the Newton step at eps={eps:g} is not finite: f or its "
                                  "slope overflows")
            if rel <= STEP_TOL or STALL_TOL > rel > 0.5 * prev_rel:
                break
        else:
            raise NonConvergenceError(
                f"fixed-point iteration cap at eps={eps:g}", last_increment=float(np.max(step))
            )
        if np.any(u < 0):
            raise SolverFault("iterate went negative")
        if prev_level is not None:
            slack = 1e-12 * max(1.0, float(np.max(u)))
            worst = float(np.min(u - prev_level))
            if worst < -max(slack, 50.0 * float(np.max(step))):
                raise SolverFault(
                    f"regularization levels lost monotonicity by {worst:.3e}"
                )
        prev_level = u.copy()
    return u


def solve_radial_dirichlet(
    N: int,
    weight: Callable[[np.ndarray], np.ndarray] | "_funcs.PhiSpec",
    f: "_funcs.FSpec",
    interval: tuple[float, float],
    boundary: tuple[float, float],
    config: SolveConfig | None = None,
    nodes: int = 1024,
) -> RadialProfile:
    """Radial Dirichlet problem -(r^{N-1} u')' = r^{N-1} w(r) f(u) on (ra, rb).

    The flat surrogate N=1 drops the geometric factor entirely and admits
    ra = 0 (a uniform grid is used there).
    """
    config = config or SolveConfig()
    ra, rb = interval
    if N == 1:
        if not (0 <= ra < rb):
            raise DomainError("interval must satisfy 0 <= ra < rb")
    elif not (0 < ra < rb):
        raise DomainError("interval must satisfy 0 < ra < rb")
    grid = (RadialGrid(nodes=np.linspace(ra, rb, nodes), dimension=1) if ra == 0.0
            else RadialGrid.geometric(ra, rb, nodes, N))
    va, vb = boundary
    interior = solve_on_nodes(grid.nodes, N, weight, f, va, vb, config)
    vals = np.concatenate(([va], interior, [vb]))
    return RadialProfile(grid=grid, values=vals)


def solve_H(
    phi: "_funcs.PhiSpec",
    f: "_funcs.FSpec",
    config: SolveConfig | None = None,
    nodes: int = 4096,
    t_min: float = 1e-7,
) -> RadialProfile:
    """Boundary gauge profile: -H'' = phi(t) f(H) on (0,1), H(0) = H(1) = 0.

    Requires the first moment of phi near zero to be finite; the resulting
    profile is positive and concave, which is verified on the discrete second
    difference.
    """
    config = config or SolveConfig()
    moment = _quad.integrate_singular(lambda s: s * phi(s), 0.0, 1.0,
                                      criterion="gauge-moment")
    if moment.status == _quad.INFINITE:
        raise NoSolutionError("near-zero first moment of the weight diverges",
                              certificate=moment.certificate)
    grid = RadialGrid.two_sided_unit(t_min, nodes)
    t = grid.nodes
    interior = solve_on_nodes(t, 1, phi, f, 0.0, 0.0, config)
    vals = np.concatenate(([0.0], interior, [0.0]))
    # concavity: second differences of a concave profile are nonpositive
    h = np.diff(t)
    sec = (vals[2:] - vals[1:-1]) / h[1:] - (vals[1:-1] - vals[:-2]) / h[:-1]
    if np.any(sec > 1e-9 * max(1.0, float(np.max(vals)))):
        raise SolverFault("gauge profile lost concavity")
    return RadialProfile(grid=grid, values=vals)


def comparison_check(u_super: RadialProfile, v_sub: RadialProfile) -> bool:
    """Nodewise ordering u >= v on a shared grid, within AUDIT_TOL * scale slack.

    The caller is responsible for the defect signs (u on the supersolution
    side, v on the subsolution side, ordered boundary data); this check is the
    conclusion of the comparison argument, used as a test oracle.
    """
    if u_super.grid.nodes.shape != v_sub.grid.nodes.shape or not np.allclose(
        u_super.grid.nodes, v_sub.grid.nodes, rtol=1e-14, atol=0.0
    ):
        raise DomainError("comparison requires a shared grid")
    scale = max(1.0, float(np.max(np.abs(v_sub.values))))
    return bool(np.all(u_super.values >= v_sub.values - AUDIT_TOL * scale))
