"""Improper-integral machinery: windowed geometric scans, finiteness verdicts with
certificates, the existence criteria, and the simple/iterated integral equivalence.

Every improper integral here is reduced to a stream of dyadic windows marching
toward the singular endpoint (zero or infinity).  Window increments of a
power-like integrand decay or grow geometrically, so a stable increment ratio
rho < 1 permits an exact-on-powers tail extrapolation, while a ratio pinned at
or above 1 - DIV_FLOOR for several consecutive windows certifies divergence.

Windows are integrated _WINDOW_BLOCK at a time, one integrand call per block.
Each window's integral is the same double whichever block computes it (the
panel sum is row by row, and inner anchors follow one fixed dyadic chain), so
verdicts, values and certificates do not depend on the block size; only the
evaluation count includes the windows of the last block past the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, UnsupportedCombinationError
from . import problem as _problem

FINITE = "finite"
INFINITE = "infinite"
INCONCLUSIVE = "inconclusive"

DIV_FLOOR = 1e-3          # increments failing to decay by this much look divergent
DIV_CONSECUTIVE = 6       # consecutive non-decaying windows required
BLOWUP = 1e6              # fast-divergence value threshold
MAX_WINDOWS = 420
REL_TOL = 1e-9            # a finite verdict needs remainder + error below this share

_GL_NODES, _GL_WTS = np.polynomial.legendre.leggauss(24)
_PANEL_BLOCK = 1024       # panels per call of the integrand in _panels
_WINDOW_BLOCK = 16        # scan windows per call of _panels in _scan
BOUNDARY_SUBPANELS = 8    # equal panels per dyadic window of the boundary certificate


@dataclass(frozen=True)
class ConditionReport:
    """Finiteness verdict for one integral criterion.

    evaluations counts the integrand points evaluated, windows the scan windows
    whose increments the verdict read (0 for analytic reports).
    """

    criterion: str
    status: str
    value: float | None
    certificate: tuple[float, ...] | None
    method: str
    evaluations: int
    error_estimate: float | None = None
    windows: int = 0

    def csv_row(self) -> list[str]:
        val = "" if self.value is None else f"{self.value:.16e}"
        return [self.criterion, self.status, val, self.method, str(self.evaluations)]


@dataclass(frozen=True)
class ExistencePrediction:
    """Existence verdict assembled from the criteria matched to the compact set."""

    exists: bool | None
    criterion_used: str
    reports: tuple[ConditionReport, ...]

    @property
    def determinate(self) -> bool:
        return self.exists is not None


class _NonFinite(DomainError):
    """An integrand value overflowed; a scan that meets one ends inconclusive."""


class _EvalCounter:
    __slots__ = ("g", "count")

    def __init__(self, g: Callable):
        self.g = g
        self.count = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.count += len(x)
        v = np.asarray(self.g(x), dtype=float)
        if np.any(v < 0):
            raise DomainError("integrand must be nonnegative on the interior")
        if not np.all(np.isfinite(v)):
            raise _NonFinite("integrand must be finite on the interior")
        return v


def _panels(g: Callable, lo, hi) -> np.ndarray:
    """24-point Gauss-Legendre integrals of g over the panels [lo_k, hi_k].

    g is called once per block of at most _PANEL_BLOCK panels, on all their
    nodes at once.  Each panel's value is the same double whichever block
    computes it: the weighted sum is einsum's row-by-row loop, where a matrix
    product would switch between BLAS kernels with the number of rows, and the
    midpoint lo + half stays finite wherever hi does.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    half = 0.5 * (hi - lo)
    mid = lo + half
    out = np.empty_like(half)
    for b in range(0, len(half), _PANEL_BLOCK):
        blk = slice(b, b + _PANEL_BLOCK)
        x = half[blk, None] * _GL_NODES + mid[blk, None]
        out[blk] = half[blk] * np.einsum("ij,j->i", g(x.ravel()).reshape(x.shape), _GL_WTS)
    return out


def _window_increments(g: _EvalCounter, windows):
    """Integrals of the windows k = 0, 1, ... < MAX_WINDOWS, in order.

    One _panels call covers _WINDOW_BLOCK windows.  A block whose evaluation
    raises DomainError is evaluated again window by window, so an overflow ends
    the stream, and a negative value raises, at the window where a one-window
    scan would meet it.
    """
    for start in range(0, MAX_WINDOWS, _WINDOW_BLOCK):
        lo, hi = windows(np.arange(start, min(start + _WINDOW_BLOCK, MAX_WINDOWS)))
        try:
            block = _panels(g, lo, hi)
        except DomainError:
            block = None
        for j in range(len(lo)):
            if block is None:
                try:
                    yield float(_panels(g, lo[j], hi[j])[0])
                except _NonFinite:
                    return
            else:
                yield float(block[j])


@np.errstate(over="ignore", invalid="ignore")  # overflow ends the scan, below
def _scan(g: _EvalCounter, windows, criterion: str) -> ConditionReport:
    """Classify sum of window integrals as finite (with value) or infinite (with certificate).

    windows maps an integer array k to the window edges (lo, hi); the
    increments come from _window_increments, a block of windows per integrand
    call, and are read one by one.  An integrand value that overflows ends the
    scan inconclusive, with the certificate so far.
    """
    total = 0.0
    cert: list[float] = []
    prev_inc = None
    prev_rho = None
    streak = 0
    zero_run = 0
    k = -1
    for k, inc in enumerate(_window_increments(g, windows)):
        total += inc
        if inc > 0.0:
            cert.append(total)
        if inc == 0.0:
            zero_run += 1
            if zero_run >= 4 and k >= 8:
                return ConditionReport(criterion, FINITE, total, None, "quadrature",
                                       g.count, 0.0, k + 1)
            continue
        zero_run = 0
        if total > BLOWUP:
            return ConditionReport(criterion, INFINITE, None, tuple(cert), "quadrature",
                                   g.count, windows=k + 1)
        if prev_inc is not None and prev_inc > 0:
            rho = inc / prev_inc
            streak = streak + 1 if rho >= 1.0 - DIV_FLOOR else 0
            if streak >= DIV_CONSECUTIVE:
                return ConditionReport(criterion, INFINITE, None, tuple(cert), "quadrature",
                                       g.count, windows=k + 1)
            if rho < 1.0 - 3.0 * DIV_FLOOR and prev_rho is not None:
                remainder = inc * rho / (1.0 - rho)
                drift = abs(rho - prev_rho) / (1.0 - rho)
                err = remainder * drift + 1e-15 * total
                if remainder + err < REL_TOL * max(total, 1e-300):
                    value = total + remainder
                    return ConditionReport(criterion, FINITE, value, None, "quadrature",
                                           g.count, err + remainder * drift, k + 1)
            prev_rho = rho
        prev_inc = inc
    return ConditionReport(criterion, INCONCLUSIVE, None, tuple(cert) or None,
                           "quadrature", g.count, windows=k + 1)


def _windows_to_point(a: float, width: float):
    """Dyadic windows [a + width 2^-(k+1), a + width 2^-k] shrinking toward a."""
    return lambda k: (a + width * np.ldexp(1.0, -(k + 1)), a + width * np.ldexp(1.0, -k))


def _windows_to_inf(a: float):
    """Doubling windows [a 2^k, a 2^(k+1)] toward infinity."""
    return lambda k: (a * np.ldexp(1.0, k), a * np.ldexp(1.0, k + 1))


def integrate_singular(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    criterion: str = "integral",
) -> ConditionReport:
    """Improper integral on (a, b) with possible power singularities at both ends.

    The interval is split at sqrt(a b) (the midpoint when a = 0) and each half
    is a windowed scan toward its endpoint; _join joins the two reports.
    """
    if not (a < b):
        raise DomainError("integrate_singular requires a < b")
    mid = float(np.sqrt(a * b)) if a > 0 else 0.5 * (a + b)
    left = _scan(_EvalCounter(g), _windows_to_point(a, mid - a), criterion)
    right = None
    if left.status != INFINITE:
        right = _scan(_EvalCounter(lambda y: g(b - y)), _windows_to_point(0.0, b - mid),
                      criterion)
    return _join(criterion, left, right)


def _join(criterion: str, first: ConditionReport,
          second: ConditionReport | None) -> ConditionReport:
    """Report on the union of two adjacent pieces from the reports of both.

    A divergent first piece decides; second is None when it was not scanned,
    which only a first piece that is not finite allows.  The second piece's
    partial sums are lifted by a finite first value, and a divergent or
    inconclusive join carries the monotone partial sums of the piece that
    decided it.
    """
    evals = first.evaluations + (second.evaluations if second else 0)
    windows = first.windows + (second.windows if second else 0)
    if first.status == INFINITE or second is None:
        return ConditionReport(criterion, first.status, None, first.certificate,
                               "quadrature", evals, windows=windows)
    lift = first.value if first.status == FINITE else 0.0
    second_cert = second.certificate and tuple(c + lift for c in second.certificate)
    if second.status == INFINITE:
        return ConditionReport(criterion, INFINITE, None, second_cert, "quadrature", evals,
                               windows=windows)
    if first.status == FINITE and second.status == FINITE:
        err = (first.error_estimate or 0.0) + (second.error_estimate or 0.0)
        return ConditionReport(criterion, FINITE, first.value + second.value, None,
                               "quadrature", evals, err, windows)
    cert = first.certificate if first.status == INCONCLUSIVE else second_cert
    return ConditionReport(criterion, INCONCLUSIVE, None, cert, "quadrature", evals,
                           windows=windows)


def integrate_tail(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    criterion: str = "tail-integral",
) -> ConditionReport:
    """Improper integral on (a, inf); same verdict machinery on doubling windows."""
    if a <= 0:
        raise DomainError("integrate_tail requires a > 0")
    counter = _EvalCounter(g)
    return _scan(counter, _windows_to_inf(a), criterion)


# ---------------------------------------------------------------------------
# iterated double integrals
# ---------------------------------------------------------------------------

def _dyadic_anchors_up(g: Callable, lo: float, hi: float, start: float = 0.0):
    """Anchors lo 2^j up to the first one >= hi, and J(t) = start + int_lo^t g(s) ds there.

    All additions are of positive segment integrals, so no cancellation occurs,
    and the partial sums are one left-to-right cumsum from start.  A knot is
    forced at s = 1 to respect spliced weights.
    """
    t = lo * 2.0 ** np.arange(np.ceil(np.log2(hi / lo)) + 2)
    edges = t[:np.argmax(t >= hi) + 1]
    if lo < 1.0 < edges[-1] and not np.any(np.isclose(edges, 1.0)):
        edges = np.union1d(edges, [1.0])
    return edges, np.cumsum(np.concatenate(([start], _panels(g, edges[:-1], edges[1:]))))


class _InnerCumulative:
    """J(t) for t in [lo, hi] from precomputed ascending anchors plus a local panel.

    The anchors are the dyadic chain lo 2^j (with a knot at 1), and extend_to
    continues that chain and its cumsum, so anchors and their values do not
    depend on how far, or in how many steps, J was extended.  Below the first
    anchor, J is continued by the power law J ~ base (t/lo)^kappa (when a
    positive base and exponent are supplied), matching the local growth of the
    cumulative of a power-like integrand.
    """

    def __init__(self, N: int, lo: float, hi: float, counter: _EvalCounter,
                 base: float = 0.0, base_kappa: float | None = None):
        self.g = lambda s: counter(s) * s ** (N - 1)
        self.base = base
        self.base_kappa = base_kappa
        self.edges, self.J = _dyadic_anchors_up(self.g, lo, hi)

    def extend_to(self, hi: float):
        if hi <= self.edges[-1]:
            return
        edges, J = _dyadic_anchors_up(self.g, self.edges[-1], hi, self.J[-1])
        self.edges = np.concatenate([self.edges, edges[1:]])
        self.J = np.concatenate([self.J, J[1:]])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        i = np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, len(self.edges) - 2)
        lo = self.edges[i]
        out = self.J[i]
        inside = t > lo
        out[inside] += _panels(self.g, lo[inside], t[inside])
        out += self.base
        below = t < self.edges[0]
        if self.base > 0.0 and self.base_kappa is not None:
            out[below] = self.base * (t[below] / self.edges[0]) ** self.base_kappa
        else:
            out[below] = self.base
        return out


def _inner_near0(w, N: int, hi: float) -> ConditionReport:
    """Scan of int_0^hi s^(N-1) w(s) ds over dyadic windows toward 0."""
    return _scan(_EvalCounter(lambda s: w(s) * s ** (N - 1)),
                 _windows_to_point(0.0, hi), "inner-near0")


def _inner_base(w, N: int, inner_lower: float, hi: float) -> tuple[float, float, float | None]:
    """(lower, base, kappa) of the inner cumulative int_inner_lower^t s^(N-1) w(s) ds.

    For inner_lower = 0 the anchors start at the floor hi 2^-64, far below any
    radius that can influence the results at double precision.  The base is
    then the stub int_0^floor, and J ~ base (t/floor)^kappa continues the
    cumulative below the floor: the stub decays like floor^(sigma+1), which is
    not negligible for barely integrable inner singularities.  The stub's own
    scan is the integrability check at zero; DivergenceError when it fails.
    """
    if inner_lower > 0.0:
        return inner_lower, 0.0, None
    floor = hi * 2.0 ** -64
    rep = _inner_near0(w, N, floor)
    if rep.status == INFINITE:
        raise DivergenceError("inner integrand non-integrable at zero", rep.certificate)
    if rep.status == INCONCLUSIVE:
        raise DivergenceError("inner integrand could not be classified at zero", None)
    kappa = float(N)
    if rep.value > 0.0:
        rep2 = _inner_near0(w, N, 2.0 * floor)
        if rep2.status == FINITE and rep2.value > rep.value:
            kappa = float(np.log2(rep2.value / rep.value))
    return floor, rep.value, kappa


def iterated_near0(
    w: Callable[[np.ndarray], np.ndarray],
    N: int,
    t_hi: float = 1.0,
) -> ConditionReport:
    """int_0^{t_hi} t^{1-N} int_0^t s^{N-1} w(s) ds dt with divergence certificates."""
    if N < 3:
        raise DomainError("iterated integrals require N >= 3")
    return _iterated_near0(w, N, t_hi)[0]


def _iterated_near0(w, N: int, t_hi: float) -> tuple[ConditionReport, ConditionReport]:
    """iterated_near0's report, and the scan of its inner integral over [0, t_hi]."""
    counter = _EvalCounter(w)
    inner_report = _inner_near0(w, N, t_hi)
    if inner_report.status == INFINITE:
        # inner integrand already non-integrable: the outer integrand is +inf
        return ConditionReport("iterated-near0", INFINITE, None, inner_report.certificate,
                               "quadrature", inner_report.evaluations,
                               windows=inner_report.windows), inner_report
    inconclusive = ConditionReport("iterated-near0", INCONCLUSIVE, None, None, "quadrature",
                                   inner_report.evaluations, windows=inner_report.windows)
    if inner_report.status == INCONCLUSIVE:
        return inconclusive, inner_report
    try:
        floor, stub, kappa = _inner_base(w, N, 0.0, t_hi)
    except DivergenceError:  # the stub's scan, below the floor, can still overflow
        return inconclusive, inner_report
    J = _InnerCumulative(N, floor, t_hi, counter, base=stub, base_kappa=kappa)
    outer = _EvalCounter(lambda t: J(t) * t ** (1 - N))
    rep = _scan(outer, _windows_to_point(0.0, t_hi), "iterated-near0")
    evals = counter.count + outer.count + inner_report.evaluations
    return ConditionReport(rep.criterion, rep.status, rep.value, rep.certificate,
                           "quadrature", evals, rep.error_estimate, rep.windows), inner_report


def iterated_tail(
    w: Callable[[np.ndarray], np.ndarray],
    N: int,
    t_lo: float = 1.0,
    inner_lower: float | None = None,
    inner_base: float = 0.0,
) -> ConditionReport:
    """int_{t_lo}^inf t^{1-N} (inner_base + int_{inner_lower}^t s^{N-1} w ds) dt."""
    if N < 3:
        raise DomainError("iterated integrals require N >= 3")
    if inner_lower is None:
        inner_lower = t_lo
    counter = _EvalCounter(w)
    J = _InnerCumulative(N, inner_lower, 2.0 * t_lo, counter, base=inner_base)

    def outer_fn(t: np.ndarray) -> np.ndarray:
        J.extend_to(float(np.max(t)))
        return J(t) * t ** (1 - N)

    outer = _EvalCounter(outer_fn)
    rep = _scan(outer, _windows_to_inf(t_lo), "iterated-tail")
    evals = counter.count + outer.count
    return ConditionReport(rep.criterion, rep.status, rep.value, rep.certificate,
                           "quadrature", evals, rep.error_estimate, rep.windows)


def iterated_tail_profile(
    w: Callable,
    N: int,
    inner_lower: float,
    radii: np.ndarray,
) -> np.ndarray:
    """Double-integral profile on a whole increasing radius grid.

    The tail beyond the last radius is evaluated once; interior values follow by
    a backward cumulative pass with positive per-segment additions.  Raises
    DivergenceError (with a certificate when divergent) when the inner
    integrand is not integrable at zero or the tail is not finite.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be strictly increasing")
    r_last = float(radii[-1])
    lower, base, kappa = _inner_base(w, N, inner_lower, max(r_last, 1.0))
    rep = iterated_tail(w, N, t_lo=r_last, inner_lower=lower, inner_base=base)
    if rep.status == INFINITE:
        raise DivergenceError("double-integral profile diverges", rep.certificate)
    if rep.status == INCONCLUSIVE:
        raise DivergenceError("double-integral profile could not be classified", None)
    J = _InnerCumulative(N, min(lower, float(radii[0])), r_last, _EvalCounter(w),
                         base=base, base_kappa=kappa)
    seg = _panels(lambda x: J(x) * x ** (1 - N), radii[:-1], radii[1:])
    return np.cumsum(np.concatenate(([rep.value], seg[::-1])))[::-1]


# ---------------------------------------------------------------------------
# existence classification
# ---------------------------------------------------------------------------

def _analytic_report(criterion: str, finite: bool) -> ConditionReport:
    return ConditionReport(criterion, FINITE if finite else INFINITE, None, None, "analytic", 0)


def _analytic_exists(phi, weight_shift: float) -> bool | None:
    """Closed-form finiteness of int_0^1 r^(1+weight_shift) phi(r) dr and int_1^inf r phi(r) dr.

    None when the exponents are declared, not exact.  Both boundary cases diverge:
    the near-zero one logarithmically, the tail one through positive log factors.
    """
    if not phi.exact_exponents:
        return None
    sigma = phi.near0_exponent() + 1.0 + weight_shift
    return sigma > -1.0 and phi.tail_exponent() + 1.0 < -1.0


def classify_existence(problem: "_problem.ProblemSpec") -> ExistencePrediction:
    """Existence verdict for the inequality on the complement of the compact set.

    One moment test for every compact set: the tail first moment together with
    the near-zero moment of s^(1+shift) phi(s).  A ball (solid K) uses shift 0,
    the plain first moment; the origin or a finite point set (power
    nonlinearity only) uses shift (1+p)(N-2).  For the exact weight families
    the quadrature verdict is cross-checked against the closed exponent
    inequalities; disagreement yields an inconclusive prediction.
    """
    phi = problem.phi
    if problem.N == 2:
        # positive superharmonic functions on the plane admit no decaying states
        return ExistencePrediction(False, "two-dimensional-obstruction", ())

    if isinstance(problem.K, _problem.Ball):
        shift, name = 0.0, "first-moment"
    else:
        p = problem.f.power_exponent()
        if p is None:
            raise UnsupportedCombinationError(
                "point-set compact sets are classified only for power nonlinearities"
            )
        shift, name = (1.0 + p) * (problem.N - 2), "shifted-moment"
    near0 = integrate_singular(lambda s: s ** (1.0 + shift) * phi(s), 0.0, 1.0,
                               criterion=f"{name}-near0")
    tail = integrate_tail(lambda s: s * phi(s), 1.0, criterion="first-moment-tail")
    reports = [near0, tail]
    quad_exists = _both_finite(near0, tail)
    analytic_exists = _analytic_exists(phi, shift)
    if analytic_exists is not None:
        reports.append(_analytic_report(f"{name}-analytic", analytic_exists))
    exists = _combine(quad_exists, analytic_exists)
    return ExistencePrediction(exists, name, tuple(reports))


def _both_finite(*reports: ConditionReport) -> bool | None:
    if any(r.status == INCONCLUSIVE for r in reports):
        return None
    return all(r.status == FINITE for r in reports)


def _combine(quad_exists: bool | None, analytic_exists: bool | None) -> bool | None:
    if analytic_exists is None:
        return quad_exists
    if quad_exists is None:
        return None
    return quad_exists if quad_exists == analytic_exists else None


# ---------------------------------------------------------------------------
# simple vs iterated equivalence and boundary certificates
# ---------------------------------------------------------------------------

def lemma_zero_check(
    phi: Callable[[np.ndarray], np.ndarray],
    N: int,
    regime: str,
) -> tuple[ConditionReport, ConditionReport]:
    """Verdicts for the simple first moment and the iterated double integral.

    regime is one of "near0", "tail", "full".  The two verdicts agree for any
    continuous nonnegative weight; callers may assert that equivalence.
    """
    if N < 3:
        raise DomainError("equivalence check requires N >= 3")
    if regime not in ("near0", "tail", "full"):
        raise DomainError("regime must be near0 | tail | full")
    if regime == "near0":
        simple = integrate_singular(lambda s: s * phi(s), 0.0, 1.0, criterion="simple-near0")
        iterated = iterated_near0(phi, N, 1.0)
        return simple, iterated
    if regime == "tail":
        simple = integrate_tail(lambda s: s * phi(s), 1.0, criterion="simple-tail")
        iterated = iterated_tail(phi, N, 1.0)
        return simple, iterated
    s0 = integrate_singular(lambda s: s * phi(s), 0.0, 1.0, criterion="simple-full")
    s1 = integrate_tail(lambda s: s * phi(s), 1.0, criterion="simple-full")
    it0, inner0 = _iterated_near0(phi, N, 1.0)
    it1 = None
    if it0.status == FINITE:  # then the inner scan toward zero is finite too
        it1 = iterated_tail(phi, N, 1.0, inner_lower=1.0, inner_base=inner0.value)
    return _join("simple-full", s0, s1), _join("iterated-full", it0, it1)


@dataclass(frozen=True)
class BoundaryCertificate:
    """Monotone sequence I_k = int_{r_k}^{r0} (rho - r_k) phi(rho) d rho, r_k = r0 2^-(k+1)."""

    radii: tuple[float, ...]
    values: tuple[float, ...]
    divergent: bool
    limit: float | None


@np.errstate(over="ignore", invalid="ignore")  # an overflowing sum is refused, below
def divergence_certificate_boundary(
    phi: Callable[[np.ndarray], np.ndarray],
    r0: float,
    levels: int = 24,
) -> BoundaryCertificate:
    """Near-boundary divergence certificate from shrinking moment integrals.

    One pass over the dyadic windows [r_j, 2 r_j], j < levels, each cut into
    BOUNDARY_SUBPANELS equal panels so that a kink of the weight inside a
    window costs little accuracy.  With P0_j = int phi and P1_j = int rho phi
    over window j, I_k = sum_{j<=k} P1_j - r_k sum_{j<=k} P0_j.  Divergence is
    judged from the increments of I_k across levels.
    """
    if levels < 3:
        raise DomainError("levels must be >= 3")
    if r0 <= 0:
        raise DomainError("r0 must be positive")
    r_min = math.ldexp(r0, -levels)
    if r_min < np.finfo(float).tiny:
        raise DomainError(f"r0 2^-levels = {r_min:g} is below the smallest normal double")
    radii = np.ldexp(r0, -np.arange(1, levels + 1))
    edges = radii[:, None] * (1.0 + np.arange(BOUNDARY_SUBPANELS + 1) / BOUNDARY_SUBPANELS)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    counter = _EvalCounter(phi)
    P0 = _panels(counter, lo, hi).reshape(levels, -1).sum(axis=1)
    P1 = _panels(lambda rho: rho * counter(rho), lo, hi).reshape(levels, -1).sum(axis=1)
    vals = np.cumsum(P1) - radii * np.cumsum(P0)
    if not np.all(np.isfinite(vals)):
        raise DomainError("boundary moments overflow")
    inc = np.diff(vals)
    divergent = False
    if len(inc) >= DIV_CONSECUTIVE + 1:
        ratios = inc[1:] / np.where(inc[:-1] > 0, inc[:-1], np.inf)
        tail_ratios = ratios[-DIV_CONSECUTIVE:]
        divergent = bool(np.all(tail_ratios >= 1.0 - DIV_FLOOR))
    limit = None
    if not divergent and len(inc) >= 2 and inc[-2] > 0:
        rho_last = inc[-1] / inc[-2]
        if rho_last < 0.95:
            limit = float(vals[-1] + inc[-1] * rho_last / (1.0 - rho_last))
        else:
            limit = float(vals[-1])
    return BoundaryCertificate(tuple(radii.tolist()), tuple(vals.tolist()), divergent, limit)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing weight reads not monotone
def phi_tail_monotone(phi: Callable[[np.ndarray], np.ndarray], r0: float) -> bool:
    """Sampled monotonicity of the weight on 64 geometric radii in [r0, 1e6 r0]
    (hypothesis check for tail verdicts)."""
    r = np.geomspace(r0, r0 * 1e6, 64)
    v = phi(r)
    dv = np.diff(v)
    tol = 1e-12 * np.maximum(v[:-1], v[1:])
    return bool(np.all(dv <= tol) or np.all(dv >= -tol))
