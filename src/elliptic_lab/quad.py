"""Improper-integral machinery: windowed geometric scans, finiteness verdicts with
certificates, the existence criteria, and the simple/iterated integral equivalence.

The existence moments of a weight that is a power on pieces (``phi.pieces()``)
are closed form (power_moment), with no integrand evaluation.  Every other
improper integral here is singular at one end only, and is reduced to one
stream of dyadic windows marching toward that end (zero or infinity).  Window increments of a
power-like integrand decay or grow geometrically, so a stable increment ratio
rho < 1 permits an exact-on-powers tail extrapolation, while a ratio pinned at
or above 1 - DIV_FLOOR for several consecutive windows certifies divergence.

Windows are integrated _WINDOW_BLOCK at a time, one integrand call per block.
Each window's integral is the same double whichever block computes it (the
panel sum is row by row, and inner anchors follow one fixed dyadic chain), so
verdicts, values and certificates do not depend on the block size; only the
evaluation count includes the windows of the last block past the verdict.

The inner cumulative of an iterated integral keeps, besides its anchor values,
its value at every Gauss node of the anchor intervals, from a cumulative Gauss
rule (_GL_CUMUL) on the weight values the anchor panels already evaluated.  The
outer windows are those intervals, so the outer scan reads the inner integral
from that table alone and evaluates the weight once per node.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, UnsupportedCombinationError

FINITE = "finite"
INFINITE = "infinite"
INCONCLUSIVE = "inconclusive"

DIV_FLOOR = 1e-3          # increments failing to decay by this much look divergent
DIV_CONSECUTIVE = 6       # consecutive non-decaying windows required
BLOWUP = 1e6              # fast-divergence value threshold
MAX_WINDOWS = 420
REL_TOL = 1e-9            # a finite verdict needs remainder + error below this share

_GL_NODES, _GL_WTS = np.polynomial.legendre.leggauss(24)


def _gauss_cumulative_matrix() -> np.ndarray:
    """S[k, j] = int_{-1}^{x_k} l_j(x) dx for the Lagrange basis l_j at the Gauss nodes.

    Row k integrates the degree-23 interpolant of node values from -1 to node
    k (Greengard's spectral integration matrix).  The Gauss projection
    l_j = w_j sum_m (m + 1/2) P_m(x_j) P_m is exact, and int_{-1}^x P_m is
    (P_{m+1} - P_{m-1}) / (2m + 1), or x + 1 for m = 0, so every term carries
    the factor 1/2.  einsum, not a matrix product, so that importing the
    module starts no BLAS kernel.
    """
    P = np.polynomial.legendre.legvander(_GL_NODES, 24)
    antiderivatives = np.column_stack([P[:, 1] + P[:, 0], P[:, 2:] - P[:, :-2]])
    return 0.5 * np.einsum("km,jm->kj", antiderivatives, P[:, :24]) * _GL_WTS


_GL_CUMUL = _gauss_cumulative_matrix()
_PANEL_BLOCK = 1024       # panels per call of the integrand in _panels
_WINDOW_BLOCK = 16        # scan windows per call of _panels in _scan
BOUNDARY_SUBPANELS = 8    # equal panels per dyadic window of the boundary certificate


@dataclass(frozen=True)
class ConditionReport:
    """Finiteness verdict for one integral criterion.

    method is quadrature, closed-form or analytic.  evaluations counts the
    integrand points evaluated, windows the scan windows whose increments the
    verdict read (both 0 for closed-form and analytic reports).
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


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the panels [lo_k, hi_k] and their Gauss nodes, one row per panel."""
    half = 0.5 * (hi - lo)
    return half, half[:, None] * _GL_NODES + (lo + half)[:, None]


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
    out = np.empty_like(lo)
    for b in range(0, len(lo), _PANEL_BLOCK):
        blk = slice(b, b + _PANEL_BLOCK)
        half, x = _panel_nodes(lo[blk], hi[blk])
        out[blk] = half * np.einsum("ij,j->i", g(x.ravel()).reshape(x.shape), _GL_WTS)
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
    b: float,
    criterion: str = "integral",
) -> ConditionReport:
    """Improper integral on (0, b], with a possible power singularity at 0 only:
    one scan of the dyadic windows [b 2^-(k+1), b 2^-k] toward 0."""
    if not b > 0:
        raise DomainError("integrate_singular requires b > 0")
    return _scan(_EvalCounter(g), _windows_to_point(0.0, b), criterion)


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
    """Anchors lo 2^j up to the first one >= hi, J(t) = start + int_lo^t g(s) ds there,
    and the Gauss nodes of every anchor interval with J at each of them.

    All additions are of positive segment integrals, so no cancellation occurs,
    and the anchor values are one left-to-right cumsum from start.  Each anchor
    interval is one panel, and its node values of g also give J at its nodes,
    J(lo_i) + half_i (_GL_CUMUL g)_k, with no further evaluation; the
    contraction is einsum's, row by row, so a node's value does not depend on
    how many intervals one call covers.
    """
    t = lo * 2.0 ** np.arange(np.ceil(np.log2(hi / lo)) + 2)
    edges = t[:np.argmax(t >= hi) + 1]
    half, nodes = _panel_nodes(edges[:-1], edges[1:])
    gx = g(nodes.ravel()).reshape(nodes.shape)
    J = np.cumsum(np.concatenate(([start], half * np.einsum("ij,j->i", gx, _GL_WTS))))
    at_nodes = J[:-1, None] + half[:, None] * np.einsum("ij,kj->ik", gx, _GL_CUMUL)
    return edges, J, nodes.ravel(), at_nodes.ravel()


class _InnerCumulative:
    """J(t) = base + int_lo^t s^(N-1) w(s) ds at the Gauss nodes of its anchor intervals.

    The anchors are the dyadic chain lo 2^j, and extend_to continues that chain
    and its cumsum, so anchors, their values and the node table do not depend
    on how far, or in how many steps, J was extended.  The outer windows of
    iterated_near0 and iterated_tail are the anchor intervals, so every query
    is a node of the table (an exact match) or lies below the first anchor,
    where J is continued by the power law base (t/lo)^base_kappa, matching the
    local growth of the cumulative of a power-like integrand.  Any other query
    raises DomainError.
    """

    def __init__(self, N: int, lo: float, hi: float, counter: _EvalCounter,
                 base: float = 0.0, base_kappa: float = 0.0):
        self.g = lambda s: counter(s) * s ** (N - 1)
        self.base = base
        self.base_kappa = base_kappa
        self.edges, self.J, self.nodes, self.at_nodes = _dyadic_anchors_up(self.g, lo, hi)

    def extend_to(self, hi: float):
        if hi <= self.edges[-1]:
            return
        edges, J, nodes, at_nodes = _dyadic_anchors_up(self.g, self.edges[-1], hi, self.J[-1])
        self.edges = np.concatenate([self.edges, edges[1:]])
        self.J = np.concatenate([self.J, J[1:]])
        self.nodes = np.concatenate([self.nodes, nodes])
        self.at_nodes = np.concatenate([self.at_nodes, at_nodes])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.minimum(np.searchsorted(self.nodes, t), len(self.nodes) - 1)
        below = t < self.edges[0]
        if not np.all((self.nodes[k] == t) | below):
            raise DomainError("inner cumulative queried off its node table")
        out = self.at_nodes[k] + self.base
        out[below] = self.base * (t[below] / self.edges[0]) ** self.base_kappa
        return out


def _inner_near0(w, N: int, hi: float) -> ConditionReport:
    """Scan of int_0^hi s^(N-1) w(s) ds over dyadic windows toward 0."""
    return _scan(_EvalCounter(lambda s: w(s) * s ** (N - 1)),
                 _windows_to_point(0.0, hi), "inner-near0")


def _inner_base(w, N: int, hi: float) -> tuple[float, float, float]:
    """(floor, base, kappa) of the inner cumulative int_0^t s^(N-1) w(s) ds.

    The anchors start at the floor hi 2^-64, far below any radius that can
    influence the results at double precision.  The base is the stub
    int_0^floor, and J ~ base (t/floor)^kappa continues the cumulative below
    the floor: the stub decays like floor^(sigma+1), which is not negligible
    for barely integrable inner singularities.  kappa is the log2 growth of the
    stub over one more panel, [floor, 2 floor] (N when that panel adds nothing
    finite and positive).  The stub's own scan is the integrability check at
    zero; DivergenceError when it fails.
    """
    floor = hi * 2.0 ** -64
    rep = _inner_near0(w, N, floor)
    if rep.status == INFINITE:
        raise DivergenceError("inner integrand non-integrable at zero", rep.certificate)
    if rep.status == INCONCLUSIVE:
        raise DivergenceError("inner integrand could not be classified at zero", None)
    kappa = float(N)
    if rep.value > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            step = float(_panels(lambda s: w(s) * s ** (N - 1), floor, 2.0 * floor)[0])
        if 0.0 < step < np.inf:
            kappa = float(np.log2((rep.value + step) / rep.value))
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
        floor, stub, kappa = _inner_base(w, N, t_hi)
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
    inner_base: float = 0.0,
) -> ConditionReport:
    """int_{t_lo}^inf t^{1-N} (inner_base + int_{t_lo}^t s^{N-1} w ds) dt, the outer
    scan over a nested inner cumulative (the witness of lemma_zero_check)."""
    if N < 3:
        raise DomainError("iterated integrals require N >= 3")
    counter = _EvalCounter(w)
    J = _InnerCumulative(N, t_lo, 2.0 * t_lo, counter, base=inner_base)

    def outer_fn(t: np.ndarray) -> np.ndarray:
        J.extend_to(float(np.max(t)))
        return J(t) * t ** (1 - N)

    outer = _EvalCounter(outer_fn)
    rep = _scan(outer, _windows_to_inf(t_lo), "iterated-tail")
    evals = counter.count + outer.count
    return ConditionReport(rep.criterion, rep.status, rep.value, rep.certificate,
                           "quadrature", evals, rep.error_estimate, rep.windows)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite integrand is refused by _EvalCounter
def iterated_tail_profile(
    w: Callable,
    N: int,
    radii: np.ndarray,
) -> np.ndarray:
    """A(r) = int_r^inf t^(1-N) int_{r0}^t s^(N-1) w ds dt on an increasing radius grid
    from r0 = radii[0], as the Tonelli sum of two single moments:

        A(r) = (r^(2-N) C(r) + T(r)) / (N - 2),
        C(r) = int_{r0}^r s^(N-1) w ds,   T(r) = int_r^inf s w ds.

    C runs forward from 0 at radii[0], T backward from one tail scan beyond
    radii[-1], and each grid segment adds one positive panel to each.  Raises
    DomainError for a grid that is not increasing, and DivergenceError (with a
    certificate when divergent) when the tail moment is not finite.
    """
    if N < 3:
        raise DomainError("profile requires N >= 3")
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be strictly increasing")
    r_last = float(radii[-1])
    tail = integrate_tail(lambda s: s * w(s), r_last, "profile-tail")
    if tail.status != FINITE:
        raise DivergenceError(
            f"profile tail moment int_{r_last:g}^inf s phi(s) ds is {tail.status}",
            tail.certificate if tail.status == INFINITE else None)
    inner = _panels(_EvalCounter(lambda s: s ** (N - 1) * w(s)), radii[:-1], radii[1:])
    outer = _panels(_EvalCounter(lambda s: s * w(s)), radii[:-1], radii[1:])
    C = np.cumsum(np.concatenate(([0.0], inner)))
    T = np.cumsum(np.concatenate(([tail.value], outer[::-1])))[::-1]
    return (radii ** (2 - N) * C + T) / (N - 2)


# ---------------------------------------------------------------------------
# existence classification
# ---------------------------------------------------------------------------

_EPS = sys.float_info.epsilon
_LOG_MAX = math.log(sys.float_info.max)


def _log_ratio(x: float, y: float) -> float:
    """log(x / y) for finite 0 < y < x, to a few ulps also where x is close to y."""
    if x <= 2.0 * y:  # x - y is exact
        return math.log1p((x - y) / y)
    r = x / y
    return math.log(r) if r < math.inf else math.log(x) - math.log(y)


def power_moment(pieces, m: float, a: float, b: float, criterion: str) -> ConditionReport:
    """Closed-form int_a^b s^m phi(s) ds, 0 <= a < b <= inf, for a weight given by its
    power pieces (lo, hi, c, s0, e), phi = c (s/s0)^e on [lo, hi].

    On [L, H], the part of [a, b] in a piece, let q = m + e + 1 and d = log(H/L).
    The piece adds phi(T) T^(m+1) h, taken from its larger end T (H for q > 0,
    L for q < 0), with h = -expm1(-|q| d) / |q|, and h = d at q = 0.  Each term is
    the exp of a sum of logs, so it neither cancels as q -> 0 nor overflows in
    s0^(m+1) for large m.  The moment is infinite exactly when a piece with c > 0
    reaches 0 with q <= 0 or infinity with q >= 0.  A finite moment whose terms
    leave the double range is reported with value None.

    error_estimate is a first-order roundoff bound: each log in a term's sum is
    off by at most 2 eps of its magnitude, log(T/s0) as log T - log s0 by eps of
    theirs, and exp, expm1, q and d add a few eps.
    """
    def report(status, value=None, err=None):
        return ConditionReport(criterion, status, value, None, "closed-form", 0, err)

    logs = []
    for lo, hi, c, s0, e in pieces:
        L, H = max(lo, a), min(hi, b)
        if c == 0.0 or not L < H:
            continue
        q = m + e + 1.0
        if abs(q) < 1.0:  # near a critical line: correctly rounded
            q = math.fsum((m, e, 1.0))
        if (L == 0.0 and q <= 0.0) or (H == math.inf and q >= 0.0):
            return report(INFINITE)
        d = math.inf if L == 0.0 or H == math.inf else _log_ratio(H, L)
        if d == 0.0:  # H / L rounds to 1: the piece is narrower than roundoff
            continue
        T = H if q > 0.0 else L
        t = abs(q) * d
        lt, ls0 = math.log(T), math.log(s0)
        parts = (math.log(c), e * (lt - ls0), (m + 1.0) * lt) + (
            (math.log(d),) if t == 0.0 else (math.log(-math.expm1(-t)), -math.log(abs(q))))
        try:
            y = math.fsum(parts)
        except (OverflowError, ValueError):  # past the double range, or inf - inf
            y = math.nan
        lr_err = 0.0 if T == s0 else abs(e) * (abs(lt) + abs(ls0))
        logs.append((y, _EPS * (8.0 + 2.0 * sum(abs(x) for x in parts) + lr_err)))
    if not all(y <= _LOG_MAX for y, _ in logs):  # a term overflows or is undefined
        return report(FINITE)
    terms = [(math.exp(y), rel) for y, rel in logs]
    value = math.fsum(term for term, _ in terms)
    err = math.fsum(term * rel for term, rel in terms if term > 0.0) + _EPS * value
    return report(FINITE, value, err)


def _analytic_exists(phi, weight_shift: float) -> bool:
    """Finiteness of int_0^1 r^(1+weight_shift) phi(r) dr and int_1^inf r phi(r) dr from
    the exponents.  Both boundary cases diverge: the near-zero one
    logarithmically, the tail one through positive log factors."""
    sigma = phi.near0_exponent() + 1.0 + weight_shift
    return sigma > -1.0 and phi.tail_exponent() + 1.0 < -1.0


def classify_existence(problem) -> ExistencePrediction:
    """Existence verdict of a ProblemSpec on the complement of its compact set.

    One moment test for every compact set: the tail first moment together with
    the near-zero moment of s^(1+shift) phi(s).  A ball (solid K) uses shift 0,
    the plain first moment; the origin or a finite point set (power
    nonlinearity only) uses shift (1+p)(N-2).  A weight with power pieces
    (``phi.pieces()``) gets both moments in closed form (power_moment): two
    reports with method closed-form, exact at any distance from a critical
    line and for any N.  The other families are scanned by quadrature, and
    that verdict is cross-checked against the exponent inequalities (a third,
    analytic report); disagreement yields an inconclusive prediction.
    """
    phi = problem.phi
    if problem.N == 2:
        # positive superharmonic functions on the plane admit no decaying states
        return ExistencePrediction(False, "two-dimensional-obstruction", ())

    if problem.K.solid:
        shift, name = 0.0, "first-moment"
    else:
        p = problem.f.power_exponent()
        if p is None:
            raise UnsupportedCombinationError(
                "the origin or a point set is classified only for power nonlinearities")
        shift, name = (1.0 + p) * (problem.N - 2), "shifted-moment"
    pieces = phi.pieces()
    if pieces is not None:
        near0 = power_moment(pieces, 1.0 + shift, 0.0, 1.0, f"{name}-near0")
        tail = power_moment(pieces, 1.0, 1.0, math.inf, "first-moment-tail")
        return ExistencePrediction(_both_finite(near0, tail), name, (near0, tail))
    near0 = integrate_singular(lambda s: s ** (1.0 + shift) * phi(s), 1.0,
                               criterion=f"{name}-near0")
    tail = integrate_tail(lambda s: s * phi(s), 1.0, criterion="first-moment-tail")
    quad_exists = _both_finite(near0, tail)
    analytic_exists = _analytic_exists(phi, shift)
    analytic = ConditionReport(f"{name}-analytic", FINITE if analytic_exists else INFINITE,
                               None, None, "analytic", 0)
    exists = quad_exists if quad_exists == analytic_exists else None
    return ExistencePrediction(exists, name, (near0, tail, analytic))


def _both_finite(*reports: ConditionReport) -> bool | None:
    if any(r.status == INCONCLUSIVE for r in reports):
        return None
    return all(r.status == FINITE for r in reports)


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
        simple = integrate_singular(lambda s: s * phi(s), 1.0, criterion="simple-near0")
        iterated = iterated_near0(phi, N, 1.0)
        return simple, iterated
    if regime == "tail":
        simple = integrate_tail(lambda s: s * phi(s), 1.0, criterion="simple-tail")
        iterated = iterated_tail(phi, N, 1.0)
        return simple, iterated
    s0 = integrate_singular(lambda s: s * phi(s), 1.0, criterion="simple-full")
    s1 = integrate_tail(lambda s: s * phi(s), 1.0, criterion="simple-full")
    it0, inner0 = _iterated_near0(phi, N, 1.0)
    it1 = None
    if it0.status == FINITE:  # then the inner scan toward zero is finite too
        it1 = iterated_tail(phi, N, 1.0, inner_base=inner0.value)
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
