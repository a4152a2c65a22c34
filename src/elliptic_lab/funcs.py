"""Weight and nonlinearity families, their closed-form companions, and profiles built from them.

The weight families model phi(delta): pure powers, a spliced two-exponent power,
power-log corrections, iterated-log corrections, and tabulated data with declared
endpoint growth.  The nonlinearity families model positive nonincreasing f(t),
with the antiderivative map G(v) = int_0^v dt/f(t) and its inverse.
Each family carries its own operations (the PhiSpec and FSpec protocols), so
quad and bvp1d take the families as callables and do not import this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstructionError, DomainError, NoSolutionError
from . import quad as _quad
from . import bvp1d as _bvp1d


# ---------------------------------------------------------------------------
# weight families
# ---------------------------------------------------------------------------

Piece = tuple[float, float, float, float, float]


class PhiSpec:
    """Protocol of the weight families: one class per family, with its formula
    ``_formula(r)`` and its exponents ``near0_exponent()`` and ``tail_exponent()``.

    ``phi(r)`` evaluates through ``phi_values``, which checks r > 0.  A family
    that is a power on each piece returns those pieces from ``pieces()``, and
    its moments are then closed form (``quad.power_moment``).
    """

    is_zero = False

    def __call__(self, r) -> np.ndarray:
        return phi_values(self, r)

    def pieces(self) -> tuple[Piece, ...] | None:
        """The weight as exact power pieces (lo, hi, c, s0, e), phi = c (s/s0)**e on
        [lo, hi], in increasing order from lo = 0 to hi = inf; None for a weight
        that is no power on pieces."""
        return None

    def kelvin_image(self, shift: float) -> "PhiSpec | None":
        """The family member equal to r**shift * phi(1/r), or None if there is none."""
        return None


@dataclass(frozen=True)
class PowerPhi(PhiSpec):
    """phi(r) = r**alpha."""

    alpha: float

    def _formula(self, r: np.ndarray) -> np.ndarray:
        return r ** self.alpha

    def near0_exponent(self) -> float:
        return self.alpha

    def tail_exponent(self) -> float:
        return self.alpha

    def pieces(self) -> tuple[Piece, ...]:
        return ((0.0, math.inf, 1.0, 1.0, self.alpha),)

    def kelvin_image(self, shift: float) -> "PowerPhi":
        return PowerPhi(alpha=shift - self.alpha)


@dataclass(frozen=True)
class PowerSplitPhi(PhiSpec):
    """phi(r) = r**alpha on (0,1], r**beta on (1,inf); both branches equal 1 at r=1."""

    alpha: float
    beta: float

    def _formula(self, r: np.ndarray) -> np.ndarray:
        # the branch np.where drops may overflow; a kept inf is refused where it is used
        with np.errstate(over="ignore"):
            return np.where(r <= 1.0, r ** self.alpha, r ** self.beta)

    def near0_exponent(self) -> float:
        return self.alpha

    def tail_exponent(self) -> float:
        return self.beta

    def pieces(self) -> tuple[Piece, ...]:
        return ((0.0, 1.0, 1.0, 1.0, self.alpha), (1.0, math.inf, 1.0, 1.0, self.beta))

    def kelvin_image(self, shift: float) -> "PowerSplitPhi":
        return PowerSplitPhi(alpha=shift - self.beta, beta=shift - self.alpha)


_LOG_MAX = math.log(sys.float_info.max)


def _power_times(r: np.ndarray, alpha: float, factor: np.ndarray,
                 log_factor: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """r**alpha * factor, evaluated as exp(alpha log r + log_factor(mask)) where
    r**alpha overflows (log_factor gives log(factor) at r[mask]).  Every value
    that the plain product gives finite is left as the plain product."""
    extreme = r.min(initial=1.0) if alpha < 0 else r.max(initial=1.0)
    if alpha * math.log(extreme) < _LOG_MAX - 1.0:  # no power can overflow
        return r ** alpha * factor
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 where factor underflows
        power = r ** alpha
        out = np.array(power * factor)
        big = np.isinf(power)
        out[big] = np.exp(alpha * np.log(r[big]) + log_factor(big))
    return out[()]


@dataclass(frozen=True)
class PowerLogPhi(PhiSpec):
    """phi(r) = r**alpha * log(1+r)**beta with beta > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError("PowerLogPhi requires beta > 0")

    def _formula(self, r: np.ndarray) -> np.ndarray:
        ell = np.log1p(r)
        return _power_times(r, self.alpha, ell ** self.beta,
                            lambda m: self.beta * np.log(ell[m]))

    def near0_exponent(self) -> float:
        # log(1+r) ~ r as r -> 0, so the log factor contributes a full power.
        return self.alpha + self.beta

    def tail_exponent(self) -> float:
        return self.alpha


@dataclass(frozen=True)
class IterLogPhi(PhiSpec):
    """phi(r) = r**alpha * prod_k ell_k(r)**beta_k with iterated logs.

    ell_1(r) = log(1+r) and ell_{k+1}(r) = log(1 + ell_k(r)).  Every factor
    behaves like r near zero, so the near-zero exponent is alpha + sum(betas);
    at infinity all factors are slowly varying and the tail exponent is alpha.
    """

    alpha: float
    betas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if not self.betas:
            raise DomainError("IterLogPhi requires at least one log exponent")
        if any(b <= 0 for b in self.betas):
            raise DomainError("IterLogPhi exponents must be positive")

    def _formula(self, r: np.ndarray) -> np.ndarray:
        factors = np.ones_like(r)
        ells = [np.log1p(r)]
        for b in self.betas:
            factors = factors * ells[-1] ** b
            ells.append(np.log1p(ells[-1]))
        return _power_times(r, self.alpha, factors,
                            lambda m: sum(b * np.log(ell[m]) for b, ell in zip(self.betas, ells)))

    def near0_exponent(self) -> float:
        return self.alpha + sum(self.betas)

    def tail_exponent(self) -> float:
        return self.alpha


@dataclass(frozen=True, eq=False)
class TabulatedPhi(PhiSpec):
    """Log-log interpolated weight with declared power behavior outside the knots."""

    knots: np.ndarray
    values: np.ndarray
    near0_exp: float
    tail_exp: float

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.ndim != 1 or knots.size < 2:
            raise DomainError("TabulatedPhi needs at least two knots")
        if np.any(np.diff(knots) <= 0) or knots[0] <= 0:
            raise DomainError("TabulatedPhi knots must be positive and strictly increasing")
        if values.shape != knots.shape:
            raise DomainError("TabulatedPhi values must match knots")
        if np.any(values < 0):
            raise DomainError("TabulatedPhi values must be nonnegative")

    def _formula(self, r: np.ndarray) -> np.ndarray:
        if self.is_zero:
            return np.zeros_like(r)
        logk = np.log(self.knots)
        with np.errstate(divide="ignore"):
            logv = np.log(self.values)
        x = np.atleast_1d(r)
        out = np.exp(np.interp(np.log(x), logk, logv))
        # the declared powers beyond the knots, taken only where they hold (a
        # steep one would overflow on the radii of the other side) and where the
        # end value is positive: beyond a zero one the clamped interpolation is 0
        lo = (x < self.knots[0]) & (self.values[0] > 0.0)
        hi = (x > self.knots[-1]) & (self.values[-1] > 0.0)
        out[lo] = self.values[0] * (x[lo] / self.knots[0]) ** self.near0_exp
        out[hi] = self.values[-1] * (x[hi] / self.knots[-1]) ** self.tail_exp
        return out.reshape(r.shape)

    def pieces(self) -> tuple[Piece, ...]:
        """The declared power below the first knot, one power per knot interval
        (the exponent is the interpolation's slope in log-log, and a zero value
        at either end makes the interval zero), the declared power beyond the
        last knot."""
        k = self.knots.tolist()
        v = self.values.tolist()
        out = [(0.0, k[0], v[0], k[0], self.near0_exp)]
        for k0, k1, v0, v1 in zip(k, k[1:], v, v[1:]):
            if v0 == 0.0 or v1 == 0.0:
                out.append((k0, k1, 0.0, k0, 0.0))
                continue
            dk = math.log(k1) - math.log(k0)
            # knots whose logs round equal are closer than a double resolves in
            # log r: that interval is read as constant
            e = (math.log(v1) - math.log(v0)) / dk if dk > 0.0 else 0.0
            out.append((k0, k1, v0, k0, e))
        out.append((k[-1], math.inf, v[-1], k[-1], self.tail_exp))
        return tuple(out)

    def near0_exponent(self) -> float:
        return self.near0_exp

    def tail_exponent(self) -> float:
        return self.tail_exp

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))


def phi_values(phi: PhiSpec, r: np.ndarray) -> np.ndarray:
    """Vectorized weight evaluation on positive radii; every weight call goes through here."""
    r = np.asarray(r, dtype=float)
    if (r <= 0).any():
        raise DomainError("weight evaluation requires r > 0")
    return phi._formula(r)


# ---------------------------------------------------------------------------
# nonlinearity families
# ---------------------------------------------------------------------------

class FSpec:
    """Protocol of the nonlinearity families: one class per family, called as ``f(t)``.

    The slope bound and the map G default to numerical forms built on those
    values; closed families override them.
    """

    def power_exponent(self) -> float | None:
        """p for f(t) = t**(-p), None for the other families."""
        return None

    def slope_bound(self, t: np.ndarray) -> np.ndarray:
        """Pointwise bound on |f'(t)|, used by the monotone solver shift."""
        t = np.asarray(t, dtype=float)
        h = 1e-6 * (1.0 + np.abs(t))
        lo = np.maximum(t - h, 1e-300)
        return np.abs(self(t + h) - self(lo)) / (t + h - lo)

    def G_and_inverse(self) -> tuple[Callable, Callable]:
        """Antiderivative map G(v) = int_0^v dt/f(t) and its inverse.

        G is computed by Gauss quadrature on 64 panels per point, [0, v 2^-63]
        and the geometric [v 2^(k-1), v 2^k] for k = -62..0, all points in one
        quad._panels call.  The inverse brackets each root by doubling from 1,
        then runs Newton v <- v - (G(v) - s) f(v) on all points at once; G is
        convex (1/f is nondecreasing), so from the bracket's upper end the
        iterates fall monotonically to the root.
        """

        def inv_f(x: np.ndarray) -> np.ndarray:
            fx = self(x)
            if np.any(fx <= 0):
                raise ConstructionError("1/f not integrable: f vanishes")
            return 1.0 / fx

        def G(v):
            arr = np.asarray(v, dtype=float)
            if np.any(arr < 0):
                raise DomainError("G requires v >= 0")
            flat = arr.ravel()
            out = np.zeros_like(flat)
            nonzero = flat != 0.0  # G(0) = 0 without evaluating f at 0
            edges = flat[nonzero, None] * 2.0 ** np.arange(-64.0, 1.0)
            edges[:, 0] = 0.0
            out[nonzero] = _quad._panels(inv_f, edges[:, :-1].ravel(),
                                     edges[:, 1:].ravel()).reshape(-1, 64).sum(axis=1)
            return out.reshape(arr.shape) if arr.ndim else float(out[0])

        def Ginv(s):
            arr = np.asarray(s, dtype=float)
            if np.any(arr < 0):
                raise DomainError("G inverse requires s >= 0")
            out = arr.ravel().copy()
            pos = out > 0.0  # G^{-1}(0) = 0 without iterating
            target = out[pos]
            v = np.ones_like(target)
            low = np.ones(target.shape, dtype=bool)
            for _ in range(200):  # brackets up to 2^199
                low[low] = G(v[low]) < target[low]
                if not np.any(low):
                    break
                v[low] *= 2.0
            else:
                raise ConstructionError("G appears bounded; cannot invert")
            todo = np.arange(v.size)
            for _ in range(100):
                step = (G(v[todo]) - target[todo]) * self(v[todo])
                v[todo] -= step
                todo = todo[np.abs(step) > 1e-13 * v[todo]]
                if todo.size == 0:
                    break
            else:
                raise ConstructionError("Newton inversion of G did not settle")
            out[pos] = v
            return out.reshape(arr.shape) if arr.ndim else float(out[0])

        return G, Ginv


@dataclass(frozen=True)
class PowerF(FSpec):
    """f(t) = t**(-p), p > 0; the slope bound and G are closed form."""

    p: float

    def __post_init__(self):
        if self.p <= 0:
            raise DomainError("PowerF requires p > 0")

    def power_exponent(self) -> float:
        return self.p

    def __call__(self, t) -> np.ndarray:
        return np.asarray(t, dtype=float) ** (-self.p)

    def slope_bound(self, t: np.ndarray) -> np.ndarray:
        return self.p * np.asarray(t, dtype=float) ** (-self.p - 1.0)

    def G_and_inverse(self) -> tuple[Callable, Callable]:
        p = self.p

        def G(v):
            v = np.asarray(v, dtype=float)
            return v ** (1.0 + p) / (1.0 + p)

        def Ginv(s):
            s = np.asarray(s, dtype=float)
            if np.any(s < 0):
                raise DomainError("G inverse requires s >= 0")
            return ((1.0 + p) * s) ** (1.0 / (1.0 + p))

        return G, Ginv


@dataclass(frozen=True, eq=False)
class GeneralDecreasingF(FSpec):
    """Positive nonincreasing nonlinearity given by an evaluator callable.

    Positivity and monotonicity are spot-checked on a log-spaced sample grid at
    construction.  Constant evaluators are admitted as the degenerate case.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        t = np.geomspace(1e-6, 1e3, 121)
        v = np.asarray(self.evaluator(t), dtype=float)
        if v.shape != t.shape:
            raise ConstructionError("evaluator must be vectorized over t")
        if np.any(~np.isfinite(v)) or np.any(v < 0):
            raise ConstructionError("f must be finite and nonnegative on (0, inf)")
        # rapidly decaying evaluators may underflow at huge t; demand strict
        # positivity on the moderate range only
        if np.any(v[t <= 10.0] <= 0):
            raise ConstructionError("f must be positive")
        if np.any(np.diff(v) > 1e-12 * np.maximum(v[:-1], v[1:])):
            raise ConstructionError("f must be nonincreasing on (0, inf)")

    def __call__(self, t) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(t, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# closed-form power solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormPower:
    """u(r) = coefficient * r**exponent, a verified-by-substitution solution."""

    coefficient: float
    exponent: float

    def __call__(self, r):
        return self.coefficient * np.asarray(r, dtype=float) ** self.exponent


def xi_closed_form(N: int, p: float, alpha: float) -> ClosedFormPower:
    """Minimal power solution of -Lap(u) = r**alpha * u**(-p) around an isolated point.

    The exponent follows from matching powers, q = (2+alpha)/(1+p).  The
    coefficient is re-derived by substituting c*r**q into the equation:

        -Lap(c r**q) = -c q (q+N-2) r**(q-2)  must equal  c**(-p) r**(alpha-p q),

    giving c**(1+p) = -(1+p)**2 / ((2+alpha) (N+alpha+p(N-2))).  Admissibility
    requires N+alpha+p(N-2) > 0 and alpha < -2, which makes the right side
    positive.
    """
    if N < 3:
        raise DomainError("closed-form power solution requires N >= 3")
    if p <= 0:
        raise DomainError("requires p > 0")
    if not (N + alpha + p * (N - 2) > 0 and alpha < -2):
        raise NoSolutionError(
            f"no positive solution: need N+alpha+p(N-2) > 0 and alpha < -2, "
            f"got N={N}, p={p}, alpha={alpha}"
        )
    q = (2.0 + alpha) / (1.0 + p)
    cpow = -((1.0 + p) ** 2) / ((2.0 + alpha) * (N + alpha + p * (N - 2)))
    c = cpow ** (1.0 / (1.0 + p))
    return ClosedFormPower(coefficient=c, exponent=q)


# ---------------------------------------------------------------------------
# implicit supersolutions
# ---------------------------------------------------------------------------

def supersolution_profile(
    phi: PhiSpec,
    f: FSpec,
    N: int,
    inner_lower: float,
    r_min: float,
    nodes: int = 1024,
) -> "_bvp1d.RadialProfile":
    """v(r) = G^{-1}(A(r)) sampled on the geometric grid from r_min to 4096 max(r_min, 1).

    A(r) = int_r^inf t^(1-N) int_{r_min}^t s^(N-1) phi ds dt is the
    double-integral profile; the chain rule together with f nonincreasing makes
    v satisfy -Lap(v) >= phi * f(v).  quad.iterated_tail_profile computes A as
    the Tonelli sum of two cumulative single moments, with positive additions
    only.  The inner integral starts at the grid: inner_lower must equal r_min.
    """
    if r_min <= 0:
        raise DomainError("r_min must be positive")
    if inner_lower != r_min:
        raise DomainError(f"inner_lower = {inner_lower:g} must equal r_min = {r_min:g}")
    r = np.geomspace(r_min, 4096.0 * max(r_min, 1.0), nodes)
    A = _quad.iterated_tail_profile(phi, N, r)
    _, Ginv = f.G_and_inverse()
    v = np.asarray(Ginv(A), dtype=float)
    if np.any(v <= 0):
        raise ConstructionError("supersolution profile must be positive")
    return _bvp1d.RadialProfile(grid=_bvp1d.RadialGrid(nodes=r, dimension=N), values=v)
