"""Problem descriptors: dimension, weight, nonlinearity, and the compact set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def check_centers(centers: np.ndarray) -> None:
    """Raise DomainError unless the rows of centers are nonempty and pairwise distinct."""
    if centers.size == 0:  # also catches atleast_2d([]), shape (1, 0)
        raise DomainError("at least one center is required")
    for i in range(len(centers)):
        if np.any(center_distance(centers[i + 1:], centers[i]) == 0.0):
            raise DomainError("centers must be pairwise distinct")


def center_distance(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Distance from each row of x to the point a.

    The squares are summed column by column from the left,
    ((x_0 - a_0)^2 + (x_1 - a_1)^2) + ..., which is the order of
    np.linalg.norm(x - a, axis=1) for rows of up to 7 entries (numpy sums
    longer rows pairwise, so from 8 columns on the last bits may differ).
    """
    d = x[:, 0] - a[0]
    d *= d
    for j in range(1, x.shape[1]):
        s = x[:, j] - a[j]
        s *= s
        d += s
    return np.sqrt(d, out=d)


def nearest_center_distance(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distance from each row of x to the nearest row of centers."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = np.full(x.shape[0], np.inf)
    for a in centers:
        np.minimum(d, center_distance(x, a), out=d)
    return d


@dataclass(frozen=True)
class Origin:
    """The single point at the origin."""


@dataclass(frozen=True)
class Ball:
    """Closed ball of the given radius centered at the origin."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")


@dataclass(frozen=True)
class PointSet:
    """A finite set of pairwise distinct points."""

    centers: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        centers = tuple(tuple(float(c) for c in pt) for pt in self.centers)
        object.__setattr__(self, "centers", centers)
        if len({len(pt) for pt in centers}) > 1:
            raise DomainError("all centers must share one dimension")
        check_centers(self.as_array())

    def as_array(self) -> np.ndarray:
        return np.asarray(self.centers, dtype=float)


KSet = Origin | Ball | PointSet


@dataclass(frozen=True)
class ProblemSpec:
    """Dimension N, weight phi, nonlinearity f, and compact set K."""

    N: int
    phi: object
    f: object
    K: KSet

    def __post_init__(self):
        if self.N < 2:
            raise DomainError("dimension must be >= 2")
        if not isinstance(self.K, (Origin, Ball, PointSet)):
            raise DomainError("K must be Origin, Ball, or PointSet")
        if isinstance(self.K, PointSet) and len(self.K.centers[0]) != self.N:
            raise DomainError("point-set centers must live in dimension N")

    def delta_radial(self, r: np.ndarray) -> np.ndarray:
        """Distance to the boundary of K along a ray from the origin."""
        r = np.asarray(r, dtype=float)
        if isinstance(self.K, Origin):
            return r
        if isinstance(self.K, Ball):
            d = r - self.K.radius
            if np.any(d <= 0):
                raise DomainError("radial distance defined outside the ball only")
            return d
        raise DomainError("point sets have no radial distance function")

    def delta_points(self, x: np.ndarray) -> np.ndarray:
        """delta_K at arbitrary points (rows of x) for a point-set K or the origin."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if isinstance(self.K, Origin):
            return center_distance(x, np.zeros(self.N))
        if isinstance(self.K, PointSet):
            return nearest_center_distance(x, self.K.as_array())
        raise DomainError("delta_points supports Origin and PointSet")

    def residual(self, neg_lap: np.ndarray, delta: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Defect of -Lap(u) >= phi(delta) f(u), normalized by the equation scale:
        (neg_lap - phi(delta) f(u)) / max(1, phi(delta) f(u))."""
        rhs = self.phi(delta) * self.f(u)
        return (neg_lap - rhs) / np.maximum(1.0, rhs)
