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


class CompactSet:
    """Protocol of the compact sets K: one class per kind.  ``delta_radial(r)``
    is the distance to K along a ray from the origin (DomainError where K has
    none).  ``solid`` is True for a set with interior, whose existence
    criterion is the plain first moment; the others give ``delta(x)`` =
    dist(x, K) at the rows of x.  ``dimension`` is the N that a set's points
    fix, or None.
    """

    solid = False
    dimension = None


@dataclass(frozen=True)
class Origin(CompactSet):
    """The single point at the origin."""

    def delta(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return center_distance(x, np.zeros(x.shape[1]))

    def delta_radial(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(r, dtype=float)


@dataclass(frozen=True)
class Ball(CompactSet):
    """Closed ball of the given radius centered at the origin."""

    radius: float
    solid = True

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")

    def delta_radial(self, r: np.ndarray) -> np.ndarray:
        d = np.asarray(r, dtype=float) - self.radius
        if np.any(d <= 0):
            raise DomainError("radial distance defined outside the ball only")
        return d


@dataclass(frozen=True)
class PointSet(CompactSet):
    """A finite set of pairwise distinct points."""

    centers: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        centers = tuple(tuple(float(c) for c in pt) for pt in self.centers)
        object.__setattr__(self, "centers", centers)
        if len({len(pt) for pt in centers}) > 1:
            raise DomainError("all centers must share one dimension")
        check_centers(self.as_array())

    @property
    def dimension(self) -> int:
        return len(self.centers[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.centers, dtype=float)

    def delta(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d = np.full(x.shape[0], np.inf)
        for a in self.as_array():
            np.minimum(d, center_distance(x, a), out=d)
        return d

    def delta_radial(self, r: np.ndarray) -> np.ndarray:
        raise DomainError("point sets have no radial distance function")


@dataclass(frozen=True)
class ProblemSpec:
    """Dimension N, weight phi, nonlinearity f, and compact set K."""

    N: int
    phi: object
    f: object
    K: CompactSet

    def __post_init__(self):
        if self.N < 2:
            raise DomainError("dimension must be >= 2")
        if not isinstance(self.K, CompactSet):
            raise DomainError("K must be Origin, Ball, or PointSet")
        if self.K.dimension not in (None, self.N):
            raise DomainError("point-set centers must live in dimension N")

    def residual(self, neg_lap: np.ndarray, delta: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Defect of -Lap(u) >= phi(delta) f(u), normalized by the equation scale:
        (neg_lap - phi(delta) f(u)) / max(1, phi(delta) f(u))."""
        rhs = self.phi(delta) * self.f(u)
        return (neg_lap - rhs) / np.maximum(1.0, rhs)
