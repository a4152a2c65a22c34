"""Test oracles: independent references that the tests compare the lab against.

None of these is part of the library's interface; they build on its public
pieces (grids, profiles, the flux-stack solver and the Gauss-Legendre panels).
"""

from __future__ import annotations

import math

import numpy as np

import elliptic_lab as el
from elliptic_lab.bvp1d import AUDIT_TOL, flux_stack, solve_on_nodes
from elliptic_lab.quad import _panels


def solve_radial_dirichlet(N, weight, f, interval, boundary, config=None, nodes=1024):
    """Radial Dirichlet problem -(r^{N-1} u')' = r^{N-1} w(r) f(u) on (ra, rb),
    0 < ra < rb, on a geometric grid."""
    grid = el.RadialGrid.geometric(*interval, nodes, N)
    va, vb = boundary
    [interior] = solve_on_nodes(flux_stack([grid.nodes], N, weight), f, [va], [vb],
                                config=config or el.SolveConfig())
    return el.RadialProfile(grid=grid, values=np.concatenate(([va], interior, [vb])))


def comparison_check(u_super, v_sub) -> bool:
    """Nodewise ordering u >= v on a shared grid, within AUDIT_TOL * scale slack.

    The caller is responsible for the defect signs (u on the supersolution
    side, v on the subsolution side, ordered boundary data); this check is the
    conclusion of the comparison argument.
    """
    if u_super.grid.nodes.shape != v_sub.grid.nodes.shape or not np.allclose(
        u_super.grid.nodes, v_sub.grid.nodes, rtol=1e-14, atol=0.0
    ):
        raise el.DomainError("comparison requires a shared grid")
    scale = max(1.0, float(np.max(np.abs(v_sub.values))))
    return bool(np.all(u_super.values >= v_sub.values - AUDIT_TOL * scale))


def sphere_potential_average(N: int, r: float, x_norm: float) -> float:
    """Average of |x - y|^{2-N} over the sphere |y| = r, by polar quadrature.

    Equals max(|x|, r)^{2-N}; the configuration |x| = r is singular and refused.
    """
    if N < 3:
        raise el.DomainError("requires N >= 3")
    if r <= 0 or x_norm <= 0:
        raise el.DomainError("radii must be positive")
    if x_norm == r:
        raise el.DomainError("singular configuration |x| = r")
    edges = np.linspace(0.0, math.pi, 25)

    def sin_pow(theta):
        return np.sin(theta) ** (N - 2)

    def weighted_potential(theta):
        dist2 = x_norm ** 2 + r ** 2 - 2.0 * x_norm * r * np.cos(theta)
        return sin_pow(theta) * dist2 ** ((2.0 - N) / 2.0)

    num, den = (np.sum(_panels(g, edges[:-1], edges[1:])) for g in (weighted_potential, sin_pow))
    return float(num / den)


def ratio_bracket(u, gauge, offset: float, window: tuple[float, float]):
    """Empirical bracket of u(offset + delta) / gauge(delta) at 64 geometric deltas."""
    lo, hi = window
    if not (0 < lo < hi):
        raise el.DomainError("window must satisfy 0 < lo < hi")
    delta = np.geomspace(lo, hi, 64)
    ratios = np.asarray(u(offset + delta)) / np.asarray(gauge(delta))
    return float(np.min(ratios)), float(np.max(ratios)), ratios
