"""Shared fixtures: canonical problems and cached constructions (session scope)."""

from __future__ import annotations

import time

import numpy as np
import pytest

import elliptic_lab as el


class Timed:
    """Construction result plus the wall time it took to build."""

    def __init__(self, value, seconds):
        self.value = value
        self.seconds = seconds


@pytest.fixture(scope="session")
def problem_power():
    return el.ProblemSpec(3, el.PowerPhi(-3.0), el.PowerF(1.0), el.Origin())


@pytest.fixture(scope="session")
def closed_form():
    return el.xi_closed_form(3, 1.0, -3.0)


@pytest.fixture(scope="session")
def minimal64(problem_power):
    t0 = time.perf_counter()
    res = el.minimal_solution(problem_power, n_max=64, nodes=2048)
    return Timed(res, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def minimal_deep(problem_power):
    """Deep exhaustion used by the family asymptotics."""
    t0 = time.perf_counter()
    res = el.minimal_solution(problem_power, n_max=4096, nodes=2048)
    return Timed(res, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def family_grid(problem_power, minimal_deep):
    """All nine family members for (a, b) in {0, 1, 0.5}^2."""
    t0 = time.perf_counter()
    members = {}
    for a in (0.0, 1.0, 0.5):
        for b in (0.0, 1.0, 0.5):
            members[(a, b)] = el.family_member(problem_power, a, b,
                                               minimal_deep.value, n_max=4096)
    return Timed(members, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def ball_problem():
    return el.ProblemSpec(3, el.PowerSplitPhi(-1.0, -3.0), el.PowerF(1.0), el.Ball(1.0))


@pytest.fixture(scope="session")
def exterior32(ball_problem):
    t0 = time.perf_counter()
    res = el.exterior_ball_minimal(ball_problem, n_max=32, nodes=2048)
    return Timed(res, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def glued_split():
    """Glued one-point bound for the spliced cubic-decay weight."""
    from elliptic_lab.funcs import supersolution_profile

    phi = el.PowerSplitPhi(-3.0, -3.0)
    f = el.PowerF(1.0)
    problem = el.ProblemSpec(3, phi, f, el.Origin())
    t0 = time.perf_counter()
    outer = supersolution_profile(phi, f, 3, inner_lower=1.0, r_min=1.0, nodes=800)
    kw = el.kelvin_weight(phi, 3, 1.0)
    wprof = supersolution_profile(kw.exact, f, 3, inner_lower=1.0, r_min=1.0, nodes=800)
    inner = el.kelvin_transform(wprof, 3)
    U = el.glue_supersolution(inner, outer, problem)
    return Timed(U, time.perf_counter() - t0)


def sample_profile(fn, r):
    """Profile from an evaluable radial function on log-spaced nodes."""
    r = np.asarray(r, dtype=float)
    grid = el.RadialGrid(nodes=r, dimension=3)
    return el.RadialProfile(grid=grid, values=np.asarray(fn(r), dtype=float))
