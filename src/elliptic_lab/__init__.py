"""Numerical laboratory for singular semilinear elliptic inequalities
-Lap(u) >= phi(dist(x, K)) f(u) outside a compact set K.

Classifies existence against the integral criteria, constructs minimal
solutions, two-parameter families, and glued global supersolutions, and
verifies everything with independent residual and transform audits.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConstructionError,
    DivergenceError,
    DomainError,
    GluingError,
    LabError,
    NonConvergenceError,
    NoSolutionError,
    SolverFault,
    UnsupportedCombinationError,
)
from .funcs import (
    ClosedFormPower,
    FSpec,
    GeneralDecreasingF,
    IterLogPhi,
    PhiSpec,
    PowerF,
    PowerLogPhi,
    PowerPhi,
    PowerSplitPhi,
    TabulatedPhi,
    double_integral_profile,
    supersolution_profile,
    xi_closed_form,
)
from .problem import Ball, Origin, PointSet, ProblemSpec
from .quad import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    ConditionReport,
    ExistencePrediction,
    classify_existence,
    divergence_certificate_boundary,
    integrate_singular,
    integrate_tail,
    lemma_zero_check,
)
from .bvp1d import (
    RadialGrid,
    RadialProfile,
    SolveConfig,
    comparison_check,
    solve_H,
    solve_radial_dirichlet,
)
from .construct import (
    GluedField,
    LadderResult,
    SuperpositionField,
    exterior_ball_minimal,
    family_member,
    glue_supersolution,
    minimal_solution,
    superposition_field,
)
from .analysis import (
    AsymptoticsEstimate,
    ResidualReport,
    asymptotics,
    dim2_ground_state_obstruction,
    kelvin_transform,
    kelvin_weight,
    min_principle_check,
    ratio_bracket,
    residual_field,
    residual_radial,
    sphere_potential_average,
)
