"""DPG methods for 2D linear elasticity with strongly symmetric stresses."""

from .assembly import build_dof_layout, dirichlet_values, solve_condensed
from .rankone import solve_second
from .study import (StudyConfig, make_benchmark, observed_rate,
                    run_convergence_study)

__all__ = [
    "build_dof_layout",
    "dirichlet_values",
    "solve_condensed",
    "solve_second",
    "StudyConfig",
    "make_benchmark",
    "observed_rate",
    "run_convergence_study",
]
