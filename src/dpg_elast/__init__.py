"""DPG methods for 2D linear elasticity with strongly symmetric stresses."""

from .assembly import (build_dof_layout, dirichlet_values, error_indicators,
                       eval_element_fields, solve_condensed)
from .material import (Material, apply_compliance, apply_stiffness,
                       lam_from_nu, make_isotropic)
from .mesh import (DegreeMap, Mesh, build_initial_mesh, refine_marked,
                   refine_uniform)
from .rankone import solve_second, solve_second_method
from .study import (ReportRow, StudyConfig, greedy_mark, hp_decide,
                    make_benchmark, observed_rate, run_convergence_study)

__all__ = [
    "Material",
    "make_isotropic",
    "apply_compliance",
    "apply_stiffness",
    "lam_from_nu",
    "Mesh",
    "DegreeMap",
    "build_initial_mesh",
    "refine_marked",
    "refine_uniform",
    "build_dof_layout",
    "dirichlet_values",
    "solve_condensed",
    "error_indicators",
    "eval_element_fields",
    "solve_second",
    "solve_second_method",
    "StudyConfig",
    "ReportRow",
    "make_benchmark",
    "greedy_mark",
    "hp_decide",
    "observed_rate",
    "run_convergence_study",
]
