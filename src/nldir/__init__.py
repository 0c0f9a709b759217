"""Numerical laboratory for penalized nonlocal Dirichlet energies.

Discretizes energies of the form

    (1/delta^p) double-integral R_delta(|x - y|) |u(x) - u(y)|^p
    + boundary penalty

on midpoint-quadrature meshes, minimizes them, computes constrained
eigenpairs, and runs horizon sweeps (delta -> 0) that measure
convergence of minimizers and spectra to the local p-Laplace Dirichlet
problem and the Dirichlet Laplacian.
"""

__version__ = "0.1.0"

from .errors import (AssemblyError, ConfigError, KernelError, MassFormError,
                     MeshError, MollifierError, NldirError, QuadratureError,
                     SolverError)
from .kernels import (CUBIC, QUARTIC, WENDLAND, KernelSpec,
                      antiderivative_kernel, eval_scaled, kernel_by_id,
                      kernel_mass, minorant_kernel, normalize_w, scaled_mass,
                      sigma_r, tabulated_kernel, validate_kernel)
from .geometry import DomainMesh, NeighborTable, build_mesh, neighbor_pairs
from .assembly import (BoundaryData, EnergyOperator, Field,
                       ManufacturedCase, PenaltySpec, assemble,
                       boundary_data, lp_norm, mollify, w_mass_matrix)
from .minimize import SolveOptions, SolveResult, solve_p_energy, solve_quadratic
from .spectra import (EigenProblem, EigenResult, MassComparison,
                      compare_mass_models, dense_eigen, solve_eigen)
from .study import (CoercivityReport, StudyConfig, StudyReport, SweepRow,
                    coercivity_probe, compare_penalties, manufactured_case,
                    report_csv_text, report_json_dict, run_delta_sweep)

__all__ = [
    "__version__",
    "NldirError", "ConfigError", "KernelError", "QuadratureError",
    "MeshError", "AssemblyError", "SolverError", "MassFormError",
    "MollifierError",
    "KernelSpec", "eval_scaled", "QUARTIC", "CUBIC",
    "WENDLAND", "tabulated_kernel", "minorant_kernel",
    "kernel_by_id", "antiderivative_kernel", "sigma_r", "kernel_mass",
    "scaled_mass", "normalize_w", "validate_kernel",
    "DomainMesh", "NeighborTable", "build_mesh", "neighbor_pairs",
    "Field", "BoundaryData", "PenaltySpec", "EnergyOperator", "assemble",
    "boundary_data", "mollify", "w_mass_matrix", "lp_norm",
    "SolveOptions", "SolveResult", "solve_quadratic", "solve_p_energy",
    "EigenProblem", "EigenResult", "MassComparison", "solve_eigen",
    "dense_eigen", "compare_mass_models",
    "StudyConfig", "StudyReport", "SweepRow", "ManufacturedCase",
    "manufactured_case", "run_delta_sweep", "coercivity_probe",
    "CoercivityReport", "compare_penalties", "report_csv_text",
    "report_json_dict",
]
