"""Two-phase periodic solutions of the focusing nonlinear Schroedinger
equation i p_t + p_xx + 2|p|**2 p = 0, built from the elliptic-integral data
of a genus-2 spectral curve, together with independent verification tools.
"""

from .curve import (
    PeriodLattice,
    SolutionParams,
    WaveVectors,
    b_period_errors,
    build_solution_params,
    connector_calibration,
    period_lattice,
    period_matrix,
    reality_check,
    wave_vectors,
)
from .elliptic import (
    CurveParams,
    EllipticConstants,
    curve_integrals,
    legendre_F,
    legendre_K,
    legendre_Pi,
)
from .limits import (
    AsymptoticParams,
    LimitCase,
    asymptotic_constants,
    dn_fit,
    dn_wave_theta,
    jacobi_dn,
    plane_wave_ab,
    plane_wave_cb,
)
from .solution import (
    GridSpec,
    SampledField,
    eval_amp2,
    eval_p,
    eval_p_general,
    sample_grid,
)
from .theta import (
    PeriodMatrix,
    ThetaCharacteristics,
    jacobi_theta,
    riemann_theta2,
    theta_H,
    theta_reduction_check,
)
from .verify import (
    ResidualReport,
    field_residual,
    nls_residual,
    residual_fit_k2,
    split_step_evolve,
    symmetry_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CurveParams",
    "EllipticConstants",
    "curve_integrals",
    "legendre_K",
    "legendre_F",
    "legendre_Pi",
    "PeriodMatrix",
    "ThetaCharacteristics",
    "jacobi_theta",
    "theta_H",
    "riemann_theta2",
    "theta_reduction_check",
    "SolutionParams",
    "WaveVectors",
    "PeriodLattice",
    "build_solution_params",
    "wave_vectors",
    "period_matrix",
    "period_lattice",
    "reality_check",
    "b_period_errors",
    "connector_calibration",
    "GridSpec",
    "SampledField",
    "eval_p",
    "eval_amp2",
    "eval_p_general",
    "sample_grid",
    "LimitCase",
    "AsymptoticParams",
    "plane_wave_cb",
    "plane_wave_ab",
    "dn_wave_theta",
    "dn_fit",
    "jacobi_dn",
    "asymptotic_constants",
    "ResidualReport",
    "field_residual",
    "nls_residual",
    "residual_fit_k2",
    "split_step_evolve",
    "symmetry_suite",
    "__version__",
]
