"""Numerical workbench for geodesic zeta functions of hyperbolic
3-manifold data: length-spectrum ingestion and enumeration, twisted
class-sum evaluation, trace-side diagnostics, and meromorphic
continuation from eigenvalue data.

A public name loads its module on first use (PEP 562), so importing the
package, or one of its modules, loads no other module.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "continuation": (
        "continued_super_logderiv", "continued_sym_logderiv", "log_zeta_by_path",
        "partial_fraction_weights", "residue_at", "singularity_catalog", "super_tail_log",
        "super_winding",
    ),
    "enumerator": (
        "EnumerationConfig", "GroupPresentation", "complex_length", "enumerate_spectrum",
        "parse_group_presentation", "primitive_decomposition",
    ),
    "errors": (
        "AtSingularity", "CaseAError", "ConvergenceRegionError", "DegenerateShifts",
        "InvariantViolation", "MissingVolume", "NoConvergence", "NotLoxodromic",
        "ParityViolation", "PathThroughSingularity", "QuadratureFailure", "SchemaError",
        "UnknownSymbol", "WorkbenchError",
    ),
    "reps": (
        "GammaRep", "PlancherelPoly", "ad_nbar_det", "character_chi", "character_sigma",
        "check_weight", "parse_gamma_rep", "plancherel",
    ),
    "spectra": (
        "ClassColumns", "DiracSpectrum", "EigenvalueSpectrum", "LaplaceSpectrum", "LengthSpectrum",
        "SingularityRecord", "TruncatedValue", "parse_eigenvalue_spectrum",
        "parse_length_spectrum", "serialize_eigenvalue_spectrum", "serialize_length_spectrum",
        "square_spectrum", "super_multiplicity", "wrap_angle",
    ),
    "traces": (
        "dirac_geometric_side", "dirac_spectral_side", "heat_geometric_side",
        "heat_spectral_side", "identity_term_dirac", "identity_term_heat",
    ),
    "verify": (
        "class_term_t_integral", "fourier_gaussian_check", "laplace_kernel_check",
        "ruelle_factorization_check", "run_all", "run_suite",
    ),
    "zeta": (
        "ZetaRequest", "convergence_abscissa", "log_derivative_super",
        "log_derivative_symmetrized", "log_zeta",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
