"""Exact symbolic checks on planar kinematical symmetry.

The package verifies, by canonical-form arithmetic over Gaussian rationals,
the bracket structure of the planar kinematical algebra with its two central
terms, the vanishing of the boost-boost central parameter in the bundled
free-field realizations, covariance and conservation identities of the
two-component wave equation, the collapse of the symmetric rank-N system to
two distinct equations, and (with floating point, as a cross-check only) the
same brackets on a truncated oscillator basis.
"""

__version__ = "0.1.0"

from .cocycle import (
    ExtensionSpace,
    JacobiResult,
    LieAlgebraSpec,
    central_extensions,
    classes_independent,
    is_cocycle,
    jacobi_check,
)
from .exactscalar import I, ONE, ZERO, PolyExpr, Scalar, SymbolRegistry, parse_scalar
from .fieldcheck import (
    EomRules,
    FieldPoly,
    build_wave_operator,
    check_boost_covariance,
    check_conservation,
    check_rotation_covariance,
    multispinor_equations,
    reduce_on_shell,
)
from .galrealize import (
    GeneratorSet,
    central_scalar,
    extend_lambda,
    extract_kappa,
    kappa_shift,
    make_registry,
    realize,
    realization_table,
    realize_levyleblond,
    realize_multispinor,
    realize_schrodinger,
    verify_structure,
)
from .weylop import (
    DiffOp,
    ScalarDiffOp,
    bracket,
    compose,
    conjugate_phase,
    conjugate_shift,
)

__all__ = [
    "__version__",
    "Scalar", "PolyExpr", "SymbolRegistry", "parse_scalar", "ZERO", "ONE", "I",
    "ScalarDiffOp", "DiffOp", "compose", "bracket", "conjugate_phase",
    "conjugate_shift",
    "GeneratorSet", "make_registry", "realize", "realize_schrodinger",
    "realize_levyleblond", "realize_multispinor", "extend_lambda",
    "kappa_shift", "extract_kappa", "central_scalar", "verify_structure",
    "realization_table",
    "LieAlgebraSpec", "JacobiResult", "ExtensionSpace", "jacobi_check",
    "central_extensions", "is_cocycle", "classes_independent",
    "FieldPoly", "EomRules", "reduce_on_shell", "check_conservation",
    "build_wave_operator", "check_boost_covariance",
    "check_rotation_covariance", "multispinor_equations",
    "build_numeric", "residual_report", "run_numeric_check",
    "low_mode_indices", "xp_defect",
]

# The floating-point cross-check is the only user of numpy; its names are
# imported on first use so that the exact commands never load numpy.
_NUMTRUNC_NAMES = ("build_numeric", "residual_report", "run_numeric_check",
                   "low_mode_indices", "xp_defect")


def __getattr__(name):
    if name in _NUMTRUNC_NAMES:
        from . import numtrunc

        return getattr(numtrunc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
