"""Exact symbolic checks on planar kinematical symmetry.

The package verifies, by canonical-form arithmetic over Gaussian rationals,
the bracket structure of the planar kinematical algebra with its two central
terms, the vanishing of the boost-boost central parameter in the bundled
free-field realizations, covariance and conservation identities of the
two-component wave equation, the collapse of the symmetric rank-N system to
two distinct equations, and (with floating point, as a cross-check only) the
same brackets on a truncated oscillator basis.

``import galkappa`` is lazy: it loads no submodule.  Each public name is
imported from its module on first use (PEP 562), so a caller, and each
command of ``galkappa.cli``, loads only the modules it uses; in particular
only the floating-point cross-check loads numpy.
"""

import os
from importlib import import_module

__version__ = "0.1.0"

# The realization models, declared here so that the command-line table can
# list them without loading `galrealize`, whose MODELS is this same tuple.
MODELS = ("schrodinger", "levyleblond", "multispinor")

# The directory of the bundled algebra files, and their listing, declared
# here so that the command-line help can name them without loading
# `algfile`, whose bundled_names is this same function.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def bundled_names():
    """Names of the algebra files shipped inside the package."""
    return sorted(name[: -len(".alg")] for name in os.listdir(DATA_DIR)
                  if name.endswith(".alg"))

# Each public name and the module that defines it, in the order of __all__.
_MODULE_OF = {
    name: module
    for module, names in (
        ("exactscalar", ("Scalar", "PolyExpr", "SymbolRegistry", "parse_scalar",
                         "ZERO", "ONE", "I")),
        ("weylop", ("ScalarDiffOp", "DiffOp")),
        ("galrealize", ("GeneratorSet", "make_registry", "realize", "extend_lambda",
                        "kappa_shift", "extract_kappa", "central_scalar",
                        "verify_structure", "realization_table")),
        ("cocycle", ("LieAlgebraSpec", "JacobiResult", "ExtensionSpace", "jacobi_check",
                     "central_extensions", "is_cocycle", "classes_independent")),
        ("fieldcheck", ("FieldPoly", "EomRules", "reduce_on_shell", "check_conservation",
                        "conservation_rows", "build_wave_operator", "check_boost_covariance",
                        "check_rotation_covariance", "multispinor_equations")),
        ("numtrunc", ("build_numeric", "residual_report", "run_numeric_check",
                      "low_mode_indices", "xp_defect")),
    )
    for name in names
}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
