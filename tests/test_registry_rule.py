"""One registry rule: operands over two symbol registries raise RegistryMismatch.

`TermMap._coerce` states the rule once; polynomials, scalar and matrix
operators, field bilinears, the phase and shift conjugations and the
realize parameters all check their operands through it.  A matrix of the
wrong dimension is a ShapeError instead.
"""

import pytest

from galkappa.errors import RegistryMismatch, ShapeError
from galkappa.exactscalar import SymbolRegistry
from galkappa.fieldcheck import PHI, FieldPoly
from galkappa.galrealize import (
    REALIZE_SYMBOLS, extend_lambda, kappa_shift, make_registry, realize)
from galkappa.weylop import DiffOp, ScalarDiffOp, conjugate_phase, conjugate_shift

REG = make_registry()
# the same names with m not invertible: a different registry
OTHER = SymbolRegistry(REALIZE_SYMBOLS)
D1, OTHER_D1 = (ScalarDiffOp.deriv(reg, (1, 0, 0)) for reg in (REG, OTHER))


def _bilinear(reg):
    return FieldPoly.term(reg, reg.const(1), PHI, (0, 0, 0), PHI, (1, 0, 0))


MIXES = {
    "PolyExpr +": lambda: REG.symbol("x1") + OTHER.symbol("x1"),
    "ScalarDiffOp +": lambda: D1 + OTHER_D1,
    "ScalarDiffOp compose": lambda: D1.compose(OTHER_D1),
    "ScalarDiffOp bracket": lambda: D1.bracket(OTHER_D1),
    "FieldPoly +": lambda: _bilinear(REG) + _bilinear(OTHER),
    "DiffOp entry": lambda: DiffOp(REG, [[OTHER_D1]]),
    "DiffOp +": lambda: DiffOp.identity(REG, 2) + DiffOp.identity(OTHER, 2),
    "DiffOp @": lambda: DiffOp.identity(REG, 2) @ DiffOp.identity(OTHER, 2),
    "conjugate_phase": lambda: conjugate_phase(DiffOp.scalar(D1), OTHER.symbol("x1")),
    "conjugate_shift": lambda: conjugate_shift(DiffOp.scalar(D1),
                                               (OTHER.symbol("v1"), REG.symbol("v2"))),
    "extend_lambda": lambda: extend_lambda(realize("schrodinger", 1, 1), OTHER.symbol("lam")),
    "kappa_shift": lambda: kappa_shift(realize("schrodinger", 1, 1), OTHER.symbol("c")),
}


@pytest.mark.parametrize("mix", list(MIXES))
def test_mixing_two_registries_raises_registry_mismatch(mix):
    with pytest.raises(RegistryMismatch):
        MIXES[mix]()


@pytest.mark.parametrize("combine", [DiffOp.__add__, DiffOp.__sub__, DiffOp.__matmul__,
                                     DiffOp.commutator])
def test_mismatched_dimensions_raise_shape_error(combine):
    with pytest.raises(ShapeError):
        combine(DiffOp.identity(REG, 2), DiffOp.identity(REG, 3))
