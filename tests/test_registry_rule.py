"""One registry rule: operands over two symbol registries raise RegistryMismatch.

`TermMap._coerce` states the rule once; polynomials, scalar and matrix
operators, field bilinears, the boost velocity and the realize parameters
all check their operands through it.  A matrix of the wrong dimension is a
ShapeError instead, and an operand or matrix entry of a foreign type a
TypeError that names its type.
"""

from fractions import Fraction

import pytest

from galkappa.errors import RegistryMismatch, ShapeError
from galkappa.exactscalar import Scalar, SymbolRegistry
from galkappa.fieldcheck import PHI, FieldPoly, boost_transform, build_wave_operator
from galkappa.galrealize import (
    REALIZE_SYMBOLS, extend_lambda, kappa_shift, make_registry, realize)
from galkappa.weylop import DiffOp, ScalarDiffOp

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
    "zero ScalarDiffOp.scale": lambda: ScalarDiffOp.zero(REG).scale(OTHER.symbol("c")),
    "zero DiffOp.scale": lambda: DiffOp.zeros(REG, 2).scale(OTHER.symbol("c")),
    "boost_transform": lambda: boost_transform(build_wave_operator(REG, 1), 1,
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


# each operand of a foreign type: an int, a number, or a term map of another kind
FOREIGN = {
    "ScalarDiffOp + 1": lambda: D1 + 1,
    "1 + ScalarDiffOp": lambda: 1 + D1,
    "ScalarDiffOp - 1": lambda: D1 - 1,
    "1 - ScalarDiffOp": lambda: 1 - D1,
    "sum of ScalarDiffOp": lambda: sum([D1]),
    "FieldPoly + 0": lambda: FieldPoly.zero(REG) + 0,
    "ScalarDiffOp + PolyExpr": lambda: D1 + REG.symbol("x1"),
    "PolyExpr + ScalarDiffOp": lambda: REG.symbol("x1") + D1,
    "PolyExpr * ScalarDiffOp": lambda: REG.symbol("x1") * D1,
    "PolyExpr + str": lambda: REG.symbol("x1") + "x1",
    "DiffOp + 1": lambda: DiffOp.identity(REG, 2) + 1,
    "1 - DiffOp": lambda: 1 - DiffOp.identity(REG, 2),
    "DiffOp @ ScalarDiffOp": lambda: DiffOp.identity(REG, 1) @ D1,
    "DiffOp.commutator(1)": lambda: DiffOp.identity(REG, 2).commutator(1),
    "DiffOp entry int": lambda: DiffOp(REG, [[1]]),
    "DiffOp entry Scalar": lambda: DiffOp(REG, [[Scalar(1)]]),
    "DiffOp.identity factor Scalar": lambda: DiffOp.identity(REG, 2, factor=Scalar(1)),
}


@pytest.mark.parametrize("mix", list(FOREIGN))
def test_an_operand_of_a_foreign_type_raises_type_error(mix):
    with pytest.raises(TypeError):
        FOREIGN[mix]()


@pytest.mark.parametrize("entry", [1, Fraction(1, 2), Scalar(1), "x1"])
def test_a_matrix_entry_of_a_foreign_type_is_named(entry):
    name = type(entry).__name__
    with pytest.raises(TypeError, match=f"not {name}$"):
        DiffOp(REG, [[REG.zero(), REG.zero()], [REG.zero(), entry]])
    with pytest.raises(TypeError, match=f"not {name}$"):
        DiffOp.identity(REG, 3, factor=entry)


@pytest.mark.parametrize("number", [2, Fraction(1, 2), Scalar(0, 1)])
def test_polynomials_still_lift_numbers(number):
    x1 = REG.symbol("x1")
    const = REG.const(number)
    assert x1 + number == number + x1 == x1 + const
    assert x1 - number == x1 - const and number - x1 == const - x1
    assert x1 * number == number * x1 == x1 * const
