"""Normal-form operator algebra: composition and brackets."""

import pytest

from galkappa.errors import DegreeOverflow, ShapeError
from galkappa.exactscalar import I, ONE, SymbolRegistry
from galkappa.weylop import DiffOp, ScalarDiffOp


@pytest.fixture
def reg():
    return SymbolRegistry(("x1", "x2", "t", "m"), invertible={"m"})


def d(reg, midx, coeff=None):
    return ScalarDiffOp.deriv(reg, midx, coeff)


def test_canonical_commutation(reg):
    # [d1, x1] = 1 once everything is in normal form
    d1 = d(reg, (1, 0, 0))
    x1 = ScalarDiffOp.coeff(reg.symbol("x1"))
    assert d1.bracket(x1) == ScalarDiffOp.coeff(reg.const(ONE))
    x2 = ScalarDiffOp.coeff(reg.symbol("x2"))
    assert d1.bracket(x2).is_zero


def test_leibniz_higher_order(reg):
    # d1^2 (x1^2 . ) = x1^2 d1^2 + 4 x1 d1 + 2
    d1sq = d(reg, (2, 0, 0))
    x1sq = ScalarDiffOp.coeff(reg.symbol("x1") * reg.symbol("x1"))
    got = d1sq.compose(x1sq)
    x1 = reg.symbol("x1")
    assert got.coefficient((2, 0, 0)) == x1 * x1
    assert got.coefficient((1, 0, 0)) == x1 * 4
    assert got.coefficient((0, 0, 0)) == reg.const(2)


def test_rotation_bracket_with_translation(reg):
    # L = x1 d2 - x2 d1; [L, d1] = -d2 and [L, d2] = d1
    L = ScalarDiffOp(
        reg,
        {(0, 1, 0): reg.symbol("x1"), (1, 0, 0): -reg.symbol("x2")},
    )
    d1, d2 = d(reg, (1, 0, 0)), d(reg, (0, 1, 0))
    assert L.bracket(d1) == -d2
    assert L.bracket(d2) == d1


def test_compose_is_associative_here(reg):
    A = ScalarDiffOp(reg, {(1, 0, 0): reg.symbol("x2"), (0, 0, 0): reg.const(I)})
    B = ScalarDiffOp(reg, {(0, 1, 0): reg.symbol("x1")})
    C = ScalarDiffOp(reg, {(0, 0, 1): reg.symbol("t"), (0, 0, 0): reg.symbol("x1")})
    assert A.compose(B).compose(C) == A.compose(B.compose(C))


def test_degree_guards(reg):
    with pytest.raises(DegreeOverflow):
        ScalarDiffOp.deriv(reg, (4, 3, 0))
    big = reg.symbol("x1") ** 9
    with pytest.raises(DegreeOverflow):
        ScalarDiffOp.coeff(big)


def test_coordinates_must_not_be_invertible():
    # a derivative of x1^-1 raises the coordinate degree, which the exact
    # guard rule for brackets excludes
    for name in ("x1", "x2", "t"):
        laurent = SymbolRegistry(("x1", "x2", "t", "m"), invertible={"m", name})
        with pytest.raises(ValueError, match="must not be invertible"):
            ScalarDiffOp.zero(laurent)


def test_matrix_ops_and_bracket(reg):
    z = ScalarDiffOp.zero(reg)
    d1 = d(reg, (1, 0, 0))
    A = DiffOp(reg, [[d1, z], [z, d1]])
    X = DiffOp.identity(reg, 2, factor=reg.symbol("x1"))
    comm = A.commutator(X)
    assert comm == DiffOp.identity(reg, 2)
    assert A @ X - X @ A == comm
    with pytest.raises(ShapeError):
        A + DiffOp.scalar(d1)


def test_str_rendering(reg):
    op = ScalarDiffOp(reg, {(1, 0, 0): reg.const(-ONE), (0, 0, 0): reg.symbol("m")})
    text = str(op)
    assert "d1" in text and "m" in text
    assert str(ScalarDiffOp.zero(reg)) == "0"
