"""Normal-form operator algebra: composition, brackets, conjugations."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from galkappa.errors import BadParameter, DegreeOverflow, MalformedPhase, ShapeError
from galkappa.exactscalar import I, ONE, Scalar, SymbolRegistry
from galkappa import weylop
from galkappa.weylop import (
    DiffOp,
    ScalarDiffOp,
    conjugate_phase,
    conjugate_shift,
)


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


def test_conjugate_phase_shifts_derivatives(reg):
    # theta = m x1: d1 -> d1 + i m, d2 and dt untouched
    theta = reg.symbol("m") * reg.symbol("x1")
    d1 = DiffOp.scalar(d(reg, (1, 0, 0)))
    moved = conjugate_phase(d1, theta)
    expect = DiffOp.scalar(
        ScalarDiffOp(reg, {(1, 0, 0): reg.const(ONE), (0, 0, 0): I * reg.symbol("m")})
    )
    assert moved == expect
    # multiplication operators are untouched
    x_op = DiffOp.scalar(ScalarDiffOp.coeff(reg.symbol("x1")))
    assert conjugate_phase(x_op, theta) == x_op


def test_conjugate_phase_is_homomorphism(reg):
    theta = reg.symbol("m") * (
        reg.symbol("x1") * reg.symbol("x1") + reg.symbol("x2")
    )
    A = DiffOp.scalar(ScalarDiffOp(reg, {(2, 0, 0): reg.const(I), (0, 0, 1): reg.symbol("x1")}))
    B = DiffOp.scalar(ScalarDiffOp(reg, {(0, 1, 0): reg.symbol("x2")}))
    lhs = conjugate_phase(A @ B, theta)
    rhs = conjugate_phase(A, theta) @ conjugate_phase(B, theta)
    assert lhs == rhs


def test_conjugate_phase_rejects_derivative_phase(reg):
    with pytest.raises(MalformedPhase):
        conjugate_phase(DiffOp.scalar(d(reg, (1, 0, 0))), d(reg, (1, 0, 0)))


def test_conjugate_shift_rules(reg):
    v = (reg.symbol("m"), reg.const(Scalar(Fraction(1, 2))))
    # coefficients pick up x -> x + v t; dt picks up v . grad
    x1_op = DiffOp.scalar(ScalarDiffOp.coeff(reg.symbol("x1")))
    moved = conjugate_shift(x1_op, v)
    assert moved == DiffOp.scalar(
        ScalarDiffOp.coeff(reg.symbol("x1") + reg.symbol("m") * reg.symbol("t"))
    )
    dt_op = DiffOp.scalar(d(reg, (0, 0, 1)))
    moved_dt = conjugate_shift(dt_op, v)
    expect = DiffOp.scalar(
        ScalarDiffOp(
            reg,
            {
                (0, 0, 1): reg.const(ONE),
                (1, 0, 0): reg.symbol("m"),
                (0, 1, 0): reg.const(Scalar(Fraction(1, 2))),
            },
        )
    )
    assert moved_dt == expect


def test_conjugate_shift_round_trip(reg):
    v = (reg.symbol("m"), reg.const(Scalar(2)))
    neg_v = (-v[0], -v[1])
    A = DiffOp.scalar(
        ScalarDiffOp(
            reg,
            {(0, 0, 1): reg.const(I), (2, 0, 0): reg.symbol("x2"), (0, 0, 0): reg.symbol("x1")},
        )
    )
    assert conjugate_shift(conjugate_shift(A, v), neg_v) == A


def test_conjugate_shift_rejects_coordinate_velocity(reg):
    with pytest.raises(BadParameter):
        conjugate_shift(
            DiffOp.scalar(d(reg, (1, 0, 0))), (reg.symbol("x1"), reg.const(ONE))
        )


def test_str_rendering(reg):
    op = ScalarDiffOp(reg, {(1, 0, 0): reg.const(-ONE), (0, 0, 0): reg.symbol("m")})
    text = str(op)
    assert "d1" in text and "m" in text
    assert str(ScalarDiffOp.zero(reg)) == "0"


_PHASE_REG = SymbolRegistry(("x1", "x2", "t", "m"), invertible={"m"})
_MULTIPLICATION_OP = ScalarDiffOp.coeff(_PHASE_REG.symbol("m") * _PHASE_REG.symbol("x1"))


@pytest.mark.parametrize("phase", [3, Scalar(1), "m*x1", None, _MULTIPLICATION_OP])
def test_conjugate_phase_rejects_other_phase_types(reg, phase):
    # the phase is a polynomial; even a zero-order operator is refused
    with pytest.raises(MalformedPhase):
        conjugate_phase(DiffOp.scalar(d(reg, (1, 0, 0))), phase)


def per_term_map_terms(A, d_ops, coeff_map):
    """The earlier `_map_terms`: each term composes its own derivative powers."""
    reg = A.registry
    unit = ScalarDiffOp.coeff(reg.const(ONE))
    out_rows = []
    for row in A.rows:
        out_row = []
        for entry in row:
            acc = ScalarDiffOp.zero(reg)
            for midx, coeff in entry._terms.items():
                piece = ScalarDiffOp.coeff(coeff_map(coeff))
                for axis in range(3):
                    power = unit
                    for _ in range(midx[axis]):
                        power = power.compose(d_ops[axis])
                    if midx[axis]:
                        piece = piece.compose(power)
                acc = acc + piece
            out_row.append(acc)
        out_rows.append(out_row)
    return DiffOp(reg, out_rows)


def _random_matrix(rng, reg, dim):
    names = ("x1", "x2", "t", "m")

    def poly():
        total = reg.zero()
        for _ in range(rng.randint(1, 2)):
            mono = reg.const(Scalar(rng.randint(-3, 3), rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 2)):
                mono = mono * reg.symbol(rng.choice(names))
            total = total + mono
        return total

    def op():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            midx = tuple(rng.randint(0, 2) for _ in range(3))
            terms[midx] = terms.get(midx, reg.zero()) + poly()
        return ScalarDiffOp(reg, terms)

    return DiffOp(reg, [[op() for _ in range(dim)] for _ in range(dim)])


@pytest.mark.parametrize("seed", range(12))
def test_conjugations_match_the_per_term_reference(reg, seed):
    rng = random.Random(seed)
    A = _random_matrix(rng, reg, rng.randint(1, 2))
    m, x1, x2, t = (reg.symbol(n) for n in ("m", "x1", "x2", "t"))
    theta = m * (x1 * Scalar(rng.randint(-2, 2)) + x2) + m * m * t * Scalar(Fraction(1, 2))
    v = (m * Scalar(rng.randint(-2, 2)), reg.const(Scalar(Fraction(rng.randint(-3, 3), 2))))
    got = (conjugate_phase(A, theta), conjugate_shift(A, v))
    with mock.patch.object(weylop, "_map_terms", per_term_map_terms):
        want = (conjugate_phase(A, theta), conjugate_shift(A, v))
    assert got == want
    assert [str(e) for op in got for row in op.rows for e in row] == [
        str(e) for op in want for row in op.rows for e in row]
