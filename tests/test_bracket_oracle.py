"""The Leibniz bracket against the two full products it replaces.

`ScalarDiffOp.bracket` forms only the derivative cross terms of A o B and
B o A, and `DiffOp.commutator` uses it for the summands with r = k = c.
The reference is the plain difference of the two products from
`test_operator_oracle`, with every result rebuilt through the public
constructors.  The bracket must give the same terms, coefficients, hashes
and strings, and it and `compose` raise `DegreeOverflow` exactly when a
reference product does.  Both build their results without the
constructor's checks, so every result must also be one the constructor
takes unchanged.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from galkappa.errors import DegreeOverflow
from galkappa.exactscalar import PolyExpr, Scalar
from galkappa.weylop import MAX_COEFF_DEGREE, MAX_DERIV_ORDER, DiffOp, ScalarDiffOp
from test_operator_oracle import (
    REG,
    _same,
    _same_operator,
    gaussian,
    operator_matrices,
    operators,
    polys,
    ref_compose,
    ref_matmul,
    ref_op_add,
)


# -- references ----------------------------------------------------------------


def ref_op_neg(A: ScalarDiffOp) -> ScalarDiffOp:
    return ScalarDiffOp(A.registry, {
        midx: PolyExpr(A.registry, {key: -c for key, c in coeff._terms.items()})
        for midx, coeff in A._terms.items()
    })


def ref_bracket(A: ScalarDiffOp, B: ScalarDiffOp) -> ScalarDiffOp:
    return ref_op_add(ref_compose(A, B), ref_op_neg(ref_compose(B, A)))


def ref_commutator(A: DiffOp, B: DiffOp) -> DiffOp:
    ab, ba = ref_matmul(A, B), ref_matmul(B, A)
    return DiffOp(A.registry, [[ref_op_add(x, ref_op_neg(y)) for x, y in zip(r1, r2)]
                               for r1, r2 in zip(ab.rows, ba.rows)])


def _same_matrix(got: DiffOp, want: DiffOp) -> None:
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    for got_row, want_row in zip(got.rows, want.rows):
        for got_entry, want_entry in zip(got_row, want_row):
            _same_operator(got_entry, want_entry, ordered=False)


def _rebuilt(A: DiffOp) -> DiffOp:
    """A rebuilt from its terms through the public constructors."""
    return DiffOp(REG, [[ScalarDiffOp(REG, {midx: PolyExpr(REG, dict(coeff._terms))
                                            for midx, coeff in entry._terms.items()})
                         for entry in row] for row in A.rows])


# -- operators near the degree guards --------------------------------------------

_COEFFS = [Scalar(1), Scalar(-2), Scalar(1, 1), Scalar(0, -1), Scalar(3, 0) / 2]


def _monomial(rng: random.Random, degree: int):
    """Exponents of (c, m, t, x1, x2), the registry's order, with coordinate degree `degree`."""
    t = rng.randint(0, degree)
    x1 = rng.randint(0, degree - t)
    return (rng.randint(0, 1), rng.randint(-1, 1), t, x1, degree - t - x1)


def _multi_index(rng: random.Random, order: int):
    a = rng.randint(0, order)
    b = rng.randint(0, order - a)
    return (a, b, order - a - b)


def near_guard_operator(rng: random.Random, order: int, degree: int) -> ScalarDiffOp:
    """A random operator of exactly this derivative order and coordinate degree."""
    top = {_monomial(rng, degree): rng.choice(_COEFFS)}
    if degree and rng.random() < 0.5:
        top[_monomial(rng, rng.randint(0, degree - 1))] = rng.choice(_COEFFS)
    terms = {_multi_index(rng, order): PolyExpr(REG, top)}
    if order and rng.random() < 0.7:
        lower = {_monomial(rng, rng.randint(0, degree)): rng.choice(_COEFFS)}
        terms.setdefault(_multi_index(rng, rng.randint(0, order - 1)), PolyExpr(REG, lower))
    op = ScalarDiffOp(REG, terms)
    op._monomials()
    assert op._ext == (order, degree)
    return op


def near_guard_extents(rng: random.Random):
    """Extents of A and B whose sums are one below, at or one over each guard.

    The products are over a guard unless both sums are at most the guard,
    so 5 of 9 drawn pairs raise.
    """
    order_a, degree_a = rng.randint(1, MAX_DERIV_ORDER - 1), rng.randint(1, MAX_COEFF_DEGREE - 1)
    order_b = MAX_DERIV_ORDER - order_a + rng.choice((-1, 0, 1))
    degree_b = MAX_COEFF_DEGREE - degree_a + rng.choice((-1, 0, 1))
    return (order_a, degree_a), (order_b, degree_b)


def _assert_canonical(op: ScalarDiffOp) -> None:
    """The public constructor takes op's terms unchanged: no zero, every guard holds."""
    rebuilt = ScalarDiffOp(op.registry, op._terms)
    assert rebuilt == op and list(rebuilt._terms.items()) == list(op._terms.items())


def _outcome(f, *args):
    try:
        return False, f(*args)
    except DegreeOverflow:
        return True, None


def _assert_balanced(raised, total):
    assert total / 3 <= raised <= 2 * total / 3, (raised, total)


def test_bracket_raises_exactly_when_the_products_do():
    rng = random.Random(20020)
    raised = 0
    for _ in range(150):
        (order_a, degree_a), (order_b, degree_b) = near_guard_extents(rng)
        A = near_guard_operator(rng, order_a, degree_a)
        B = near_guard_operator(rng, order_b, degree_b)
        want_raised, want = _outcome(ref_bracket, A, B)
        got_raised, got = _outcome(A.bracket, B)
        assert got_raised == want_raised, (A, B)
        if not got_raised:
            _same_operator(got, want, ordered=False)
            _assert_canonical(got)
        raised += got_raised
    _assert_balanced(raised, 150)


def test_compose_raises_exactly_when_the_reference_does():
    rng = random.Random(20022)
    raised = 0
    for _ in range(150):
        (order_a, degree_a), (order_b, degree_b) = near_guard_extents(rng)
        A = near_guard_operator(rng, order_a, degree_a)
        B = near_guard_operator(rng, order_b, degree_b)
        want_raised, want = _outcome(ref_compose, A, B)
        got_raised, got = _outcome(A.compose, B)
        assert got_raised == want_raised, (A, B)
        if not got_raised:
            _same_operator(got, want)
            _assert_canonical(got)
        raised += got_raised
    _assert_balanced(raised, 150)


def test_commutator_raises_exactly_when_the_products_do():
    rng = random.Random(20021)
    raised = 0
    for trial in range(36):
        dim = trial % 3 + 1
        (order_a, degree_a), (order_b, degree_b) = near_guard_extents(rng)
        A = DiffOp(REG, [[near_guard_operator(rng, order_a, degree_a) for _ in range(dim)]
                         for _ in range(dim)])
        B = DiffOp(REG, [[near_guard_operator(rng, order_b, degree_b) for _ in range(dim)]
                         for _ in range(dim)])
        want_raised, want = _outcome(ref_commutator, A, B)
        got_raised, got = _outcome(A.commutator, B)
        assert got_raised == want_raised, (A, B)
        if not got_raised:
            _same_matrix(got, want)
        raised += got_raised
    _assert_balanced(raised, 36)


# -- random operators inside the guards ------------------------------------------
# (test_operator_oracle checks the scalar bracket against the same reference)


@settings(max_examples=25, deadline=None)
@given(operator_matrices())
def test_commutator_matches_reference(pair):
    A, B = pair
    _same_matrix(A.commutator(B), ref_commutator(A, B))


@settings(max_examples=30, deadline=None)
@given(operators, operators, operator_matrices())
def test_bracket_is_antisymmetric(A, B, pair):
    assert A.bracket(B) == -B.bracket(A)
    for result in (A.bracket(B), B.bracket(A), A.bracket(A)):
        _assert_canonical(result)
    assert A.bracket(A).is_zero
    M, N = pair
    assert M.commutator(N) == -N.commutator(M)
    assert M.commutator(M).is_zero


# Order and coordinate degree at most 2, so nested brackets stay in the guards.
_small_orders = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                 (1, 1, 0), (0, 1, 1), (2, 0, 0), (0, 0, 2)])
_small_monomials = st.tuples(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
                             st.integers(0, 1), st.integers(0, 1)).filter(
                                 lambda key: sum(key[2:]) <= 2)
small_operators = st.dictionaries(
    _small_orders,
    st.dictionaries(_small_monomials, gaussian, min_size=1, max_size=2).map(
        lambda t: PolyExpr(REG, t)),
    max_size=2,
).map(lambda t: ScalarDiffOp(REG, t))


@st.composite
def small_matrices(draw, dim):
    return DiffOp(REG, [[draw(small_operators) for _ in range(dim)] for _ in range(dim)])


def _jacobi(bracket, a, b, c):
    return bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))


@settings(max_examples=60, deadline=None)
@given(small_operators, small_operators, small_operators)
def test_bracket_obeys_jacobi(A, B, C):
    assert _jacobi(ScalarDiffOp.bracket, A, B, C).is_zero
    for X, Y in ((A, B), (B, C), (C, A), (A, B.bracket(C))):
        _assert_canonical(X.bracket(Y))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(*[small_matrices(n)] * 3)))
def test_commutator_obeys_jacobi(triple):
    assert _jacobi(DiffOp.commutator, *triple).is_zero


def test_bracket_with_a_zero_operand_is_zero():
    # a zero operand never raises, even against an operator at both guards
    rng = random.Random(20022)
    A = near_guard_operator(rng, MAX_DERIV_ORDER, MAX_COEFF_DEGREE)
    zero = ScalarDiffOp.zero(REG)
    for got in (A.bracket(zero), zero.bracket(A), zero.bracket(zero)):
        assert got == zero and got._terms == {}
        _assert_canonical(got)
    for dim in (1, 2, 3):
        M = DiffOp(REG, [[near_guard_operator(rng, MAX_DERIV_ORDER, MAX_COEFF_DEGREE)
                          for _ in range(dim)] for _ in range(dim)])
        Z = DiffOp.zeros(REG, dim)
        assert M.commutator(Z) == Z and Z.commutator(M) == Z


# -- canonical forms ----------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(operator_matrices())
def test_commutator_and_difference_are_canonical(pair):
    A, B = pair
    for result in (A.commutator(B), A - B, B - A):
        public = _rebuilt(result)
        assert public == result and hash(public) == hash(result)
        for public_row, row in zip(public.rows, result.rows):
            for public_entry, entry in zip(public_row, row):
                assert public_entry._terms == entry._terms


@settings(max_examples=60, deadline=None)
@given(polys, polys, operator_matrices())
def test_subtraction_is_addition_of_the_negation(p, q, pair):
    # same keys, coefficients and insertion order as before the one-pass form
    _same(p - q, p + (-q))
    A, B = pair
    got, want = A - B, A + (-B)
    assert got == want
    for got_row, want_row in zip(got.rows, want.rows):
        for got_entry, want_entry in zip(got_row, want_row):
            _same_operator(got_entry, want_entry)
