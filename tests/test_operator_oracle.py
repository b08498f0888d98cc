"""The operator kernel against plain references, and PolyExpr's ring axioms.

`ref_mul`, `ref_diff` and `ref_compose` are the polynomial product,
derivative and Leibniz composition the package used before results were
built with the trusted `_make` and before `compose` and `bracket` ran
on the monomials of the coefficients.  They build every result
through the public constructors, so they also re-check every invariant.
The current kernel must give the identical term maps (same keys, same
coefficients, same insertion order), hashes and strings; the bracket, which
forms only the cross terms of the two products, must give the same keys,
coefficients, hashes and strings in any insertion order.  The random
operators stay inside the degree guards; the cases past them are explicit.
"""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkappa.errors import DegreeOverflow, RegistryMismatch
from galkappa.exactscalar import ONE, PolyExpr, Scalar, SymbolRegistry, accumulate
from galkappa.weylop import MAX_COEFF_DEGREE, MAX_DERIV_ORDER, DiffOp, ScalarDiffOp

REG = SymbolRegistry(("x1", "x2", "t", "c", "m"), invertible={"m"})
SYMBOLS = REG.names


# -- references ----------------------------------------------------------------


def ref_add(p: PolyExpr, q: PolyExpr) -> PolyExpr:
    terms = dict(p._terms)
    for key, coeff in q._terms.items():
        accumulate(terms, key, coeff)
    return PolyExpr(p.registry, terms)


def ref_mul(p: PolyExpr, q: PolyExpr) -> PolyExpr:
    terms = {}
    for k1, c1 in p._terms.items():
        for k2, c2 in q._terms.items():
            accumulate(terms, tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
    return PolyExpr(p.registry, terms)


def ref_diff(p: PolyExpr, name: str) -> PolyExpr:
    idx = p.registry.index(name)
    terms = {}
    for key, coeff in p._terms.items():
        e = key[idx]
        if e == 0:
            continue
        new_key = tuple(v - 1 if j == idx else v for j, v in enumerate(key))
        accumulate(terms, new_key, coeff * Scalar.of(e))
    return PolyExpr(p.registry, terms)


def _ref_accumulate(terms: dict, key, poly: PolyExpr) -> None:
    old = terms.get(key)
    total = poly if old is None else ref_add(old, poly)
    if total.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = total


def ref_compose(A: ScalarDiffOp, B: ScalarDiffOp) -> ScalarDiffOp:
    reg = A.registry
    terms = {}
    for alpha, f in A._terms.items():
        for beta, g in B._terms.items():
            for g1 in range(alpha[0] + 1):
                for g2 in range(alpha[1] + 1):
                    for gt in range(alpha[2] + 1):
                        dg = g
                        for _ in range(g1):
                            dg = ref_diff(dg, "x1")
                        for _ in range(g2):
                            dg = ref_diff(dg, "x2")
                        for _ in range(gt):
                            dg = ref_diff(dg, "t")
                        if dg.is_zero:
                            continue
                        w = (math.comb(alpha[0], g1) * math.comb(alpha[1], g2)
                             * math.comb(alpha[2], gt))
                        midx = (alpha[0] - g1 + beta[0], alpha[1] - g2 + beta[1],
                                alpha[2] - gt + beta[2])
                        _ref_accumulate(terms, midx,
                                        ref_mul(ref_mul(f, dg), reg.const(Scalar.of(w))))
    return ScalarDiffOp(reg, terms)


def ref_op_add(A: ScalarDiffOp, B: ScalarDiffOp) -> ScalarDiffOp:
    terms = dict(A._terms)
    for key, coeff in B._terms.items():
        _ref_accumulate(terms, key, coeff)
    return ScalarDiffOp(A.registry, terms)


def ref_matmul(A: DiffOp, B: DiffOp) -> DiffOp:
    n = A.dim
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = ScalarDiffOp.zero(A.registry)
            for k in range(n):
                acc = ref_op_add(acc, ref_compose(A.rows[r][k], B.rows[k][c]))
            row.append(acc)
        rows.append(row)
    return DiffOp(A.registry, rows)


# -- strategies ----------------------------------------------------------------

# Drawing from fixed pools keeps generation cheap next to the arithmetic.
# Coefficients: nonzero Gaussian rationals with parts in [-2, 2], denominators 1..3.
_PARTS = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)
                 if abs(Fraction(n, d)) <= 2})
gaussian = st.sampled_from([Scalar(a, b) for a in _PARTS for b in _PARTS if a or b])
# Exponents of c, m, t, x1, x2 (the registry's sorted order): only m may be
# negative, and the coordinate degree stays within half the coefficient guard.
_MONOMIALS = [
    key for key in itertools.product(range(2), range(-1, 2), range(3), range(3), range(3))
    if sum(key[2:]) <= MAX_COEFF_DEGREE // 2
]
monomials = st.sampled_from(_MONOMIALS)
term_maps = st.dictionaries(monomials, gaussian, max_size=4)
polys = term_maps.map(lambda t: PolyExpr(REG, t))
# Nonzero polynomials in c and m alone, free of the coordinates t, x1, x2.
coordinate_free_polys = st.dictionaries(
    st.sampled_from([key for key in _MONOMIALS if not any(key[2:])]), gaussian,
    min_size=1, max_size=3,
).map(lambda t: PolyExpr(REG, t))
# Derivative orders up to 3, so a product stays within the order guard.
orders = st.sampled_from([
    a for a in itertools.product(range(4), repeat=3) if sum(a) <= MAX_DERIV_ORDER // 2
])
operators = st.dictionaries(
    orders, term_maps.filter(bool).map(lambda t: PolyExpr(REG, t)), min_size=1, max_size=3
).map(lambda t: ScalarDiffOp(REG, t))


# An entry is the zero operator about half the time, so the matrices have
# missing entries, zero rows and zero diagonal entries.
entries = st.one_of(st.just(ScalarDiffOp.zero(REG)), operators)


@st.composite
def operator_matrices(draw):
    dim = draw(st.integers(1, 4))
    return tuple(DiffOp(REG, [[draw(entries) for _ in range(dim)] for _ in range(dim)])
                 for _ in range(2))


def _same(got, want, ordered=True) -> None:
    assert type(got) is type(want)
    assert got._terms == want._terms
    if ordered:
        assert list(got._terms) == list(want._terms)
    assert hash(got) == hash(want)
    assert str(got) == str(want)


def _same_operator(got: ScalarDiffOp, want: ScalarDiffOp, ordered=True) -> None:
    _same(got, want, ordered)
    for midx, coeff in got._terms.items():
        _same(coeff, want._terms[midx], ordered)


# -- the kernel against the references ------------------------------------------


@settings(max_examples=150, deadline=None)
@given(polys, polys, st.sampled_from(SYMBOLS))
def test_poly_product_and_derivative_match_reference(p, q, name):
    _same(p * q, ref_mul(p, q))
    _same(p.diff(name), ref_diff(p, name))
    _same(p + q, ref_add(p, q))


@settings(max_examples=100, deadline=None)
@given(operators, operators)
def test_compose_matches_reference(A, B):
    _same_operator(A.compose(B), ref_compose(A, B))
    # the bracket forms only the cross terms, so its terms are met in another
    # order than in the two full products; the content must be the same
    _same_operator(A.bracket(B), ref_op_add(ref_compose(A, B), -ref_compose(B, A)),
                   ordered=False)


@settings(max_examples=40, deadline=None)
@given(operator_matrices())
def test_diffop_product_matches_reference(pair):
    A, B = pair
    got, want = A @ B, ref_matmul(A, B)
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    for got_row, want_row in zip(got.rows, want.rows):
        for got_entry, want_entry in zip(got_row, want_row):
            _same_operator(got_entry, want_entry)


def test_compose_adds_each_leibniz_product_whole():
    # (1 + (c + m) d1) o (c x1 - m x1 + c m): at d^0 the product (c + m) * (c - m)
    # adds -c m and then +c m; summed whole it leaves the c m term of 1 * g
    # where it is, where two single additions would move it to the end
    c, m, x1 = REG.symbol("c"), REG.symbol("m"), REG.symbol("x1")
    A = ScalarDiffOp(REG, {(0, 0, 0): REG.const(ONE), (1, 0, 0): c + m})
    B = ScalarDiffOp.coeff(c * x1 - m * x1 + c * m)
    got = A.compose(B)
    _same_operator(got, ref_compose(A, B))
    assert list(got.coefficient((0, 0, 0))._terms) == list((B.coefficient((0, 0, 0))
                                                           + c * c - m * m)._terms)


def test_compose_result_over_the_coefficient_guard_raises():
    x1, x2 = REG.symbol("x1"), REG.symbol("x2")
    A = ScalarDiffOp.coeff(x1 ** 5)
    B = ScalarDiffOp.coeff(x2 ** (MAX_COEFF_DEGREE - 4))
    with pytest.raises(DegreeOverflow):
        A.compose(B)
    with pytest.raises(DegreeOverflow):
        DiffOp.scalar(A) @ DiffOp.scalar(B)


def test_compose_result_over_the_order_guard_raises():
    A = ScalarDiffOp.deriv(REG, (3, 1, 0), REG.symbol("x2"))
    B = ScalarDiffOp.deriv(REG, (0, MAX_DERIV_ORDER - 3, 0))
    with pytest.raises(DegreeOverflow):
        A.compose(B)
    with pytest.raises(DegreeOverflow):
        DiffOp.scalar(A).commutator(DiffOp.scalar(B))


def test_binomial_weights_of_a_higher_order_leibniz_term():
    # d1^3 (x1^3 .) = x1^3 d1^3 + 9 x1^2 d1^2 + 18 x1 d1 + 6
    x1 = REG.symbol("x1")
    got = ScalarDiffOp.deriv(REG, (3, 0, 0)).compose(ScalarDiffOp.coeff(x1 ** 3))
    assert got == ScalarDiffOp(REG, {(3, 0, 0): x1 ** 3, (2, 0, 0): x1 * x1 * 9,
                                     (1, 0, 0): x1 * 18, (0, 0, 0): REG.const(6)})


# -- ring axioms -----------------------------------------------------------------


def _canonical(p: PolyExpr) -> None:
    """A result equals what the public constructor builds from its terms."""
    public = PolyExpr(p.registry, p._terms)
    assert public._terms == p._terms and hash(public) == hash(p)


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_axioms(p, q, r):
    zero, one = REG.zero(), REG.const(ONE)
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert (p + (-p)).is_zero and (p - p).is_zero
    for result in (p + q, -p, p - q, p * q, p * (q + r)):
        _canonical(result)


@settings(max_examples=150, deadline=None)
@given(polys, polys, st.sampled_from(SYMBOLS))
def test_poly_derivative_obeys_leibniz(p, q, name):
    assert (p * q).diff(name) == p.diff(name) * q + p * q.diff(name)
    assert (p + q).diff(name) == p.diff(name) + q.diff(name)
    _canonical(p.diff(name))


@settings(max_examples=100, deadline=None)
@given(operators, operators)
def test_operator_sums_and_negations_are_canonical(A, B):
    for result in (A + B, -A, A - B):
        public = ScalarDiffOp(REG, result._terms)
        assert public._terms == result._terms and hash(public) == hash(result)


# -- a right operand reused across calls -----------------------------------------


def _reach(A: ScalarDiffOp):
    return tuple(map(max, zip(*A._terms)))


def _fresh(B: ScalarDiffOp) -> ScalarDiffOp:
    return ScalarDiffOp(B.registry, dict(B._terms))


@settings(max_examples=60, deadline=None)
@given(operators, st.lists(operators, min_size=1, max_size=3))
def test_a_reused_right_operand_matches_a_fresh_one(B, lefts):
    # per-axis orders rise and then fall, so B's monomials, listed once,
    # are read by a multiplication operator and by left operands of every reach
    lefts = sorted(lefts + [ScalarDiffOp.coeff(REG.symbol("c")),
                            ScalarDiffOp.deriv(REG, (1, 1, 1))], key=lambda A: sum(_reach(A)))
    memo = B._monomials()
    for A in lefts + lefts[::-1]:
        _same_operator(A.compose(B), ref_compose(A, _fresh(B)))
        fresh = _fresh(B)
        _same_operator(A.bracket(B), ref_op_add(ref_compose(A, fresh), -ref_compose(fresh, A)),
                       ordered=False)
    # never listed again: each term of each coefficient, and the reach of each
    # coefficient in x1, x2, t
    assert B._mono is memo
    coords = [REG.index(name) for name in ("x1", "x2", "t")]
    assert [(beta, reach, pairs) for beta, _, reach, _, pairs in memo] == [
        (beta, tuple(max(key[i] for key in g._terms) for i in coords),
         [(key, c._abd) for key, c in g._terms.items()]) for beta, g in B._terms.items()]


# -- results built without the constructor's checks -------------------------------


def _constructor_scale(A: ScalarDiffOp, factor) -> ScalarDiffOp:
    """A.scale(factor) with every coefficient checked by the constructor."""
    if not isinstance(factor, PolyExpr):
        factor = REG.const(Scalar.of(factor))
    return ScalarDiffOp(REG, {midx: factor * c for midx, c in A._terms.items()})


@settings(max_examples=100, deadline=None)
@given(operators, st.one_of(st.integers(-3, 3), gaussian, st.just(REG.zero()),
                            coordinate_free_polys, polys))
def test_scale_matches_the_constructor(A, factor):
    _same_operator(A.scale(factor), _constructor_scale(A, factor))


def test_scale_keeps_the_degree_guard_and_the_registry_check():
    x1 = REG.symbol("x1")
    A = ScalarDiffOp.deriv(REG, (1, 0, 0), x1 ** 5)
    for scaled in (A.scale, DiffOp.scalar(A).scale):
        with pytest.raises(DegreeOverflow):
            scaled(x1 ** (MAX_COEFF_DEGREE - 4))
        # c over a registry where m is not invertible: coordinate-free, but foreign
        with pytest.raises(RegistryMismatch):
            scaled(SymbolRegistry(SYMBOLS).symbol("c"))


@settings(max_examples=30, deadline=None)
@given(operator_matrices(), st.one_of(gaussian, coordinate_free_polys))
def test_matrix_results_equal_the_constructed_ones(pair, factor):
    A, B = pair
    for result in (A.commutator(B), A @ B, A.scale(factor), A + B, A - B):
        public = DiffOp(REG, result.rows)
        assert type(result) is DiffOp and all(type(row) is tuple for row in result.rows)
        assert result == public and hash(result) == hash(public)
        assert str(result) == str(public)


ZERO_TEXTS = {1: "[0]", 2: "[0, 0; 0, 0]", 3: "[0, 0, 0; 0, 0, 0; 0, 0, 0]",
              4: "[0, 0, 0, 0; 0, 0, 0, 0; 0, 0, 0, 0; 0, 0, 0, 0]"}


def test_the_zero_operator_prints_every_entry():
    for n, text in ZERO_TEXTS.items():
        assert str(DiffOp.zeros(REG, n)) == text


@settings(max_examples=30, deadline=None)
@given(operator_matrices())
def test_every_zero_matrix_is_the_zero_operator(pair):
    A, _ = pair
    n, zero = A.dim, ScalarDiffOp.zero(REG)
    want = DiffOp.zeros(REG, n)
    for got in (DiffOp(REG, [[zero] * n] * n), DiffOp(REG, [[REG.zero()] * n] * n), A - A,
                A.scale(0), A.scale(REG.zero())):
        assert got == want and hash(got) == hash(want) and str(got) == ZERO_TEXTS[n]
        assert got.is_zero and got.dim == n
    for r, row in enumerate(A.rows):
        for c, entry in enumerate(row):
            assert A.entry(r, c) == entry and want.entry(r, c) == zero
    assert A.entry(-1, -1) == A.rows[-1][-1]  # negative indices count from the end, as in rows
    for r, c in ((n, 0), (0, n), (n, n), (-n - 1, 0), (0, -n - 1)):
        with pytest.raises(IndexError):
            A.entry(r, c)


@settings(max_examples=40, deadline=None)
@given(operators, operators)
def test_a_filled_memo_leaves_equality_hash_and_pickling_alone(A, B):
    before = (hash(A), repr(A), pickle.dumps(A))
    A.bracket(B)
    B.compose(A)
    assert hasattr(A, "_ext") and hasattr(A, "_mono")
    assert (hash(A), repr(A), pickle.dumps(A)) == before
    assert A == _fresh(A) and _fresh(A) == A
    for twin in (pickle.loads(before[2]), copy.deepcopy(A)):
        assert not hasattr(twin, "_mono") and not hasattr(twin, "_ext")
        assert twin == A and hash(twin) == hash(A) and repr(twin) == repr(A)
        _same_operator(twin.bracket(B), A.bracket(B))
        _same_operator(B.compose(twin), B.compose(A))
