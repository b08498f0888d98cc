from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkappa.errors import NotInvertible, RegistryMismatch, ShapeError
from galkappa.exactscalar import (
    I,
    ONE,
    ZERO,
    PolyExpr,
    Scalar,
    SymbolRegistry,
    accumulate,
    parse_scalar,
)
from galkappa.galrealize import make_registry
from galkappa.weylop import DiffOp, ScalarDiffOp


def test_scalar_arithmetic_is_exact():
    a = Scalar(Fraction(1, 3), Fraction(2, 5))
    b = Scalar(Fraction(-1, 3), Fraction(3, 5))
    assert (a + b).re == 0
    assert (a + b).im == 1
    assert a - a == ZERO
    # (1/3 + 2/5 i)(-1/3 + 3/5 i) = -1/9 - 6/25 + (3/15 - 2/15) i
    prod = a * b
    assert prod.re == Fraction(-1, 9) + Fraction(-6, 25)
    assert prod.im == Fraction(1, 15)


def test_scalar_division_and_conjugate():
    z = Scalar(3, 4)
    w = z / z
    assert w == ONE
    assert z.conj() == Scalar(3, -4)
    assert (I * I) == Scalar(-1)
    with pytest.raises(ZeroDivisionError):
        z / ZERO


@pytest.mark.parametrize("parts", [("1/2",), (0.5,), (1, "2"), ("1.5",), ("1e3",),
                                   ("\u0661/2",), (0.1,), (1, 0.5), (None,), (1j,)])
def test_scalar_takes_only_ints_and_fractions(parts):
    with pytest.raises(TypeError):
        Scalar(*parts)


def test_scalar_mixed_operands():
    assert Scalar(2) * 3 == Scalar(6)
    assert 3 * Scalar(2) == Scalar(6)
    assert Scalar(2) + Fraction(1, 2) == Scalar(Fraction(5, 2))
    assert 1 - Scalar(0, 1) == Scalar(1, -1)


@pytest.mark.parametrize(
    "text,expect",
    [
        ("3", Scalar(3)),
        ("-1/2", Scalar(Fraction(-1, 2))),
        ("i", I),
        ("-i", Scalar(0, -1)),
        ("2*i", Scalar(0, 2)),
        ("3/4*i", Scalar(0, Fraction(3, 4))),
        ("+5", Scalar(5)),
    ],
)
def test_parse_scalar(text, expect):
    assert parse_scalar(text) == expect


@pytest.mark.parametrize("bad", ["", "x", "1/0", "2i", "1+i", "--3", "1/2/3"])
def test_parse_scalar_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_scalar_str():
    assert str(Scalar(Fraction(-1, 2))) == "-1/2"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(1, -1)) == "1-i"
    assert str(ZERO) == "0"


@pytest.fixture
def reg():
    return SymbolRegistry(("x", "y", "m"), invertible={"m"})


def test_registry_sorts_and_validates(reg):
    assert reg.names == ("m", "x", "y")
    assert reg.is_invertible("m") and not reg.is_invertible("x")
    with pytest.raises(ValueError):
        SymbolRegistry(("a", "a"))
    with pytest.raises(ValueError):
        SymbolRegistry(("a",), invertible={"b"})


def test_poly_basic_arithmetic(reg):
    x, y = reg.symbol("x"), reg.symbol("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero
    q = (x + 1) ** 3
    assert q.coefficient((0, 2, 0)) == Scalar(3)  # 3 x^2 term
    assert q.constant_term() == ONE


def test_poly_zero_terms_are_dropped(reg):
    x = reg.symbol("x")
    p = x + (-x)
    assert p.is_zero
    assert not p._terms


def test_laurent_only_for_invertible(reg):
    m = reg.symbol("m", power=-2)
    assert m.coefficient((-2, 0, 0)) == ONE
    with pytest.raises(NotInvertible):
        reg.symbol("x", power=-1)
    p = reg.symbol("x") * reg.const(Fraction(1, 2))
    with pytest.raises(NotInvertible):
        p.div_symbol("x")
    assert p.div_symbol("m").coefficient((-1, 1, 0)) == Scalar(Fraction(1, 2))


def test_symbol_matches_the_checked_constructor():
    from galkappa.galrealize import REALIZE_SYMBOLS, make_registry

    reg = make_registry()
    width = len(reg.names)
    for name in REALIZE_SYMBOLS:
        for power in range(-2, 4):
            if power < 0 and not reg.is_invertible(name):
                with pytest.raises(NotInvertible):
                    reg.symbol(name, power)
                continue
            key = tuple(power if k == reg.index(name) else 0 for k in range(width))
            want = PolyExpr(reg, {key: ONE})
            got = reg.symbol(name, power)
            assert type(got) is PolyExpr
            assert got == want and hash(got) == hash(want) and str(got) == str(want)
    with pytest.raises(KeyError):
        reg.symbol("z")


def test_registry_mismatch_raises(reg):
    other = SymbolRegistry(("x", "y", "m"))  # same names, different flags
    with pytest.raises(RegistryMismatch):
        reg.symbol("x") + other.symbol("x")


def test_registry_equality_by_identity_and_by_value(reg):
    assert reg == reg
    assert reg == SymbolRegistry(("m", "y", "x"), invertible={"m"})
    assert reg != SymbolRegistry(("x", "y", "m"))
    assert reg != SymbolRegistry(("x", "y", "n"), invertible={"n"})
    assert reg != ("m", "x", "y")
    # equal but distinct registries still mix
    twin = SymbolRegistry(("x", "y", "m"), invertible={"m"})
    assert reg.symbol("x") + twin.symbol("x") == reg.symbol("x") * 2


def _pairwise_product(p, q):
    """The product by the pairwise loop, accumulating every term pair."""
    terms = {}
    for k1, c1 in p._terms.items():
        for k2, c2 in q._terms.items():
            accumulate(terms, tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
    return terms


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_term_products_match_the_pairwise_loop(data):
    reg = SymbolRegistry(("x", "y", "m"), invertible={"m"})
    gaussian = st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
                         st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
    key = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2))
    polys = st.dictionaries(key, gaussian, max_size=4).map(lambda t: PolyExpr(reg, t))
    one_term = st.builds(lambda k, c: PolyExpr(reg, {k: c}), key, gaussian)
    p = data.draw(polys)
    for q in (data.draw(one_term), data.draw(polys)):
        for left, right in ((p, q), (q, p)):
            want = _pairwise_product(left, right)
            got = left * right
            # same terms in the same insertion order
            assert list(got._terms.items()) == list(want.items())
    c = data.draw(gaussian)
    assert list((p * c)._terms.items()) == list(_pairwise_product(p, reg.const(c)).items())


def test_poly_diff(reg):
    x, y = reg.symbol("x"), reg.symbol("y")
    p = x * x * y + x * Scalar(2)
    assert p.diff("x") == x * y * 2 + 2
    assert p.diff("y") == x * x


def test_poly_evaluate(reg):
    x = reg.symbol("x")
    p = x * I + 1
    val = p.evaluate({"x": 2.0, "y": 0.0, "m": 1.0})
    assert val == 1 + 2j
    with pytest.raises(KeyError):
        (x * x).evaluate({"y": 1.0})


def test_poly_canonical_order_and_str(reg):
    x, y, m = reg.symbol("x"), reg.symbol("y"), reg.symbol("m")
    p = y + x * x + m
    keys = [k for k, _ in p.items()]
    assert keys == sorted(keys, key=lambda k: (sum(k), k))
    assert str(reg.symbol("m") * Scalar(Fraction(-1, 2), 0)) == "-1/2*m"
    assert str(reg.zero()) == "0"


def test_equal_values_hash_equally():
    # a polynomial or operator equals only its own type, so no pair below is
    # equal without an equal hash, and a number never finds a polynomial key
    reg = make_registry()
    values = [Scalar(1, 1), reg.const(Scalar(1, 1)), reg.symbol("x1"), reg.symbol("m")]
    for q in (0, 1, 2, Fraction(1, 2), Fraction(-3, 4)):
        op = ScalarDiffOp.coeff(reg.const(q))
        values += [q, Fraction(q), Scalar(q), reg.const(q), op, DiffOp.scalar(op)]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert reg.const(2) != 2
    assert reg.zero() != 0
    assert reg.const(2) not in {2: "two"}


def test_square_matrix_shape_checks():
    reg = SymbolRegistry(("x1", "x2", "t"))  # DiffOp entries are operators in x1, x2, t
    with pytest.raises(ShapeError):
        DiffOp(reg, [[reg.const(1), reg.const(2)]])
    for empty in (lambda: DiffOp(reg, []), lambda: DiffOp.identity(reg, 0),
                  lambda: DiffOp.zeros(reg, 0), lambda: DiffOp.identity(reg, -2)):
        with pytest.raises(ShapeError):
            empty()
    m2 = DiffOp.identity(reg, 2)
    m3 = DiffOp.identity(reg, 3)
    with pytest.raises(ShapeError):
        m2 + m3
