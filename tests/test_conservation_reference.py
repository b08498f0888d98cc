"""The conservation pipeline against its term-by-term construction.

`worklist_reduce_on_shell`, `per_term_bilinear` and `reference_conservation`
are the earlier `fieldcheck` code, kept here as the reference: the reduction
pops one term at a time and pushes each rewrite back as a polynomial
product, and the current is summed one `FieldPoly` per matrix entry.  The
package now writes the current into one term map and rewrites each factor of
a bilinear once per (component, multi-index); both must give the same
canonical maps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkappa import fieldcheck
from galkappa.errors import RegistryMismatch
from galkappa.exactscalar import PolyExpr, Scalar, SymbolRegistry, accumulate, parse_scalar
from galkappa.fieldcheck import (
    CHI,
    PHI,
    EomRules,
    FieldPoly,
    check_conservation,
    load_current_terms,
    reduce_on_shell,
)
from galkappa.galrealize import make_registry
from test_caches import clear_caches

# -- reference ------------------------------------------------------------------


def worklist_reduce_on_shell(f, rules):
    """One rewrite per popped term, pushed back as a polynomial product.

    The dagger coefficients come from the conjugated equations, written out
    here: chi^dag -> (-i/2m) d1 phi^dag + (-s/2m) d2 phi^dag and
    dt phi^dag -> (-i/2m) laplacian phi^dag.
    """
    reg = f.registry
    chidag_d1 = dtdag = reg.const(Scalar(0, Fraction(-1, 2))).div_symbol("m")
    chidag_d2 = reg.const(Scalar(Fraction(-rules.s, 2))).div_symbol("m")
    work = list(f._terms.items())
    out = {}
    while work:
        (dc, dm, kc, km), coeff = work.pop()
        if kc == CHI:
            work.append(((dc, dm, PHI, (km[0] + 1, km[1], km[2])), coeff * rules.chi_d1))
            work.append(((dc, dm, PHI, (km[0], km[1] + 1, km[2])), coeff * rules.chi_d2))
            continue
        if dc == CHI:
            work.append(((PHI, (dm[0] + 1, dm[1], dm[2]), kc, km), coeff * chidag_d1))
            work.append(((PHI, (dm[0], dm[1] + 1, dm[2]), kc, km), coeff * chidag_d2))
            continue
        if km[2] > 0:
            a, b, t = km
            work.append(((dc, dm, kc, (a + 2, b, t - 1)), coeff * rules.dt))
            work.append(((dc, dm, kc, (a, b + 2, t - 1)), coeff * rules.dt))
            continue
        if dm[2] > 0:
            a, b, t = dm
            work.append(((PHI, (a + 2, b, t - 1), kc, km), coeff * dtdag))
            work.append(((PHI, (a, b + 2, t - 1), kc, km), coeff * dtdag))
            continue
        accumulate(out, (dc, dm, kc, km), coeff)
    return FieldPoly(f.registry, out)


def leibniz_derivative(f, axis):
    """The total derivative, one raised index at a time, through the constructor."""
    coord = ("x1", "x2", "t")[axis]
    out = {}
    for (dc, dm, kc, km), coeff in f._terms.items():
        accumulate(out, (dc, dm, kc, km), coeff.diff(coord))
        dm_up = tuple(a + (1 if k == axis else 0) for k, a in enumerate(dm))
        accumulate(out, (dc, dm_up, kc, km), coeff)
        km_up = tuple(a + (1 if k == axis else 0) for k, a in enumerate(km))
        accumulate(out, (dc, dm, kc, km_up), coeff)
    return FieldPoly(f.registry, out)


def per_term_bilinear(reg, term, i, j, s):
    """One current term as a sum of one FieldPoly per nonzero matrix entry."""
    coeff = parse_scalar(term["coeff"]) * Scalar.of(s ** term.get("spin_power", 0))
    if term.get("eps"):
        coeff = coeff * Scalar.of(fieldcheck._EPS[(i, j)])
    if coeff.is_zero:
        return FieldPoly.zero(reg)
    poly = reg.const(coeff)
    for factor in term.get("factors", ()):
        poly = poly * reg.symbol({"x_i": f"x{i}"}.get(factor, factor))
    matrix = fieldcheck._matrix_value(term["matrix"], j, s)
    grad = term.get("grad")
    e_i = tuple(1 if axis == i - 1 else 0 for axis in range(3))
    dag_midx = e_i if grad == "dagger" else (0, 0, 0)
    ket_midx = e_i if grad == "field" else (0, 0, 0)
    out = FieldPoly.zero(reg)
    for a, dag in enumerate((PHI, CHI)):
        for b, ket in enumerate((PHI, CHI)):
            if not matrix[a][b].is_zero:
                out = out + FieldPoly.term(reg, poly * matrix[a][b], dag, dag_midx, ket, ket_midx)
    return out


def reference_conservation(i, s, variant="corrected", drop=None):
    reg = make_registry()
    data = load_current_terms(variant)
    flux_terms = list(data["terms"]["flux"])
    density_terms = list(data["terms"]["density"])
    if drop is not None:
        section, idx = drop
        del {"flux": flux_terms, "density": density_terms}[section][idx]
    expr = FieldPoly.zero(reg)
    for j in (1, 2):
        flux = FieldPoly.zero(reg)
        for term in flux_terms:
            flux = flux + per_term_bilinear(reg, term, i, j, s)
        expr = expr + leibniz_derivative(flux, j - 1)
    density = FieldPoly.zero(reg)
    for term in density_terms:
        density = density + per_term_bilinear(reg, term, i, None, s)
    expr = expr + leibniz_derivative(density, 2)
    return worklist_reduce_on_shell(expr, EomRules(reg, s))


# -- random bilinears -----------------------------------------------------------

REG = make_registry()

gaussian = st.builds(
    lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3),
)
# exponents of (x1, x2, t) and of the invertible mass
monomial = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                     st.integers(-2, 1))


@st.composite
def polys(draw):
    terms = {}
    for coeff, (e1, e2, et, em) in draw(st.lists(st.tuples(gaussian, monomial),
                                                 min_size=1, max_size=3)):
        key = [0] * len(REG.names)
        for name, e in (("x1", e1), ("x2", e2), ("t", et), ("m", em)):
            key[REG.index(name)] = e
        terms[tuple(key)] = coeff
    return PolyExpr(REG, terms)


midx = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))


@st.composite
def bilinears(draw):
    f = FieldPoly.zero(REG)
    for _ in range(draw(st.integers(1, 4))):
        dag = draw(st.sampled_from((PHI, CHI)))
        ket = draw(st.sampled_from((PHI, CHI)))
        f = f + FieldPoly.term(REG, draw(polys()), dag, draw(midx), ket, draw(midx))
    return f


@settings(max_examples=150, deadline=None)
@given(bilinears(), st.sampled_from((1, -1)))
def test_reduction_matches_the_worklist_reference(f, s):
    rules = EomRules(REG, s)
    got = reduce_on_shell(f, rules)
    want = worklist_reduce_on_shell(f, rules)
    assert got._terms == want._terms
    assert got == want and str(got) == str(want)


def test_reduction_refuses_rules_of_another_registry():
    f = FieldPoly.term(REG, REG.const(1), PHI, (0, 0, 0), PHI, (0, 0, 0))
    other = SymbolRegistry(("m", "t", "x1", "x2"), invertible={"m"})
    with pytest.raises(RegistryMismatch):
        reduce_on_shell(f, EomRules(other, 1))


# -- the conservation check -----------------------------------------------------

DROPS = [None] + [("flux", k) for k in range(4)] + [("density", k) for k in range(3)]


@pytest.mark.parametrize("variant", ["corrected", "literal"])
@pytest.mark.parametrize("drop", DROPS)
@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("i", [1, 2])
def test_conservation_matches_the_reference(i, s, variant, drop):
    got = check_conservation(i, s, variant=variant, drop=drop)
    want = reference_conservation(i, s, variant, drop)
    assert got._terms == want._terms
    assert str(got) == str(want)


def test_conservation_forms_one_polynomial_product(monkeypatch):
    # the rules' (i/2) * (1/m), made once per process; the current, its
    # derivatives and the reduction multiply Scalars on exponent keys,
    # never two polynomials
    clear_caches()
    calls = []
    product = PolyExpr.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(PolyExpr, "__mul__", counting)
    monkeypatch.setattr(PolyExpr, "__rmul__", counting)
    assert check_conservation(1, 1).is_zero
    assert len(calls) == 1
    assert check_conservation(1, 1).is_zero
    assert len(calls) == 1
