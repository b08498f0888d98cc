"""Generator realizations and structure-table verification."""

from fractions import Fraction

import pytest

from galkappa.cocycle import jacobi_check
from galkappa.errors import BadMass, BadRank, BadSpin, GalkappaError, NotCentral
from galkappa.exactscalar import I, Scalar
from galkappa.galrealize import (
    GENERATOR_NAMES,
    GeneratorSet,
    StructureTable,
    TableRow,
    central_scalar,
    default_table,
    extend_lambda,
    extract_kappa,
    get_table,
    kappa_shift,
    literal_table,
    make_registry,
    realize_levyleblond,
    realize_multispinor,
    realize_schrodinger,
    verify_structure,
)
from galkappa.weylop import DiffOp, ScalarDiffOp, bracket


def all_models():
    yield "schrodinger", realize_schrodinger()
    for s in (1, -1):
        yield f"levyleblond s={s}", realize_levyleblond(s=s)
    for n in (1, 2, 3, 4):
        for s in (1, -1):
            yield f"multispinor N={n} s={s}", realize_multispinor(s=s, N=n)


@pytest.mark.parametrize("label,g", list(all_models()), ids=lambda v: v if isinstance(v, str) else "")
def test_kappa_vanishes(label, g):
    assert extract_kappa(g).is_zero


@pytest.mark.parametrize("label,g", list(all_models()), ids=lambda v: v if isinstance(v, str) else "")
def test_structure_table_all_rows(label, g):
    rep = verify_structure(g)
    assert rep.overall, [r.to_dict() for r in rep.failing_rows()]
    reg = g.registry
    assert rep.mass is not None and (rep.mass - reg.symbol("m")).is_zero
    assert rep.kappa is not None and rep.kappa.is_zero


def test_lambda_extension_preserves_everything():
    g = realize_levyleblond(s=1)
    reg = g.registry
    g2 = extend_lambda(g, reg.symbol("lam"))
    assert extract_kappa(g2).is_zero
    assert verify_structure(g2).overall
    # J actually moved
    assert g2["J"] != g["J"]
    # applying again accumulates
    g3 = extend_lambda(g2, Scalar(Fraction(1, 2)))
    assert g3.meta["lam"] == reg.symbol("lam") + reg.const(Scalar(Fraction(1, 2)))


def test_kappa_shift_symbolic_and_round_trip():
    g = realize_schrodinger()
    reg = g.registry
    c = reg.symbol("c")
    g2 = kappa_shift(g, c)
    kappa = extract_kappa(g2)
    assert kappa == -c
    assert verify_structure(g2).overall  # kappa row compares against the extracted value
    g3 = kappa_shift(g2, -c)
    for name in GENERATOR_NAMES:
        assert g3[name] == g[name]


def test_kappa_shift_rational_value():
    g = realize_levyleblond(s=-1)
    g2 = kappa_shift(g, Scalar(Fraction(3, 4)))
    assert extract_kappa(g2) == Scalar(Fraction(-3, 4))


def test_shift_then_lambda_compose():
    g = realize_multispinor(s=1, N=2)
    reg = g.registry
    g2 = extend_lambda(kappa_shift(g, reg.symbol("c")), reg.symbol("lam"))
    assert extract_kappa(g2) == -reg.symbol("c")
    assert verify_structure(g2).overall


def test_spin_and_rank_validation():
    with pytest.raises(BadSpin):
        realize_levyleblond(s=2)
    with pytest.raises(BadSpin):
        realize_multispinor(s=0, N=2)
    with pytest.raises(BadRank):
        realize_multispinor(s=1, N=5)
    with pytest.raises(BadRank):
        realize_multispinor(s=1, N=0)


def test_extract_kappa_requires_central_bracket():
    g = realize_schrodinger()
    reg = g.registry
    # corrupt K2 so [K1, K2] is a genuine differential operator
    bad_k2 = g["K2"] + DiffOp.scalar(
        ScalarDiffOp.coeff(reg.symbol("x1") * reg.symbol("x2"))
    )
    broken = g.replaced({"K2": bad_k2}, {})
    with pytest.raises(NotCentral):
        extract_kappa(broken)


def test_non_central_boost_bracket_has_no_kappa_and_fails_its_row():
    g = realize_schrodinger()
    reg = g.registry
    # K1 + x2: [K1, K2] gains -i*t, a coordinate term, so no kappa exists
    broken = g.replaced({"K1": g["K1"] + DiffOp.scalar(ScalarDiffOp.coeff(reg.symbol("x2")))}, {})
    rep = verify_structure(broken)
    assert rep.kappa is None
    assert rep.mass == reg.symbol("m")
    rows = {(r.lhs, r.rhs): r for r in rep.rows}
    k1k2 = rows[("K1", "K2")]
    assert (k1k2.computed, k1k2.expected, k1k2.residual, k1k2.note, k1k2.passed) == (
        "[-i*t]", "central multiple of Id", "[-i*t]",
        "bracket is not central; no kappa value exists", False)
    # a failing row with an expected term, and one whose expected side is zero
    jk2, k1p2 = rows[("J", "K2")], rows[("K1", "P2")]
    assert (jk2.computed, jk2.expected, jk2.residual, jk2.passed) == (
        "[-i*m*x1 + t*d1]", "[(-i*x2 - i*m*x1) + t*d1]", "[i*x2]", False)
    assert (k1p2.computed, k1p2.expected, k1p2.residual, k1p2.passed) == (
        "[i]", "[0]", "[i]", False)
    # a passing row prints its computed text as expected and a zero residual
    jp1 = rows[("J", "P1")]
    assert (jp1.computed, jp1.expected, jp1.residual, jp1.passed) == ("[d2]", "[d2]", "[0]", True)
    assert {(r.lhs, r.rhs) for r in rep.failing_rows()} == {
        ("J", "K1"), ("J", "K2"), ("K1", "H"), ("K1", "K2"), ("K1", "P2")}


def test_two_component_rows_print_matrix_texts():
    g = realize_schrodinger()
    reg = g.registry
    zero = ScalarDiffOp.zero(reg)
    doubled = GeneratorSet({name: DiffOp(reg, [[op.entry(0, 0), zero], [zero, op.entry(0, 0)]])
                            for name, op in g.gens.items()}, g.meta)
    rep = verify_structure(doubled, literal_table())
    assert rep.kappa.is_zero and rep.mass == reg.symbol("m")
    rows = {(r.lhs, r.rhs): r.to_dict() for r in rep.rows}
    assert rows[("K1", "K2")] == {"pair": "[K1,K2]", "computed": "[0, 0; 0, 0]",
                                  "expected": "[0, 0; 0, 0]", "residual": "[0, 0; 0, 0]",
                                  "passed": True}
    assert rows[("K1", "P1")] == {"pair": "[K1,P1]", "computed": "[i*m, 0; 0, i*m]",
                                  "expected": "[i*m, 0; 0, i*m]",
                                  "residual": "[0, 0; 0, 0]", "passed": True}
    k1h = rows[("K1", "H")]
    assert (k1h["computed"], k1h["expected"], k1h["residual"], k1h["passed"]) == (
        "[d1, 0; 0, d1]", "[0, 0; 0, 0]", "[d1, 0; 0, d1]", False)
    assert k1h["note"].startswith("literal variant pins this bracket to zero")


def test_central_scalar_rejects_non_central():
    g = realize_schrodinger()
    assert central_scalar(g["P1"]) is None
    assert central_scalar(g["M"]) == g.registry.symbol("m")
    zero = DiffOp.zeros(g.registry, 1)
    assert central_scalar(zero) is not None and central_scalar(zero).is_zero


def test_mass_identity_guard():
    g = realize_schrodinger()
    broken = g.replaced({"M": g["P1"]}, {})
    with pytest.raises(BadMass):
        kappa_shift(broken, Scalar(1))


def test_tables_are_lie_algebras():
    for table in (default_table(), literal_table()):
        assert jacobi_check(table.to_liealgebra_spec()).ok


def test_corrupted_table_fails_jacobi():
    rows = [
        TableRow(r.lhs, r.rhs, {"P1": I} if (r.lhs, r.rhs) == ("J", "P1") else r.expected)
        for r in default_table().rows
    ]
    bad = StructureTable("corrupted", rows)
    res = jacobi_check(bad.to_liealgebra_spec())
    assert not res.ok
    g = realize_schrodinger()
    with pytest.raises(GalkappaError):
        verify_structure(g, bad)


def test_literal_table_rows_fail_against_realizations():
    rep = verify_structure(realize_levyleblond(s=1), literal_table())
    assert not rep.overall
    failing = {(r.lhs, r.rhs) for r in rep.failing_rows()}
    assert failing == {("K1", "H"), ("K2", "H")}
    for r in rep.failing_rows():
        assert r.note  # the report explains the variant explicitly


def test_get_table_variants():
    assert get_table("corrected").name == "corrected"
    assert get_table("literal").name == "literal"
    with pytest.raises(ValueError):
        get_table("imagined")


def test_boost_time_bracket_is_momentum():
    g = realize_schrodinger()
    assert bracket(g["K1"], g["H"]) == g["P1"].scale(I)
    assert bracket(g["K2"], g["H"]) == g["P2"].scale(I)


def test_generator_set_accessors():
    g = realize_schrodinger()
    assert g.dim == 1
    with pytest.raises(KeyError):
        g["Q"]
