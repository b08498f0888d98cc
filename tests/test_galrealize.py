"""Generator realizations and structure-table verification."""

import io
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkappa import algfile, galrealize, weylop
from galkappa.algfile import load_bundled, loads
from galkappa.cli import main
from galkappa.cocycle import jacobi_check
from galkappa.errors import BadMass, BadParameter, BadRank, BadSpin, NotCentral
from galkappa.exactscalar import I, PolyExpr, Scalar
from galkappa.galrealize import (
    CENTRAL_NAME,
    GENERATOR_NAMES,
    TABLE_CORRECTED,
    GeneratorSet,
    central_scalar,
    extend_lambda,
    extract_kappa,
    kappa_shift,
    make_registry,
    realization_table,
    realize,
    stated_rows,
    verify_structure,
)
from galkappa.weylop import COORDS, ZERO_IDX, DiffOp, ScalarDiffOp


def all_models():
    yield "schrodinger", realize("schrodinger", 1, 1)
    for s in (1, -1):
        yield f"levyleblond s={s}", realize("levyleblond", s, 1)
    for n in (1, 2, 3, 4):
        for s in (1, -1):
            yield f"multispinor N={n} s={s}", realize("multispinor", s, n)


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
    g = realize("levyleblond", 1, 1)
    reg = g.registry
    g2 = extend_lambda(g, reg.symbol("lam"))
    assert extract_kappa(g2).is_zero
    assert verify_structure(g2).overall
    # J actually moved
    assert g2["J"] != g["J"]
    # applying again accumulates
    g3 = extend_lambda(g2, Scalar(Fraction(1, 2)))
    total = reg.symbol("lam") + reg.const(Scalar(Fraction(1, 2)))
    assert g3["J"] == g["J"] + DiffOp.identity(reg, 1, factor=total)


def test_kappa_shift_symbolic_and_round_trip():
    g = realize("schrodinger", 1, 1)
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
    g = realize("levyleblond", -1, 1)
    g2 = kappa_shift(g, Scalar(Fraction(3, 4)))
    assert extract_kappa(g2) == g.registry.const(Scalar(Fraction(-3, 4)))


def test_shift_then_lambda_compose():
    g = realize("multispinor", 1, 2)
    reg = g.registry
    g2 = extend_lambda(kappa_shift(g, reg.symbol("c")), reg.symbol("lam"))
    assert extract_kappa(g2) == -reg.symbol("c")
    assert verify_structure(g2).overall


def test_spin_and_rank_validation():
    with pytest.raises(BadSpin):
        realize("levyleblond", 2, 1)
    with pytest.raises(BadSpin):
        realize("multispinor", 0, 2)
    with pytest.raises(BadRank):
        realize("multispinor", 1, 5)
    with pytest.raises(BadRank):
        realize("multispinor", 1, 0)


def test_extract_kappa_requires_central_bracket():
    g = realize("schrodinger", 1, 1)
    reg = g.registry
    # corrupt K2 so [K1, K2] is a genuine differential operator
    bad_k2 = g["K2"] + DiffOp.scalar(
        ScalarDiffOp.coeff(reg.symbol("x1") * reg.symbol("x2"))
    )
    broken = g.replaced({"K2": bad_k2})
    with pytest.raises(NotCentral):
        extract_kappa(broken)


def test_non_central_boost_bracket_has_no_kappa_and_fails_its_row():
    g = realize("schrodinger", 1, 1)
    reg = g.registry
    # K1 + x2: [K1, K2] gains -i*t, a coordinate term, so no kappa exists
    broken = g.replaced({"K1": g["K1"] + DiffOp.scalar(ScalarDiffOp.coeff(reg.symbol("x2")))})
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
    g = realize("schrodinger", 1, 1)
    reg = g.registry
    zero = ScalarDiffOp.zero(reg)
    doubled = GeneratorSet({name: DiffOp(reg, [[op.entry(0, 0), zero], [zero, op.entry(0, 0)]])
                            for name, op in g.gens.items()})
    rep = verify_structure(doubled, "literal")
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
    g = realize("schrodinger", 1, 1)
    assert central_scalar(g["P1"]) is None
    assert central_scalar(g["M"]) == g.registry.symbol("m")
    zero = DiffOp.zeros(g.registry, 1)
    assert central_scalar(zero) is not None and central_scalar(zero).is_zero


def test_mass_identity_guard():
    g = realize("schrodinger", 1, 1)
    broken = g.replaced({"M": g["P1"]})
    with pytest.raises(BadMass):
        kappa_shift(broken, Scalar(1))


@pytest.mark.parametrize("redefine,what", [(extend_lambda, "lambda"),
                                           (kappa_shift, "shift parameter")])
def test_redefinition_parameter_must_be_coordinate_free(redefine, what):
    g = realize("levyleblond", 1, 1)
    x1, c, t = (g.registry.symbol(name) for name in ("x1", "c", "t"))
    for value in (x1, c + t):
        with pytest.raises(BadParameter, match=f"^{what} must be coordinate-free$"):
            redefine(g, value)
    with pytest.raises(BadMass):  # the mass generator is checked first
        redefine(g.replaced({"M": g["P1"]}), x1)


def _reference_rows(khp_nonzero):
    """The realize table as (lhs, rhs, expected), transcribed independently of the files."""
    i = I
    return [
        ("P1", "P2", {}),
        ("P1", "H", {}),
        ("P2", "H", {}),
        ("J", "P1", {"P2": i}),
        ("J", "P2", {"P1": -i}),
        ("J", "H", {}),
        ("J", "K1", {"K2": i}),
        ("J", "K2", {"K1": -i}),
        ("K1", "H", {"P1": i} if khp_nonzero else {}),
        ("K2", "H", {"P2": i} if khp_nonzero else {}),
        ("K1", "K2", {CENTRAL_NAME: i}),
        ("K1", "P1", {"M": i}),
        ("K1", "P2", {}),
        ("K2", "P1", {}),
        ("K2", "P2", {"M": i}),
        ("P1", "M", {}),
        ("P2", "M", {}),
        ("H", "M", {}),
        ("J", "M", {}),
        ("K1", "M", {}),
        ("K2", "M", {}),
    ]


def _stated_rows(spec):
    names = spec.names
    return [(names[a], names[b], {names[k]: c for k, c in spec.bracket(a, b).items()})
            for a, b in spec.stated]


@pytest.mark.parametrize("name,khp_nonzero", [("corrected", True), ("literal", False)])
def test_bundled_tables_match_reference_rows(name, khp_nonzero):
    spec = realization_table(name)
    assert spec.names == GENERATOR_NAMES + (CENTRAL_NAME,)
    assert _stated_rows(spec) == _reference_rows(khp_nonzero)


def test_tables_are_lie_algebras():
    for name in ("corrected", "literal"):
        res = jacobi_check(realization_table(name))
        assert res.ok, res.triple


def test_corrupted_table_fails_jacobi():
    text = (resources.files("galkappa.data") / "planar_galilei_central.alg").read_text()
    assert text.count("[J, P1] = i*P2\n") == 1
    bad = loads(text.replace("[J, P1] = i*P2\n", "[J, P1] = i*P1\n"))
    res = jacobi_check(bad)
    assert not res.ok
    assert (res.triple, res.residual) == (("P1", "J", "K1"), {"M": Scalar(-1)})
    g = realize("schrodinger", 1, 1)
    with pytest.raises(ValueError):  # only the bundled tables are accepted, by name
        verify_structure(g, bad)


def test_literal_table_rows_fail_against_realizations():
    rep = verify_structure(realize("levyleblond", 1, 1), "literal")
    assert not rep.overall
    failing = {(r.lhs, r.rhs) for r in rep.failing_rows()}
    assert failing == {("K1", "H"), ("K2", "H")}
    for r in rep.failing_rows():
        assert r.note  # the report explains the variant explicitly
    # the literal table's note sits on exactly its two boost-time rows
    assert {(r.lhs, r.rhs) for r in rep.rows if r.note} == {("K1", "H"), ("K2", "H")}
    assert not any(r.note for r in verify_structure(realize("levyleblond", 1, 1)).rows)


def test_unknown_table_name_is_rejected():
    assert verify_structure(realize("schrodinger", 1, 1), "corrected").table == "corrected"
    assert verify_structure(realize("schrodinger", 1, 1), "literal").table == "literal"
    with pytest.raises(ValueError):
        realization_table("imagined")
    with pytest.raises(ValueError):
        verify_structure(realize("schrodinger", 1, 1), "imagined")


def test_realization_table_is_loaded_once(monkeypatch):
    read = []

    def counting_load(name):
        read.append(name)
        return load_bundled(name)

    for module in (algfile, galrealize):
        monkeypatch.setattr(module, "load_bundled", counting_load)
    galrealize.stated_rows.cache_clear()
    commands = (["realize", "schrodinger"], ["numcheck", "--nmax", "6", "--low", "2"])
    with redirect_stdout(io.StringIO()):
        for _ in range(2):  # the second realize and numcheck read no .alg file
            for argv in commands:
                assert main(argv) == 0, argv
    assert read == [galrealize._TABLE_FILES["corrected"]]
    for name in ("corrected", "literal"):
        assert galrealize.stated_rows(name) is galrealize.stated_rows(name)
    for _ in range(2):  # a rejected name is never cached as rows
        with pytest.raises(ValueError):
            galrealize.stated_rows("imagined")


def test_boost_time_bracket_is_momentum():
    g = realize("schrodinger", 1, 1)
    assert g["K1"].commutator(g["H"]) == g["P1"].scale(I)
    assert g["K2"].commutator(g["H"]) == g["P2"].scale(I)


def test_generator_set_accessors():
    g = realize("schrodinger", 1, 1)
    assert g.dim == 1
    with pytest.raises(KeyError):
        g["Q"]


def test_one_verify_structure_takes_few_derivatives_and_degrees(monkeypatch):
    # work counts, not timings: the bracket kernel differentiates monomials in
    # closed form, so no polynomial derivative is taken, and each operand reads
    # its guard extent off its monomials once, with no `max_degree` call
    # (a kernel that took both again on every call needed 140 and 97 here)
    g = realize("multispinor", 1, 3)
    reg = g.registry
    g = extend_lambda(kappa_shift(g, reg.symbol("c")), reg.symbol("lam"))
    counts = Counter()

    def counted(name):
        original = getattr(PolyExpr, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(PolyExpr, name, wrapper)

    counted("diff")
    counted("max_degree")
    report = verify_structure(g)
    assert report.overall and len(report.rows) == 21
    assert counts["diff"] == 0
    assert counts["max_degree"] <= 15


def _doubled(g, M=None):
    """The one-component set as a 2x2 diagonal set, with M replaced if given."""
    reg = g.registry
    zero = ScalarDiffOp.zero(reg)
    gens = {name: DiffOp(reg, [[op.entry(0, 0), zero], [zero, op.entry(0, 0)]])
            for name, op in g.gens.items()}
    if M is not None:
        gens["M"] = DiffOp(reg, M)
    return GeneratorSet(gens)


def test_mass_guard_accepts_a_multi_component_set():
    g = realize("schrodinger", 1, 1)
    reg = g.registry
    shifted = kappa_shift(_doubled(g), Scalar(3))
    assert extract_kappa(shifted) == reg.const(Scalar(-3))  # kappa = -c, as for one component
    assert verify_structure(shifted).overall
    assert extend_lambda(_doubled(g), Scalar(1))["J"] == _doubled(g)["J"] + DiffOp.identity(reg, 2)


@pytest.mark.parametrize("case", ["unequal diagonal", "off-diagonal entry", "coordinate factor"])
def test_mass_guard_rejects_a_multi_component_mass(case):
    g = realize("schrodinger", 1, 1)
    reg = g.registry
    m, zero = reg.symbol("m"), reg.zero()
    M = {
        "unequal diagonal": [[m, zero], [zero, m * Scalar(2)]],
        "off-diagonal entry": [[m, reg.const(Scalar(1))], [zero, m]],
        "coordinate factor": [[m + reg.symbol("x1"), zero], [zero, m + reg.symbol("x1")]],
    }[case]
    broken = _doubled(g, M)
    with pytest.raises(BadMass):
        kappa_shift(broken, Scalar(1))
    with pytest.raises(BadMass):
        extend_lambda(broken, Scalar(1))


# every valid (model, s, N); the spinless model is built once, at s = 1, N = 1
SPIN_CASES = ([("schrodinger", 1, 1)] + [("levyleblond", s, 1) for s in (1, -1)]
              + [("multispinor", s, n) for n in (1, 2, 3, 4) for s in (1, -1)])


@pytest.mark.parametrize("model,s,n", SPIN_CASES)
def test_spin_enters_only_the_constant_in_j(model, s, n):
    g0, g = realize("schrodinger", 1, 1), realize(model, s, n)
    for name in ("P1", "P2", "H", "K1", "K2", "M"):
        assert g[name] == g0[name], name
    c = {"schrodinger": 0, "levyleblond": Fraction(s, 2), "multispinor": Fraction(n * s, 2)}[model]
    reg = g.registry
    assert g["J"] - g0["J"] == DiffOp.identity(reg, 1, factor=reg.const(Scalar(c)))


def test_spinless_model_ignores_spin_and_rank():
    g0 = realize("schrodinger", 1, 1)
    for s in (1, -1):
        for n in (1, 2, 3, 4):
            assert realize("schrodinger", s, n).gens == g0.gens


def _central_scalar_reference(op):
    """q when op == q*Id with q coordinate-free, read entry by entry; otherwise None."""
    diag = None
    for r in range(op.dim):
        for c in range(op.dim):
            entry = op.entry(r, c)
            if r != c:
                if not entry.is_zero:
                    return None
                continue
            if any(midx != (0, 0, 0) for midx, _ in entry.items()):
                return None
            q = entry.coefficient((0, 0, 0))
            if diag is None:
                diag = q
            elif not (diag - q).is_zero:
                return None
    return None if diag.uses_symbols(COORDS) else diag


REG = make_registry()
_m, _x1, _x2, _t = (REG.symbol(n) for n in ("m", "x1", "x2", "t"))
_CONSTANTS = [REG.zero(), _m, REG.const(Scalar(2)), REG.const(I), REG.symbol("c") * REG.symbol("lam"),
              _m + REG.const(Scalar(Fraction(1, 2)))]
_MONOMIALS = [_x1, _x2 * _t, _m * _x1, _t]
_polys = st.sampled_from(_CONSTANTS + _MONOMIALS)
_entries = st.one_of(
    _polys.map(ScalarDiffOp.coeff),
    st.tuples(_polys, st.sampled_from([REG.const(Scalar(1)), _m, _x2]),
              st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)])).map(
        lambda a: ScalarDiffOp(REG, {ZERO_IDX: a[0], a[2]: a[1]})),
)


@st.composite
def _square_ops(draw):
    n = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):  # an entry times Id, perhaps with one entry replaced
        q, zero = draw(_entries), ScalarDiffOp.zero(REG)
        rows = [[q if r == c else zero for c in range(n)] for r in range(n)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_entries)
    else:
        rows = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    return DiffOp(REG, rows)


@settings(max_examples=300, deadline=None)
@given(_square_ops())
def test_central_scalar_matches_entrywise_reading(op):
    assert central_scalar(op) == _central_scalar_reference(op)


def test_central_scalar_rejects_a_derivative_on_the_diagonal():
    entry = ScalarDiffOp(REG, {ZERO_IDX: _m, (1, 0, 0): REG.const(Scalar(1))})  # m + d1
    zero = ScalarDiffOp.zero(REG)
    for op in (DiffOp(REG, [[entry]]), DiffOp(REG, [[entry, zero], [zero, entry]])):
        assert central_scalar(op) is None
        assert _central_scalar_reference(op) is None


def _shifted_multispinor():
    reg = make_registry()
    g = realize("multispinor", 1, 3)
    return kappa_shift(extend_lambda(g, reg.symbol("lam")), reg.symbol("c"))


def test_a_realize_command_computes_each_of_the_21_brackets_once(monkeypatch):
    calls = []
    real = DiffOp.commutator
    monkeypatch.setattr(DiffOp, "commutator", lambda A, B: calls.append((A, B)) or real(A, B))
    monkeypatch.delenv("GALKAPPA_REPORT_DIR", raising=False)
    with redirect_stdout(io.StringIO()):
        assert main(["realize", "multispinor", "--rank=3", "--shift=c", "--lambda=lam"]) == 0
    assert len(calls) == len(stated_rows(TABLE_CORRECTED)) == 21


def test_derivative_lists_are_formed_once_per_operand(monkeypatch):
    g = _shifted_multispinor()
    formed = []
    real = weylop._cross_derivatives
    monkeypatch.setattr(weylop, "_cross_derivatives",
                        lambda pairs, alpha, *rest: formed.append((id(pairs), alpha, rest[1]))
                        or real(pairs, alpha, *rest))
    first = verify_structure(g)
    # each (term of a right operand, left multi-index, sign) at most once
    assert len(formed) == len(set(formed))
    count = len(formed)
    second = verify_structure(g)
    assert len(formed) == count  # every list is read from its operand
    assert [r.to_dict() for r in second.rows] == [r.to_dict() for r in first.rows]
    assert second.overall and second.kappa == -g.registry.symbol("c")


def test_a_structure_report_keeps_its_values_and_texts_together():
    g = _shifted_multispinor()
    rep = verify_structure(g)
    c, m = g.registry.symbol("c"), g.registry.symbol("m")
    assert (rep.kappa, rep.kappa_text, rep.mass, rep.mass_text) == (-c, "-c", m, "m")
    for name in ("kappa", "mass", "kappa_text", "mass_text"):
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
    assert rep.to_dict()["kappa"] == "-c" and rep.to_dict()["mass"] == "m"
