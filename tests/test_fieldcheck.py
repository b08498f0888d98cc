"""Field-level identities: conservation, covariance, multispinor reduction."""

from fractions import Fraction

import pytest

from galkappa import fieldcheck, report
from galkappa.cli import main
from galkappa.errors import (
    BadParameter, BadRank, BadSpin, CovarianceFailure, RedundancyClaimFailure)
from galkappa.exactscalar import Scalar, SymbolRegistry
from galkappa.fieldcheck import (
    CHI,
    PHI,
    EomRules,
    FieldPoly,
    boost_transform,
    build_wave_operator,
    check_boost_covariance,
    check_conservation,
    check_rotation_covariance,
    load_current_terms,
    momentum_registry,
    multispinor_equations,
    reduce_on_shell,
    rotation_generator,
    solve_constant_matrix,
)
from galkappa.galrealize import make_registry
from galkappa.weylop import DiffOp, ScalarDiffOp
from test_caches import clear_caches


@pytest.fixture
def reg():
    return make_registry()


# -- on-shell reduction -------------------------------------------------------


def test_reduction_eliminates_chi_and_time(reg):
    rules = EomRules(reg, 1)
    f = FieldPoly.term(reg, reg.const(1), CHI, (0, 0, 1), CHI, (1, 0, 2))
    red = reduce_on_shell(f, rules)
    for (dc, dm, kc, km), _ in red.items():
        assert dc == PHI and kc == PHI
        assert dm[2] == 0 and km[2] == 0


def test_reduction_is_idempotent(reg):
    rules = EomRules(reg, -1)
    f = (
        FieldPoly.term(reg, reg.symbol("x1"), PHI, (0, 0, 0), CHI, (0, 1, 0))
        + FieldPoly.term(reg, reg.const(Scalar(0, 1)), CHI, (0, 0, 1), PHI, (0, 0, 0))
    )
    once = reduce_on_shell(f, rules)
    twice = reduce_on_shell(once, rules)
    assert once == twice


def test_reduction_matches_eom_direct(reg):
    # chi reduces to (i/2m) d1 phi - (s/2m) d2 phi
    rules = EomRules(reg, 1)
    f = FieldPoly.term(reg, reg.const(1), PHI, (0, 0, 0), CHI, (0, 0, 0))
    red = reduce_on_shell(f, rules)
    half_i = reg.const(Scalar(0, Fraction(1, 2))).div_symbol("m")
    half_s = reg.const(Scalar(Fraction(1, 2))).div_symbol("m")
    expect = FieldPoly.term(reg, half_i, PHI, (0, 0, 0), PHI, (1, 0, 0)) + FieldPoly.term(
        reg, -half_s, PHI, (0, 0, 0), PHI, (0, 1, 0)
    )
    assert red == expect


# -- conservation law ---------------------------------------------------------


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("s", [1, -1])
def test_conservation_closes(i, s):
    assert check_conservation(i, s).is_zero


def test_conservation_literal_variant_fails():
    resid = check_conservation(1, 1, variant="literal")
    assert not resid.is_zero


@pytest.mark.parametrize("section,count", [("flux", 4), ("density", 3)])
def test_conservation_sensitive_to_each_term(section, count):
    data = load_current_terms()
    assert len(data["terms"][section]) == count
    for idx in range(count):
        resid = check_conservation(1, 1, drop=(section, idx))
        assert not resid.is_zero, f"deleting {section}[{idx}] went unnoticed"


def test_conservation_input_validation():
    with pytest.raises(ValueError):
        check_conservation(3, 1)
    with pytest.raises(BadSpin):
        check_conservation(1, 2)
    with pytest.raises(ValueError):
        check_conservation(1, 1, variant="imagined")


# one command's rows share a registry and one on-shell table per spin; each
# row must still equal a fresh single-row check


@pytest.mark.parametrize("variant", ["corrected", "literal"])
@pytest.mark.parametrize("indices,spins", [((1, 2), (1, -1)), ((2,), (-1,)), ((1,), (1,)),
                                           ((2, 1), (-1, 1))])
def test_shared_rows_equal_fresh_checks(variant, indices, spins):
    rows = fieldcheck.conservation_rows(indices, spins, variant)
    assert [(i, s) for i, s, _ in rows] == [(i, s) for i in indices for s in spins]
    for i, s, resid in rows:
        fresh = check_conservation(i, s, variant=variant)
        assert resid._terms == fresh._terms
        assert str(resid) == str(fresh)


def _run_conservation(monkeypatch, tmp_path, *flags):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    return main(["fieldcheck", "conservation", *flags])


def test_one_command_makes_one_registry(monkeypatch, tmp_path, capsys):
    # the registry is made on the process's first command and kept for the rest
    clear_caches()
    made = []
    init = SymbolRegistry.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SymbolRegistry, "__init__", counting)
    assert _run_conservation(monkeypatch, tmp_path) == 0
    assert "index 2, spin -1): pass" in capsys.readouterr().out
    assert len(made) == 1
    assert _run_conservation(monkeypatch, tmp_path) == 0
    assert len(made) == 1


@pytest.mark.parametrize("flags", [(), ("--variant", "literal")])
def test_one_command_forms_each_image_once(monkeypatch, tmp_path, capsys, flags):
    # an image is identified by its table (one per spin), its component and
    # its multi-index; the dagger image is the conjugate of the plain one and
    # is formed with it.  The tables last for the process, so a second
    # command forms none.
    clear_caches()
    formed = []
    side_image = fieldcheck._side_image

    def counting(rules, comp, midx):
        if (comp, midx) not in rules._images:
            formed.append((id(rules._images), comp, midx))
        return side_image(rules, comp, midx)

    monkeypatch.setattr(fieldcheck, "_side_image", counting)
    _run_conservation(monkeypatch, tmp_path, *flags)
    capsys.readouterr()
    assert len(formed) == len(set(formed))
    # one table per spin, 19 factor images in each
    assert len({table for table, _, _ in formed}) == 2
    assert len(formed) == 38
    _run_conservation(monkeypatch, tmp_path, *flags)
    capsys.readouterr()
    assert len(formed) == 38


def test_drop_names_a_bad_section_or_index():
    with pytest.raises(ValueError, match=r"drop index 4 is outside flux's -4\.\.3"):
        check_conservation(1, 1, drop=("flux", 4))
    with pytest.raises(ValueError, match=r"drop index -4 is outside density's -3\.\.2"):
        check_conservation(1, 1, drop=("density", -4))
    with pytest.raises(ValueError, match=r"drop index '0' is outside flux's -4\.\.3"):
        check_conservation(1, 1, drop=("flux", "0"))
    with pytest.raises(ValueError, match=r"drop section must be 'flux' or 'density', not 'bogus'"):
        check_conservation(1, 1, drop=("bogus", 0))
    # a negative index counts from the end, as in `del list[idx]`
    assert check_conservation(1, 1, drop=("flux", -1)) == check_conservation(
        1, 1, drop=("flux", 3))


# -- covariance ----------------------------------------------------------------


def test_wave_operator_shape(reg):
    G = build_wave_operator(reg, 1)
    assert G.dim == 2
    # E entry is i dt; mass entry is 2m
    assert G.entry(0, 0).coefficient((0, 0, 1)) == reg.const(Scalar(0, 1))
    assert G.entry(1, 1).coefficient((0, 0, 0)) == reg.symbol("m") * 2


@pytest.mark.parametrize("s", [1, -1])
def test_boost_covariance_solves(s):
    res = check_boost_covariance(s)
    lam = res.lam
    reg = lam[0][0].registry
    v1, v2 = reg.symbol("v1"), reg.symbol("v2")
    half = Scalar(Fraction(1, 2))
    # frozen closed form: [[1, (v1 - i s v2)/2], [(v1 + i s v2)/2, 1 + v^2/4]]
    assert lam[0][0] == reg.const(1)
    assert lam[0][1] == (v1 - v2 * Scalar(0, s)) * half
    assert lam[1][0] == (v1 + v2 * Scalar(0, s)) * half
    assert lam[1][1] == 1 + (v1 * v1 + v2 * v2) * Scalar(Fraction(1, 4))
    # determinant is exactly 1
    det = lam[0][0] * lam[1][1] - lam[0][1] * lam[1][0]
    assert det == reg.const(1)
    # identity at zero velocity
    at0 = res.lam_at_zero()
    assert at0[0][0] == Scalar(1) and at0[1][1] == Scalar(1)
    assert at0[0][1].is_zero and at0[1][0].is_zero


@pytest.mark.parametrize("s", [1, -1])
def test_boost_round_trip_restores_operator(s):
    reg = make_registry()
    G = build_wave_operator(reg, s)
    v = (reg.symbol("v1"), reg.symbol("v2"))
    neg_v = (-reg.symbol("v1"), -reg.symbol("v2"))
    assert (boost_transform(boost_transform(G, s, v), s, neg_v) - G).is_zero


@pytest.mark.parametrize("v", [("x1", "v2"), ("v1", "t")])
def test_boost_velocity_must_be_coordinate_free(reg, v):
    # the series exp(ad X) ends only for a coordinate-free velocity
    G = build_wave_operator(reg, 1)
    with pytest.raises(BadParameter, match="coordinate-free"):
        boost_transform(G, 1, tuple(reg.symbol(name) for name in v))


def test_solve_constant_matrix_rejects_wrong_target(reg):
    G = build_wave_operator(reg, 1)
    # compose with a coordinate multiplication: no constant matrix can match
    from galkappa.weylop import DiffOp

    twist = DiffOp.identity(reg, 2, factor=reg.symbol("x1"))
    with pytest.raises(CovarianceFailure):
        solve_constant_matrix(twist @ G, G)


@pytest.mark.parametrize("s", [1, -1])
def test_rotation_covariance(s):
    res = check_rotation_covariance(s)
    assert all(e.is_zero for row in res.lam for e in row)
    # i.e. the rotation generator commutes with the wave operator
    reg = make_registry()
    G = build_wave_operator(reg, s)
    J = rotation_generator(reg, s)
    assert G.commutator(J).is_zero


def test_rotation_needs_matching_spin_half(reg):
    # the spin part of the other label (wrong internal constant) cannot intertwine
    G = build_wave_operator(reg, 1)
    J_wrong = rotation_generator(reg, -1)
    with pytest.raises(CovarianceFailure):
        solve_constant_matrix(G.commutator(J_wrong), G)


# -- multispinor ----------------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1, -1])
def test_multispinor_two_equations(N, s):
    res = multispinor_equations(N, s)
    assert res.nullity == N - 1
    assert res.row_scale == Scalar(Fraction(1, N))
    # the reduced matrix has exactly N+1 rows with rows 2.. all zero
    assert len(res.matrix) == N + 1


def test_multispinor_top_rows_are_wave_operator():
    res = multispinor_equations(3, 1)
    reg = res.matrix[0][0].registry
    E, m = reg.symbol("E"), reg.symbol("m")
    p_minus, p_plus = reg.symbol("p_minus"), reg.symbol("p_plus")
    third = Scalar(Fraction(1, 3))
    assert res.matrix[0][0] == E
    assert res.matrix[0][1] == p_minus
    assert res.matrix[1][0] == p_plus * third
    assert res.matrix[1][1] == m * Scalar(2) * third


def test_multispinor_rank_validation():
    with pytest.raises(BadRank):
        multispinor_equations(5, 1)
    with pytest.raises(BadSpin):
        multispinor_equations(2, 0)


def test_momentum_registry_names():
    reg = momentum_registry()
    assert set(reg.names) == {"E", "m", "p_minus", "p_plus"}
    assert reg.is_invertible("m")


# -- negative controls: each claim is decided by one identity ---------------------


def _one_entry(reg, r, c, op):
    """The 2x2 operator matrix with op at (r, c) and zero elsewhere."""
    zero = ScalarDiffOp.zero(reg)
    return DiffOp(reg, [[op if (i, j) == (r, c) else zero for j in range(2)]
                        for i in range(2)])


@pytest.mark.parametrize("r, c, midx, coeff", [
    (1, 1, (2, 0, 0), "1"),      # an order-2 term
    (0, 0, (0, 0, 0), "m"),      # a stray multiplication term in column 0
    (1, 1, (0, 0, 1), "v1"),     # a stray time derivative in column 1
    (1, 0, (0, 1, 0), "v2"),     # a d2 coefficient inconsistent with d1
    (0, 1, (0, 0, 0), "3"),      # a column-1 constant that disagrees with column 0
])
def test_covariance_perturbation_names_its_residual_entry(reg, r, c, midx, coeff):
    G = build_wave_operator(reg, 1)
    lam = check_boost_covariance(1).lam
    valid = DiffOp(reg, lam) @ G
    assert solve_constant_matrix(valid, G) == lam
    value = reg.const(Scalar(int(coeff))) if coeff.isdigit() else reg.symbol(coeff)
    bad = valid + _one_entry(reg, r, c, ScalarDiffOp.deriv(reg, midx, value))
    with pytest.raises(CovarianceFailure, match=rf"residual entry \({r}, {c}\) is nonzero"):
        solve_constant_matrix(bad, G)


def _perturbed_slot_sum(monkeypatch, r, c, name):
    """Make the slot sum return its true value plus the symbol `name` at (r, c)."""
    true_sum = fieldcheck._symmetric_slot_sum

    def perturbed(reg, A, F, N):
        rows = true_sum(reg, A, F, N)
        rows[r][c] = rows[r][c] + reg.symbol(name)
        return rows

    monkeypatch.setattr(fieldcheck, "_symmetric_slot_sum", perturbed)


@pytest.mark.parametrize("r, c, name", [
    (0, 1, "E"),        # a wrong top row
    (0, 2, "m"),
    (1, 1, "m"),        # a second row off the scale its first entry sets
    (1, 3, "p_plus"),
    (2, 0, "p_minus"),  # a constraint in a lower row
    (3, 3, "E"),
])
def test_multispinor_mismatch_names_row_and_column(monkeypatch, r, c, name):
    _perturbed_slot_sum(monkeypatch, r, c, name)
    with pytest.raises(RedundancyClaimFailure, match=rf"^row {r}, column {c}: "):
        multispinor_equations(3, 1)


def test_multispinor_second_row_must_open_with_a_multiple_of_p_plus(monkeypatch):
    _perturbed_slot_sum(monkeypatch, 1, 0, "E")
    with pytest.raises(RedundancyClaimFailure, match=r"^row 1, column 0: .* multiple of p_plus"):
        multispinor_equations(2, 1)
