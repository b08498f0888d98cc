"""Floating-point commutator checks on the truncated mode space."""

import tracemalloc

import numpy as np
import pytest

from galkappa.errors import BadParameter, BadRank, BadSpin
from galkappa.galrealize import MODELS
from galkappa.numtrunc import (
    build_numeric,
    check_bytes,
    low_mode_indices,
    residual_report,
    run_numeric_check,
    xp_defect,
)
from test_numcheck_oracle import expand


def test_xp_defect_lives_at_the_cut():
    dim = 12
    d = xp_defect(dim)
    # the single genuine defect entry: -i * dim in the top mode
    assert abs(d[-1, -1] + 1j * dim) < 1e-9
    interior = d.copy()
    interior[-1, :] = 0.0
    interior[:, -1] = 0.0
    assert np.max(np.abs(interior)) < 1e-12


def test_boost_commutator_is_bitwise_zero():
    ops = expand(build_numeric("schrodinger", n_max=10))
    comm = ops["K1"] @ ops["K2"] - ops["K2"] @ ops["K1"]
    assert np.all(comm == 0.0)


def _traced_peak(**kwargs):
    tracemalloc.start()
    try:
        rep = run_numeric_check(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 21
    return peak


def test_size_estimate_bounds_the_traced_peak():
    # warmed up first, so the exact layer's cached tables, which the
    # estimate does not cover, are not counted
    for model in MODELS:
        run_numeric_check(model=model, n_max=4, low=2, rank=4)
    for n_max in (6, 9, 12, 15, 20):
        for low in sorted({0, n_max // 3, n_max}):
            for model in MODELS:
                peak = _traced_peak(model=model, n_max=n_max, low=low, rank=4)
                # a check builds min(n_max, low + 4) modes per axis
                assert peak <= check_bytes(min(n_max, low + 4), low), (model, n_max, low)


@pytest.mark.parametrize("n_max", [12, 20])
def test_whole_space_check_holds_few_whole_matrices(n_max):
    # two reused slabs (one later holds the right-hand side), the row's two
    # products (one becomes the residual) and a term being summed, about 5.1
    # to 5.6; with seven prebuilt dense generators the peak was about 11.5
    run_numeric_check(n_max=4, low=2)
    whole = 16 * (n_max + 1) ** 4
    peak = _traced_peak(n_max=n_max, low=n_max)
    assert peak <= 7 * whole, peak / whole


def test_truncation_past_the_whole_matrix_cap_passes():
    # whole matrices of side 101**2 would take 1.6 GB each
    rep = run_numeric_check(n_max=100, low=4)
    assert rep.overall
    assert {(r.lhs, r.rhs): r for r in rep.rows}[("K1", "K2")].exact_zero


@pytest.mark.parametrize("model", MODELS)
def test_every_factor_is_zero_off_the_band(model):
    # degree <= 2 per axis in tridiagonal x and p: why a check may build
    # only low + 4 modes per axis
    ops = build_numeric(model, n_max=12, spin_s=-1, rank=3)
    r, c = np.indices((13, 13))
    off_band = np.abs(r - c) > 2
    for name, terms in ops.items():
        for a, b in terms:
            assert np.all(a[off_band] == 0.0) and np.all(b[off_band] == 0.0), name


@pytest.mark.parametrize("model", MODELS)
def test_rows_do_not_depend_on_modes_past_the_block(model):
    low = 3
    reports = [run_numeric_check(model=model, n_max=n_max, low=low, rank=2)
               for n_max in (low + 4, low + 30, 10**6)]
    assert [rep.n_max for rep in reports] == [low + 4, low + 30, 10**6]
    rows = [[r.to_dict() for r in rep.rows] for rep in reports]
    assert rows[0] == rows[1] == rows[2]
    assert reports[0].overall


def test_acceptance_settings_pass_tightly():
    rep = run_numeric_check()  # n_max=24, low=8, m=1, t=0.5
    assert rep.overall
    assert max(r.residual for r in rep.rows) <= 1e-10
    pairs = {(r.lhs, r.rhs): r for r in rep.rows}
    assert pairs[("K1", "K2")].exact_zero
    assert len(rep.rows) == 21


def test_projector_removes_edge_contamination():
    # defects occupy entries with an index at the top mode, so any cutoff
    # strictly below the truncation strips them entirely
    rep = run_numeric_check(n_max=4, low=3)
    assert rep.overall
    assert max(r.residual for r in rep.rows) < 1e-12


def test_no_projection_exposes_the_edge():
    rep = run_numeric_check(n_max=8, low=8)
    assert not rep.overall
    failing = {(r.lhs, r.rhs) for r in rep.failing_rows()}
    # the canonical-pair rows are contaminated once the cut is visible
    assert ("K1", "P1") in failing
    assert ("K2", "P2") in failing


def test_literal_table_rows_fail_numerically():
    ops = build_numeric("schrodinger", n_max=12)
    rep = residual_report(ops, table="literal", low_cutoff=6)
    failing = {(r.lhs, r.rhs) for r in rep.failing_rows()}
    assert failing == {("K1", "H"), ("K2", "H")}


@pytest.mark.parametrize("model", MODELS)
def test_models_share_projective_content(model):
    rep = run_numeric_check(model=model, n_max=8, low=4, rank=2)
    assert rep.overall


def test_internal_constant_shifts_rotation():
    base = expand(build_numeric("schrodinger", n_max=6))
    half = expand(build_numeric("levyleblond", n_max=6, spin_s=-1))
    multi = expand(build_numeric("multispinor", n_max=6, spin_s=1, rank=3))
    eye = np.eye(base["J"].shape[0])
    assert np.allclose(half["J"] - base["J"], -0.5 * eye)
    assert np.allclose(multi["J"] - base["J"], 1.5 * eye)


def test_low_mode_indices_select_the_block():
    keep = low_mode_indices(4, 1)
    # states (n1, n2) sit at n1 * 5 + n2; both quanta <= 1
    assert keep.tolist() == [0, 1, 5, 6]
    assert len(low_mode_indices(8, 8)) == 81


def test_parameter_validation():
    with pytest.raises(BadParameter):
        build_numeric("heat-kernel")
    with pytest.raises(BadParameter):
        build_numeric("schrodinger", m=0.0)
    with pytest.raises(BadParameter):
        build_numeric("schrodinger", m=-2.0)
    with pytest.raises(BadParameter):
        build_numeric("schrodinger", n_max=3)
    with pytest.raises(BadSpin):
        build_numeric("levyleblond", spin_s=0)
    with pytest.raises(BadRank):
        build_numeric("multispinor", rank=9)
    with pytest.raises(BadParameter):
        low_mode_indices(8, 9)
    with pytest.raises(BadParameter):
        low_mode_indices(8, -1)


def test_report_serialization_shape():
    rep = run_numeric_check(n_max=6, low=3)
    payload = rep.to_dict()
    assert set(payload) == {
        "model", "mass", "time", "n_max", "low_cutoff", "tolerance",
        "overall", "rows",
    }
    assert payload["overall"] is True
    row = payload["rows"][0]
    assert set(row) == {"pair", "max_abs_residual", "exact_zero", "passed"}


# Entries of size m (or 1/m, or t) round at m * 1e-16; the tolerance scales
# with the largest entry of the low block, so a correct model passes at any
# representable size while a wrong bracket or a visible cut still fails.
EXTREME = [
    {"m": 1e-6},
    {"m": 1e6},
    {"m": 1e150},
    {"t": 1e5},
]


@pytest.mark.parametrize("params", EXTREME)
def test_relative_tolerance_passes_correct_models_at_extreme_values(params):
    for model in MODELS:
        rep = run_numeric_check(model=model, n_max=12, low=4, **params)
        assert rep.overall, [r.to_dict() for r in rep.failing_rows()]
        pairs = {(r.lhs, r.rhs): r for r in rep.rows}
        assert pairs[("K1", "K2")].exact_zero


def test_residual_field_stays_absolute_under_relative_tolerance():
    rep = run_numeric_check(m=1e6)
    assert rep.overall
    assert max(r.residual for r in rep.rows) > rep.tol


@pytest.mark.parametrize("params", EXTREME)
def test_literal_table_still_fails_exactly_boost_time_rows(params):
    rep = run_numeric_check(n_max=12, low=4, table="literal", **params)
    failing = {(r.lhs, r.rhs) for r in rep.failing_rows()}
    assert failing == {("K1", "H"), ("K2", "H")}


@pytest.mark.parametrize("params", EXTREME)
def test_visible_cut_still_fails_canonical_pair_rows(params):
    rep = run_numeric_check(n_max=8, low=8, **params)
    failing = {(r.lhs, r.rhs) for r in rep.failing_rows()}
    assert {("K1", "P1"), ("K2", "P2")} <= failing
