"""Flag values and numcheck sizes the CLI must refuse with exit 2."""

import tracemalloc

import pytest

from galkappa import numtrunc, report
from galkappa.cli import main
from galkappa.errors import BadParameter, BadRank, BadSpin
from galkappa.galrealize import realize
from galkappa.numtrunc import (
    BYTES_BUDGET,
    build_numeric,
    check_bytes,
    residual_report,
    run_numeric_check,
)


def _assert_input_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "input error" in err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["fieldcheck", "conservation", "--spin-s", "0"],
        ["fieldcheck", "boost", "--spin-s", "0"],
        ["fieldcheck", "rotation", "--spin-s", "2"],
        ["fieldcheck", "multispinor-eqs", "--spin-s", "0"],
        ["realize", "schrodinger", "--spin-s", "7"],
        ["realize", "levyleblond", "--rank", "99"],
        ["realize", "multispinor", "--rank", "0"],
        ["realize", "schrodinger", "--rank", "5"],
        ["fieldcheck", "boost", "--rank=0"],
        ["fieldcheck", "rotation", "--rank", "7"],
        ["fieldcheck", "conservation", "--index=1", "--rank=-2"],
    ],
)
def test_out_of_range_spin_or_rank_is_an_input_error(argv, capsys):
    err = _assert_input_error(main(argv), capsys)
    assert "spin label" in err or "rank" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fieldcheck", "boost", "--index", "2", "--variant", "literal"],
        ["fieldcheck", "boost", "--index=1"],
        ["fieldcheck", "rotation", "--variant", "corrected"],
        ["fieldcheck", "rotation", "--spin-s", "1", "--index", "2"],
        ["fieldcheck", "multispinor-eqs", "--rank", "2", "--index", "1", "--variant", "literal"],
        ["fieldcheck", "multispinor-eqs", "--variant=literal"],
    ],
)
def test_conservation_flags_outside_conservation_are_input_errors(argv, capsys):
    err = _assert_input_error(main(argv), capsys)
    assert "applies only to fieldcheck conservation" in err


@pytest.mark.parametrize(
    "flags", [["--m", "1e308"],["--m", "1e200"], ["--t", "1e300"], ["--m", "5e-324"]]
)
def test_numcheck_overflow_is_an_input_error(flags, capsys, recwarn):
    code = main(["numcheck", "--nmax", "4", "--low", "2"] + flags)
    err = _assert_input_error(code, capsys)
    assert "double precision" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_size_estimate_admits_every_earlier_size_and_grows():
    # whole matrices of side (n_max+1)**2 capped n_max at 54 for any cutoff
    assert all(check_bytes(n, low) <= BYTES_BUDGET for n in range(4, 55) for low in range(n + 1))
    assert check_bytes(200, 8) <= BYTES_BUDGET
    assert check_bytes(65, 65) <= BYTES_BUDGET < check_bytes(66, 66)
    assert check_bytes(469, 8) <= BYTES_BUDGET < check_bytes(470, 8)
    assert check_bytes(1688, 0) <= BYTES_BUDGET < check_bytes(1689, 0)  # the argv fuzz relies on it
    for low in (0, 8):
        sizes = [check_bytes(n, low) for n in range(max(4, low), 2000)]
        assert sizes == sorted(sizes) and sizes[-1] > BYTES_BUDGET
    assert [check_bytes(30, low) for low in range(31)] == sorted(
        check_bytes(30, low) for low in range(31))


def test_check_over_budget_is_refused_before_anything_but_the_factors(monkeypatch):
    monkeypatch.setattr(numtrunc, "BYTES_BUDGET", check_bytes(20, 2))
    ops = build_numeric("schrodinger", n_max=20)
    assert set(ops) == {"P1", "P2", "H", "J", "K1", "K2", "M"}
    assert residual_report(ops, low_cutoff=2).overall
    tracemalloc.start()
    try:
        with pytest.raises(BadParameter, match="n_max 20 with low cutoff 3 needs about"):
            residual_report(ops, low_cutoff=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**2 * 21**2  # less than one slab was allocated
    with pytest.raises(BadParameter, match="n_max 21 with low cutoff 18 needs about"):
        numtrunc.run_numeric_check(n_max=21, low=18)


def test_huge_truncation_is_refused_before_any_factor(monkeypatch):
    def refuse(dim):
        raise AssertionError(f"axis operators of side {dim} were built")

    monkeypatch.setattr(numtrunc, "_axis", refuse)
    with pytest.raises(BadParameter, match="n_max 100000 with low cutoff 0 needs about"):
        build_numeric("schrodinger", n_max=100000)


def test_check_refuses_a_large_low_before_any_factor_naming_the_asked_sizes(monkeypatch):
    def refuse(dim):
        raise AssertionError(f"axis operators of side {dim} were built")

    monkeypatch.setattr(numtrunc, "_axis", refuse)
    for n_max, low in ((10**6, 64), (67, 64), (66, 65), (66, 66)):
        with pytest.raises(BadParameter, match=f"n_max {n_max} with low cutoff {low} needs about"):
            run_numeric_check(n_max=n_max, low=low)


def test_numcheck_with_a_huge_nmax_builds_only_the_block_modes(capsys):
    assert main(["numcheck", "--nmax", "100000", "--low", "2"]) == 0
    assert "(n_max 100000, low block 2, tol 1e-09)" in capsys.readouterr().out


def test_numcheck_over_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(numtrunc, "BYTES_BUDGET", check_bytes(6, 1))
    err = _assert_input_error(main(["numcheck", "--nmax", "6", "--low", "2"]), capsys)
    assert "MiB" in err


def test_empty_algebra_source_is_named_as_given(capsys):
    # Path("") is the current directory, which is no algebra file
    err = _assert_input_error(main(["algebra", "verify", ""]), capsys)
    assert "no bundled algebra ''" in err
    assert "cannot read" not in err


def test_directory_source_is_named_as_given(tmp_path, capsys):
    source = f"{tmp_path}/"
    err = _assert_input_error(main(["algebra", "cohomology", source]), capsys)
    assert f"cannot read {source}:" in err


# One command of each family, with the name its report is written under.
_REPORTING = [
    (["algebra", "verify", "planar_galilei"], "algebra-verify"),
    (["realize", "schrodinger"], "realize-schrodinger"),
    (["fieldcheck", "rotation"], "fieldcheck-rotation"),
    (["numcheck", "--nmax", "4", "--low", "2"], "numcheck"),
]


@pytest.mark.parametrize("layout", ["file", "under-a-file", "name-is-a-directory"])
@pytest.mark.parametrize("argv,name", _REPORTING)
def test_unwritable_report_is_an_input_error(argv, name, layout, tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    directory = {"file": blocker, "under-a-file": blocker / "reports",
                 "name-is-a-directory": tmp_path}[layout]
    if layout == "name-is-a-directory":
        (tmp_path / f"{name}.json").mkdir()
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(directory))
    err = _assert_input_error(main(argv), capsys)
    assert f"cannot write report {directory / name}.json" in err


def test_library_guards_behind_the_cli_choices():
    # the CLI's `choices` refuse an unknown model before the library sees it;
    # the library refuses it on its own, and checks spin and rank for every model
    with pytest.raises(BadParameter, match="unknown model 'dirac'"):
        realize("dirac", 1, 1)
    with pytest.raises(BadParameter, match="unknown model 'dirac'"):
        run_numeric_check(model="dirac")
    with pytest.raises(BadSpin):
        realize("schrodinger", 2, 1)
    with pytest.raises(BadRank):
        realize("schrodinger", 1, 5)
