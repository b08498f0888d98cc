"""Flag values and numcheck sizes the CLI must refuse with exit 2."""

import pytest

from galkappa import numtrunc
from galkappa.cli import main
from galkappa.errors import BadParameter
from galkappa.numtrunc import DENSE_BYTES_BUDGET, build_numeric, dense_bytes


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


def test_dense_size_estimate_admits_nmax_48_and_grows():
    assert dense_bytes(48) <= DENSE_BYTES_BUDGET
    sizes = [dense_bytes(n) for n in range(4, 200)]
    assert sizes == sorted(sizes)
    assert sizes[-1] > DENSE_BYTES_BUDGET


def test_build_refuses_nmax_over_budget_before_allocating(monkeypatch):
    monkeypatch.setattr(numtrunc, "DENSE_BYTES_BUDGET", dense_bytes(6))
    assert set(build_numeric("schrodinger", n_max=6)) == {"P1", "P2", "H", "J", "K1", "K2", "M"}
    with pytest.raises(BadParameter, match="n_max 7 needs about"):
        build_numeric("schrodinger", n_max=7)


def test_numcheck_over_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(numtrunc, "DENSE_BYTES_BUDGET", dense_bytes(5))
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
