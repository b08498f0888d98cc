"""Errors the CLI must report as exit 1 or 2, with no traceback."""

import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkappa import galrealize, report
from galkappa.cli import main
from galkappa.errors import DegreeOverflow, NotCentral


@pytest.mark.parametrize(
    "flags",
    [
        ["--m", "inf"],
        ["--m=-inf"],
        ["--t", "nan"],
        ["--t", "inf"],
        ["--tol", "-1"],
        ["--tol", "nan"],
        ["--tol", "inf"],
    ],
)
def test_numcheck_rejects_nonfinite_or_negative_values(flags, capsys):
    code = main(["numcheck", "--nmax", "4", "--low", "2"] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "input error" in err


@pytest.mark.parametrize("subcommand", ["verify", "cohomology"])
def test_algebra_directory_argument_is_an_input_error(subcommand, tmp_path, capsys):
    code = main(["algebra", subcommand, str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "cannot read" in err


@pytest.mark.parametrize("rhs, fragment", [
    ("+", "malformed term"),              # a sign that precedes no term
    ("\u0661*A", "malformed scalar literal"),  # digits are ASCII
])
def test_malformed_right_hand_side_is_an_input_error(rhs, fragment, tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(f"generators: A B C\n[A, B] = {rhs}\n", encoding="utf-8")
    code = main(["algebra", "cohomology", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: ") and "line 2:" in err and fragment in err
    assert "Traceback" not in err


def test_undecodable_algebra_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"generators: A B\n# \xff\n")
    code = main(["algebra", "verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: ") and "Traceback" not in err


# int() and float() read any Unicode decimal digit, `_` between digits and
# surrounding whitespace; every flag takes plain ASCII digits only
@pytest.mark.parametrize("argv, fragment", [
    (["realize", "schrodinger", "--shift=\u0661"], "exact scalar"),
    (["numcheck", "--nmax", "\u0661\u0662", "--low", "2"], "invalid int value"),
    (["realize", "multispinor", "--rank", "\u0662"], "invalid int value"),
    (["fieldcheck", "conservation", "--index", "\u0661"], "invalid int value"),
    (["fieldcheck", "boost", "--spin-s=\u0661"], "invalid int value"),
    (["numcheck", "--m", "\u0661.\u0665"], "invalid float value"),
    (["numcheck", "--tol", "1e-\u0669"], "invalid float value"),
    (["numcheck", "--nmax=1_2", "--low=2"], "invalid int value"),
    (["numcheck", "--nmax=8", "--low=2", "--m=1_0.5"], "invalid float value"),
    (["realize", "multispinor", "--rank= 2"], "invalid int value"),
    (["fieldcheck", "conservation", "--index=1 "], "invalid int value"),
])
def test_non_ascii_digit_parameter_is_an_input_error(argv, fragment, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert fragment in err and "Traceback" not in err


# -- argv fuzz -------------------------------------------------------------------

_HEADS = [[], ["algebra"], ["algebra", "verify"], ["algebra", "cohomology"], ["realize"],
          ["fieldcheck"], ["numcheck"], ["bogus"]]
_WORDS = ["planar_galilei", "so3", "galilei_1d", "galilei_3p1", "no_such_algebra", ".",
          "schrodinger", "levyleblond", "multispinor", "heat-kernel", "conservation",
          "boost", "rotation", "multispinor-eqs", "corrected", "literal", "c", "lam", "",
          "-", "--", "--strict-literal-table=1", "--shift="]
# help, abbreviations and the forms above are argv the CLI hands over to argparse
_FLAGS = ["--spin-s", "--rank", "--lambda", "--shift", "--strict-literal-table", "--index",
          "--variant", "--model", "--nmax", "--low", "--m", "--t", "--tol", "--frobnicate",
          "-h", "--help", "--spin", "--str"]
# A check builds at most --low + 4 modes per axis, whatever --nmax is, and the
# size guard refuses a --low of 64 and up before anything large is allocated;
# no integer in 9..63 appears, so every --low here is small or refused.
_VALUES = ["0", "1", "-1", "2", "3", "4", "5", "6", "7", "8", "-3", "1689", "4000", "100000",
           "nan", "inf", "-inf", "1e308", "-1e308", "1e200", "5e-324", "1e-6", "0.5",
           "1/2", "-3/4*i", "2*i", "1/0", "abc", "x1", "0x10", "1e", "\u00e9"]

_tokens = st.one_of(
    st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)).map(list),
    st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)).map(lambda fv: ["=".join(fv)]),
    st.sampled_from(_WORDS + _FLAGS + _VALUES).map(lambda w: [w]),
)
_argvs = st.tuples(st.sampled_from(_HEADS), st.lists(_tokens, max_size=5)).map(
    lambda ht: ht[0] + [w for chunk in ht[1] for w in chunk]
)


@settings(max_examples=150, deadline=None)
@given(_argvs)
def test_any_argv_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop(report.REPORT_DIR_ENV, None)
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# -- the exit code of an error raised while a check runs -------------------------


@pytest.mark.parametrize("error, code, prefix", [
    (NotCentral("[K1, K2] is not central"), 1, "verification failure: "),
    (DegreeOverflow("derivative order 7 exceeds guard"), 1, "verification failure: "),
    (ValueError("unknown table variant"), 2, "input error: "),
])
def test_errors_inside_a_check_map_to_their_exit_code(monkeypatch, capsys, error, code, prefix):
    def raising(*args, **kwargs):
        raise error

    monkeypatch.setattr(galrealize, "verify_structure", raising)
    assert main(["realize", "schrodinger"]) == code
    out, err = capsys.readouterr()
    assert err == f"{prefix}{error}\n"
    assert "Traceback" not in out + err
