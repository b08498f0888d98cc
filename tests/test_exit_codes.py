"""Input errors the CLI must report as exit 2 with no traceback."""

import pytest

from galkappa.cli import main


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
