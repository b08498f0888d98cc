"""Every report the CLI writes validates against docs/report-schema.json.

The schema sets `additionalProperties: false` at the top level and on each
check, so a field added to a report without a schema change fails here.
The commands are those of both golden-digest suites plus one `numcheck`.
"""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import test_golden_reports
import test_growing_fraction_reports
from galkappa import report
from galkappa.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report-schema.json").read_text()
)
Draft202012Validator.check_schema(SCHEMA)
VALIDATOR = Draft202012Validator(SCHEMA)

COMMANDS = list(test_golden_reports.GOLDEN) + ["numcheck --nmax 8 --low 3"]


def assert_valid(path: Path) -> None:
    errors = [e.message for e in VALIDATOR.iter_errors(json.loads(path.read_text()))]
    assert not errors


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_schema(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    main(command.split())
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    assert_valid(path)


@pytest.mark.parametrize("command,name,steps", test_growing_fraction_reports.CASES)
def test_random_basis_report_matches_schema(command, name, steps, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    test_growing_fraction_reports.run_report(command, name, steps, tmp_path)
    capsys.readouterr()
    (path,) = tmp_path.glob("*.json")
    assert_valid(path)
