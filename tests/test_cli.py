"""End-to-end command-line behavior: exit codes, output, report files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import galkappa
import test_golden_reports
import test_growing_fraction_reports
from galkappa import algfile, cli, report
from galkappa.cli import build_parser, main
from test_exit_codes import _argvs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- algebra -------------------------------------------------------------------


def test_algebra_verify_bundled(capsys):
    code, out, _ = run(capsys, "algebra", "verify", "planar_galilei")
    assert code == 0
    assert "jacobi identity: PASS" in out


def test_algebra_verify_failing_file(tmp_path, capsys):
    bad = tmp_path / "broken.alg"
    bad.write_text(
        "generators: A B C\n[A, B] = i*C\n[A, C] = i*C\n[B, C] = i*A\n"
    )
    code, out, _ = run(capsys, "algebra", "verify", str(bad))
    assert code == 1
    assert "FAIL at" in out


def test_algebra_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "syntax.alg"
    bad.write_text("[A, B] = i*C\n")
    code, _, err = run(capsys, "algebra", "verify", str(bad))
    assert code == 2
    assert "line 1:" in err


def test_algebra_unknown_bundled_name(capsys):
    code, _, err = run(capsys, "algebra", "cohomology", "nonexistent")
    assert code == 2
    assert "available" in err


def test_algebra_cohomology_planar(capsys):
    code, out, _ = run(capsys, "algebra", "cohomology", "planar_galilei")
    assert code == 0
    assert "independent central classes: 3" in out


def test_algebra_cohomology_other_dimensions(capsys):
    for name, h2 in (
        ("galilei_1d", 2),
        ("so3", 0),
        ("abelian4", 6),
        ("galilei_3p1", 1),
        ("planar_galilei_mass", 2),
        ("planar_galilei_literal", 5),
    ):
        code, out, _ = run(capsys, "algebra", "cohomology", name)
        assert code == 0
        assert f"independent central classes: {h2}" in out


# -- realize -------------------------------------------------------------------


@pytest.mark.parametrize("model", ["schrodinger", "levyleblond", "multispinor"])
def test_realize_passes(model, capsys):
    code, out, _ = run(capsys, "realize", model)
    assert code == 0
    assert "result: PASS" in out
    assert "extracted second extension parameter: 0" in out
    assert "extracted mass: m" in out


def test_realize_multispinor_rank_flag(capsys):
    code, out, _ = run(capsys, "realize", "multispinor", "--rank", "3",
                       "--spin-s", "-1")
    assert code == 0
    assert "result: PASS" in out


def test_realize_bad_rank_is_usage_error(capsys):
    code, _, err = run(capsys, "realize", "multispinor", "--rank", "5")
    assert code == 2
    assert "rank" in err


def test_realize_bad_spin_is_usage_error(capsys):
    code, _, err = run(capsys, "realize", "levyleblond", "--spin-s", "3")
    assert code == 2
    assert "spin" in err


def test_realize_shift_symbolic(capsys):
    code, out, _ = run(capsys, "realize", "schrodinger", "--shift", "c")
    assert code == 0
    assert "extracted second extension parameter: -c" in out


def test_realize_shift_rational(capsys):
    code, out, _ = run(capsys, "realize", "schrodinger", "--shift=-3/2")
    assert code == 0
    assert "extracted second extension parameter: 3/2" in out


def test_realize_lambda_keeps_table(capsys):
    code, out, _ = run(capsys, "realize", "levyleblond", "--lambda", "lam")
    assert code == 0
    assert "result: PASS" in out


def test_realize_bad_parameter_literal(capsys):
    code, _, err = run(capsys, "realize", "schrodinger", "--shift", "zebra")
    assert code == 2
    assert "exact scalar" in err


def test_realize_strict_literal_table_fails(capsys):
    code, out, _ = run(capsys, "realize", "schrodinger", "--strict-literal-table")
    assert code == 1
    assert "[K1,H] FAIL" in out
    assert "[K2,H] FAIL" in out
    assert "result: FAIL" in out


# -- fieldcheck ----------------------------------------------------------------


def test_fieldcheck_conservation(capsys):
    code, out, _ = run(capsys, "fieldcheck", "conservation")
    assert code == 0
    assert out.count("pass") == 4  # both indices, both spins


def test_fieldcheck_conservation_narrowed(capsys):
    code, out, _ = run(capsys, "fieldcheck", "conservation",
                       "--index", "2", "--spin-s", "-1")
    assert code == 0
    assert out.count("pass") == 1


def test_fieldcheck_conservation_literal_variant(capsys):
    code, out, _ = run(capsys, "fieldcheck", "conservation",
                       "--variant", "literal", "--index", "1", "--spin-s", "1")
    assert code == 1
    assert "FAIL" in out
    assert "residual:" in out


def test_fieldcheck_boost(capsys):
    code, out, _ = run(capsys, "fieldcheck", "boost")
    assert code == 0
    assert "spin +1: intertwining matrix" in out
    assert "spin -1: intertwining matrix" in out


def test_fieldcheck_rotation(capsys):
    code, out, _ = run(capsys, "fieldcheck", "rotation")
    assert code == 0
    assert "[0, 0]" in out  # the rotation generator commutes outright


def test_fieldcheck_multispinor_eqs(capsys):
    code, out, _ = run(capsys, "fieldcheck", "multispinor-eqs", "--rank", "4")
    assert code == 0
    assert "3 symmetric component(s) unconstrained" in out
    assert "second-row scale 1/4" in out


def test_fieldcheck_multispinor_bad_rank(capsys):
    code, _, err = run(capsys, "fieldcheck", "multispinor-eqs", "--rank", "7")
    assert code == 2
    assert "rank" in err


# -- numcheck ------------------------------------------------------------------


def test_numcheck_defaults(capsys):
    code, out, _ = run(capsys, "numcheck")
    assert code == 0
    assert "result: PASS" in out
    assert "[K1,K2] residual exact zero" in out


def test_numcheck_small_grid_still_passes(capsys):
    # any low block strictly inside the cut misses the edge defects
    code, out, _ = run(capsys, "numcheck", "--nmax", "4", "--low", "3")
    assert code == 0
    assert "result: PASS" in out


def test_numcheck_unprojected_edge_fails(capsys):
    code, out, _ = run(capsys, "numcheck", "--nmax", "8", "--low", "8")
    assert code == 1
    assert "result: FAIL" in out
    assert "FAIL" in out


def test_numcheck_zero_mass_is_usage_error(capsys):
    code, _, err = run(capsys, "numcheck", "--m", "0")
    assert code == 2
    assert "mass" in err


def test_numcheck_bad_low_cutoff(capsys):
    code, _, err = run(capsys, "numcheck", "--nmax", "8", "--low", "12")
    assert code == 2
    assert "low cutoff" in err


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run(capsys, "realize", "schrodinger", "--frobnicate")
    assert code == 2


# -- argv parsed from the argument table ------------------------------------------

# per subcommand: valid argv, bad flags and values, and help
PARSER_CASES = [
    ["algebra", "verify", "so3"],
    ["algebra", "cohomology", "some/file.alg"],
    ["algebra"],
    ["algebra", "bogus", "so3"],
    ["algebra", "verify"],
    ["algebra", "verify", "so3", "--frobnicate"],
    ["algebra", "-h"],
    ["algebra", "cohomology", "--help"],
    ["realize", "schrodinger", "--spin-s", "-1", "--shift", "c", "--lambda", "1/2"],
    ["realize", "multispinor", "--rank", "3", "--strict-literal-table"],
    ["realize", "nomodel"],
    ["realize", "schrodinger", "--rank", "x"],
    ["realize", "schrodinger", "--frobnicate"],
    ["realize", "-h"],
    ["fieldcheck", "conservation", "--index", "1", "--variant", "literal"],
    ["fieldcheck", "multispinor-eqs", "--rank", "2", "--spin-s", "1"],
    ["fieldcheck", "boost", "--index", "3"],
    ["fieldcheck"],
    ["fieldcheck", "-h"],
    ["numcheck", "--nmax", "6", "--low", "3", "--m", "2.5", "--model", "levyleblond"],
    ["numcheck"],
    ["numcheck", "--m", "abc"],
    ["numcheck", "extra"],
    ["numcheck", "--help"],
]


def run_with_argparse_only(capsys, monkeypatch, argv):
    """`run`, with every argv left to the argparse parser."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_direct", lambda _: None)
        return run(capsys, *argv)


# The direct parse must leave exit code, output and errors as argparse alone
# gives them, for argv it takes and for argv it hands over.
@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_subcommand_parser_parses_like_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.delenv(report.REPORT_DIR_ENV, raising=False)
    assert run(capsys, *argv) == run_with_argparse_only(capsys, monkeypatch, argv)


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["-h", "realize"],
    [],
    ["bogus"],
    ["--frobnicate", "realize", "schrodinger"],
    ["--", "fieldcheck", "rotation", "--spin-s", "1"],
    ["-", "numcheck"],
    ["realize", "schrodinger", "--frobnicate"],
    ["fieldcheck", "rotation", "--spin-s", "-1"],
], ids=" ".join)
def test_cli_behaves_as_with_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.delenv(report.REPORT_DIR_ENV, raising=False)
    assert run(capsys, *argv) == run_with_argparse_only(capsys, monkeypatch, argv)


def _same(a, b):
    return a == b or (a != a and b != b)  # NaN equals NaN here


def assert_direct_parse_agrees(argv):
    """The direct parse hands `argv` over, or parses it as argparse does."""
    direct = cli._parse_direct(argv)
    if direct is not None:
        full = vars(build_parser().parse_args(argv))
        assert vars(direct).keys() == full.keys(), argv
        assert all(_same(v, full[k]) for k, v in vars(direct).items()), argv


@settings(max_examples=400, deadline=None)
@given(_argvs)
def test_direct_parse_agrees_with_argparse(argv):
    assert_direct_parse_agrees(argv)


# argv near the edge of what the direct parse takes
EDGE_CASES = [
    ["realize", "schrodinger", "--strict-literal-table=1"],
    ["realize", "schrodinger", "--shift", "-c"],
    ["realize", "schrodinger", "--shift="],
    ["realize", "schrodinger", "--shift", ""],
    ["realize", "--shift", "schrodinger"],
    ["realize", "schrodinger", "--spin", "1", "--str"],
    ["realize", "schrodinger", "--spin-s", "-1", "--rank=-1"],
    ["realize", "schrodinger", "levyleblond"],
    ["numcheck", "--m", "-1e-3"],
    ["numcheck", "--m", "-.5", "--t=-1e-3"],
    ["fieldcheck", "boost", "--index=1.0"],
    ["algebra", "verify", "--", "so3"],
    ["algebra", "verify", "-so3"],
]


def test_direct_parse_agrees_with_argparse_on_listed_argv():
    for argv in PARSER_CASES + EDGE_CASES:
        assert_direct_parse_agrees(argv)


# Well-formed argv in both value forms, covering every flag of every
# command, with their exit codes
WELL_FORMED = {
    "realize multispinor --rank 3 --shift c": 0,
    "realize --rank 2 multispinor --spin-s=-1": 0,
    "realize levyleblond --spin-s 1 --shift=-3/4 --lambda=lam --strict-literal-table": 1,
    "fieldcheck conservation --index=2 --spin-s=-1 --variant literal": 1,
    "fieldcheck multispinor-eqs --rank=2 --spin-s 1": 0,
    "numcheck --model=levyleblond --nmax=6 --low=2 --m=1.5 --t 0.25 --tol=1e-8 "
    "--spin-s=-1 --rank=2": 0,
}
EXIT_CODES = {**{c: code for c, (code, _) in test_golden_reports.GOLDEN.items()},
              **WELL_FORMED}


def _refuse_argparse():
    raise AssertionError("argv handed over to argparse")


@pytest.mark.parametrize("command", list(EXIT_CODES))
def test_well_formed_argv_never_builds_argparse(command, capsys, monkeypatch):
    argv = command.split()
    assert_direct_parse_agrees(argv)
    monkeypatch.delenv(report.REPORT_DIR_ENV, raising=False)
    monkeypatch.setattr(cli, "build_parser", _refuse_argparse)
    assert run(capsys, *argv)[0] == EXIT_CODES[command]


@pytest.mark.parametrize("command,name,steps", test_growing_fraction_reports.CASES)
def test_random_basis_argv_never_builds_argparse(command, name, steps, tmp_path,
                                                 capsys, monkeypatch):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_parser", _refuse_argparse)
    result = test_growing_fraction_reports.run_report(command, name, steps, tmp_path)
    capsys.readouterr()
    assert result == test_growing_fraction_reports.GOLDEN[f"{command} {name}"]


# -- reports -------------------------------------------------------------------


def test_report_written_when_env_set(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    code, out, _ = run(capsys, "realize", "schrodinger")
    assert code == 0
    path = tmp_path / "realize-schrodinger.json"
    assert path.exists()
    assert f"report written: {path}" in out
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert payload["command"] == "realize schrodinger"
    anchors = [c["anchor"] for c in payload["checks"]]
    assert anchors == [
        "structure-table", "second-extension-parameter", "mass-parameter",
    ]


def test_report_directory_is_made_only_when_missing(tmp_path, monkeypatch, capsys):
    directory = tmp_path / "new" / "reports"
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(directory))
    path = directory / "realize-schrodinger.json"
    for exists in (False, True):
        if exists:
            def refuse(*args, **kwargs):
                raise AssertionError("an existing report directory was made again")
            monkeypatch.setattr(Path, "mkdir", refuse)
        code, out, _ = run(capsys, "realize", "schrodinger")
        assert code == 0 and f"report written: {path}" in out
        assert json.loads(path.read_text())["passed"] is True


def test_report_bytes_are_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    path = tmp_path / "numcheck.json"
    run(capsys, "numcheck", "--nmax", "6", "--low", "3")
    first = path.read_bytes()
    run(capsys, "numcheck", "--nmax", "6", "--low", "3")
    assert path.read_bytes() == first


def test_report_payload_round_trips(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    run(capsys, "algebra", "cohomology", "planar_galilei")
    payload = json.loads((tmp_path / "algebra-cohomology.json").read_text())
    assert json.loads(report.render(payload)) == payload
    detail = payload["checks"][0]["detail"]
    assert detail["h2"] == 3
    assert detail["cocycle_dim"] - detail["coboundary_dim"] == 3


def test_no_report_without_env(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(report.REPORT_DIR_ENV, raising=False)
    code, out, _ = run(capsys, "numcheck", "--nmax", "6", "--low", "3")
    assert code == 0
    assert "report written" not in out


# -- fresh interpreters ------------------------------------------------------------


def _child_env(**extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", report.REPORT_DIR_ENV)}
    src = str(Path(galkappa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(extra)
    return env


# One fresh interpreter imports the package, then the CLI, then runs the exact
# commands from the family that needs the fewest modules to the one that needs
# the most, and prints the modules loaded after each step.
EXACT_COMMANDS = [
    ("algebra", ["algebra", "verify", "so3"]),
    ("algebra", ["algebra", "cohomology", "planar_galilei"]),
    ("realize", ["realize", "multispinor", "--rank=4", "--shift=c", "--lambda=1/2"]),
    ("realize", ["realize", "schrodinger", "--strict-literal-table"]),
    ("fieldcheck", ["fieldcheck", "conservation"]),
    ("fieldcheck", ["fieldcheck", "boost"]),
    ("fieldcheck", ["fieldcheck", "rotation"]),
    ("fieldcheck", ["fieldcheck", "multispinor-eqs", "--rank", "4"]),
]
IMPORT_PROBE = (
    "import contextlib, io, json, sys\n"
    "def loaded():\n"
    "    return sorted(name for name in sys.modules\n"
    "                  if name.split('.')[0] in ('galkappa', 'numpy', 'argparse',\n"
    "                                            'dataclasses', 'inspect'))\n"
    "import galkappa\n"
    "print(json.dumps(loaded()))\n"
    "import galkappa.cli\n"
    "print(json.dumps(loaded()))\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = galkappa.cli.main(argv)\n"
    "    print(json.dumps([code, loaded()]))\n"
)


def test_commands_load_only_their_modules():
    argvs = [argv for _, argv in EXACT_COMMANDS]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    package, cli_import, *commands = map(json.loads, proc.stdout.splitlines())
    assert package == ["galkappa"]  # the package itself is lazy
    assert cli_import == ["galkappa", "galkappa.cli", "galkappa.errors", "galkappa.report"]
    assert [code for code, _ in commands] == [0, 0, 0, 1, 0, 0, 0, 0]
    for (family, argv), (_, modules) in zip(EXACT_COMMANDS, commands):
        # argparse is for help and errors; inspect comes with dataclasses
        assert not {"numpy", "argparse", "dataclasses", "inspect"} & set(modules), argv
        unused = {"algebra": ("weylop", "galrealize", "fieldcheck", "numtrunc"),
                  "realize": ("fieldcheck", "numtrunc"),
                  "fieldcheck": ("numtrunc",)}[family]
        assert not {f"galkappa.{name}" for name in unused} & set(modules), argv


def test_conservation_reads_its_current_without_importlib_resources(tmp_path):
    # -S skips the site hooks, which may load importlib.resources on their own
    probe = (
        "import sys\n"
        "import galkappa.cli\n"
        "code = galkappa.cli.main(['fieldcheck', 'conservation'])\n"
        "assert 'importlib.resources' not in sys.modules, sorted(sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=_child_env(**{report.REPORT_DIR_ENV: str(tmp_path)}),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "divergence (index 2, spin -1): pass" in proc.stdout


def test_cli_and_exact_reports_load_no_json(tmp_path):
    # the report layer writes JSON with the C string escaper alone; -S as above
    probe = (
        "import contextlib, io, sys\n"
        "import galkappa.cli\n"
        "assert 'json' not in sys.modules, 'import'\n"
        "for argv in (['realize', 'multispinor', '--rank=4', '--shift=c', '--lambda=1/2'],\n"
        "             ['algebra', 'verify', 'so3'],\n"
        "             ['algebra', 'cohomology', 'planar_galilei']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert galkappa.cli.main(argv) == 0, argv\n"
        "    assert 'json' not in sys.modules, argv\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=_child_env(**{report.REPORT_DIR_ENV: str(tmp_path)}),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "algebra-cohomology.json", "algebra-verify.json", "realize-multispinor.json"]


def test_help_loads_argparse_and_prints_its_help():
    # the parser lists the bundled algebras without loading the engine
    engine = ["galkappa.algfile", "galkappa.cocycle", "galkappa.exactscalar"]
    probe = (
        "import sys\n"
        "import galkappa.cli\n"
        "code = galkappa.cli.main(sys.argv[1:])\n"
        "assert 'argparse' in sys.modules and 'numpy' not in sys.modules\n"
        f"assert not set({engine!r}) & set(sys.modules), sorted(sys.modules)\n"
        "sys.exit(code)\n"
    )

    def run(*argv):
        return subprocess.run([sys.executable, "-c", probe, *argv],
                              env=_child_env(COLUMNS="80"), capture_output=True, text=True,
                              timeout=120)

    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "usage: galkappa [-h] {algebra,realize,fieldcheck,numcheck} ...\n")
    assert "show this help message and exit" in proc.stdout
    proc = run("realize", "bogus")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage: galkappa realize") and "invalid choice" in proc.stderr
    proc = run("algebra", "verify", "--help")
    assert proc.returncode == 0, proc.stderr
    listed = {word.strip(",()") for word in proc.stdout.split()}
    assert set(algfile.bundled_names()) <= listed


def test_numeric_names_load_numpy_on_first_use():
    probe = (
        "import sys\n"
        "import galkappa\n"
        "assert callable(galkappa.build_numeric)\n"
        "assert 'numpy' in sys.modules\n"
        "names = {}\n"
        "exec('from galkappa import *', names)\n"
        "assert set(galkappa.__all__) <= set(names)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_public_names_are_their_modules_objects():
    assert set(galkappa.__all__) <= set(dir(galkappa))
    for name in galkappa.__all__:
        obj = getattr(galkappa, name)
        if name == "__version__":
            continue
        # classes, functions and the Scalar constants name their module
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("galkappa."), name
        assert getattr(module, name) is obj, name


def test_model_choices_are_the_realization_models():
    from galkappa import galrealize

    choices = [kwargs["choices"] for _, arguments in cli._COMMANDS.values()
               for flag, kwargs in arguments if flag in ("model", "--model")]
    assert len(choices) == 2
    assert all(c is galrealize.MODELS for c in choices)


@pytest.mark.parametrize("buffering", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["algebra", "cohomology", "planar_galilei"],
    ["realize", "schrodinger"],
    ["fieldcheck", "conservation"],
    ["--help"],
    ["realize", "--help"],
])
def test_closed_stdout_is_a_failure_without_traceback(argv, buffering):
    # the reader is gone before the command starts, so every write meets a
    # closed pipe, wherever the stdout buffer happens to be flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "galkappa.cli"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=_child_env(**buffering), timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1
