"""Command-line driver: every verification in the package behind one entry.

Exit codes are uniform across subcommands: 0 when all requested checks pass,
1 on a verification failure (a nonzero residual, an unsolvable covariance
system, a failing table row), 2 on input errors (bad flags, malformed files,
out-of-range parameters).  `_emit` writes each command's report and returns
0 exactly when it passed.  Numeric flags take ASCII digits only, with no
`_` separator and no surrounding whitespace, as exact literals do.

Importing this module loads only `errors` and `report` of the package, no
json package, and compiles no regex.  Each command imports what it runs when
it runs: `algebra` loads `algfile`, `cocycle` and `exactscalar`; `realize`
also `galrealize` and `weylop`; `fieldcheck` also `fieldcheck`; `numcheck`
also `numtrunc` and numpy.
argparse is imported only for help, usage and errors, since well-formed
argv is read from the argument table directly.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, Optional

from . import MODELS, bundled_names, report
from .errors import (
    AlgebraFileError,
    BadMass,
    BadParameter,
    BadRank,
    BadSpin,
    GalkappaError,
)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _ascii(kind):
    """The flag type `kind` (int or float) on plain ASCII text only: both read
    any Unicode decimal digit, `_` between digits and surrounding whitespace.
    It keeps the name that argparse's errors show."""
    def read(text: str):
        if not text.isascii() or "_" in text or text != text.strip():
            raise ValueError(text)
        return kind(text)

    read.__name__ = kind.__name__
    return read


_INT, _FLOAT = _ascii(int), _ascii(float)


# Every argument of every command, declared once as the flag (or positional
# name) and keyword arguments of `add_argument`.  `build_parser` builds
# argparse from these entries; `_parse_direct` reads the same entries' dest,
# type, default, choices and action.  `algebra` takes its arguments after
# one of its subcommands, and the help of its source lists the bundled
# algebras.
_ALGEBRA_SUBCOMMANDS = {
    "verify": "check the Jacobi identity",
    "cohomology": "compute the central-extension space",
}
_COMMANDS = {
    "algebra": ("parse and analyze an algebra file", (
        ("source", {"help": "path to an algebra file, or the name of a bundled "
                    "one ({bundled})"}),
    )),
    "realize": ("build generators and verify brackets", (
        ("model", {"choices": MODELS}),
        ("--spin-s", {"dest": "spin_s", "type": _INT, "default": 1,
                      "help": "spin label, +1 or -1"}),
        ("--rank", {"type": _INT, "default": 1, "help": "multispinor rank (1..4)"}),
        ("--lambda", {"dest": "lam", "default": None, "metavar": "VALUE",
                      "help": "shift the rotation generator by VALUE times the "
                      "identity (exact literal like 1/2 or the symbol lam)"}),
        ("--shift", {"default": None, "metavar": "VALUE",
                     "help": "redefine the boosts with parameter VALUE "
                     "(exact literal or the symbol c)"}),
        ("--strict-literal-table", {"action": "store_true", "dest": "strict_literal",
                                    "help": "verify against the literal table variant, "
                                    "whose boost-time rows are pinned to zero"}),
    )),
    "fieldcheck": ("field-level identity checks", (
        ("check", {"choices": ("conservation", "boost", "rotation", "multispinor-eqs")}),
        ("--index", {"type": _INT, "choices": (1, 2), "default": None,
                     "help": "restrict the conservation check to one free index; "
                     "the other checks refuse it"}),
        ("--spin-s", {"dest": "spin_s", "type": _INT, "default": None,
                      "help": "restrict to one spin label (+1 or -1); without it "
                      "every check runs both spins, except multispinor-eqs, "
                      "which checks spin +1"}),
        ("--variant", {"choices": ("corrected", "literal"), "default": None,
                       "help": "which transcription of the current the conservation "
                       "check tests (default corrected); the other checks refuse it"}),
        ("--rank", {"type": _INT, "default": 1,
                    "help": "multispinor rank for multispinor-eqs"}),
    )),
    "numcheck": ("floating-point truncation cross-check", (
        ("--model", {"choices": MODELS, "default": "schrodinger"}),
        ("--nmax", {"type": _INT, "default": 24,
                    "help": "truncation size; a check builds at most --low + 4 modes per axis"}),
        ("--low", {"type": _INT, "default": 8,
                   "help": "low-mode block used for residual measurement"}),
        ("--m", {"type": _FLOAT, "default": 1.0, "help": "mass value"}),
        ("--t", {"type": _FLOAT, "default": 0.5, "help": "time value"}),
        ("--tol", {"type": _FLOAT, "default": 1e-9,
                   "help": "residual tolerance, relative to the largest entry "
                   "(at least 1) of the low-block products and expected value"}),
        ("--spin-s", {"dest": "spin_s", "type": _INT, "default": 1}),
        ("--rank", {"type": _INT, "default": 1}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from the argument table.

    Only help, usage and errors need it, so argparse is imported here rather
    than with the module.  The help's list of bundled algebras comes from
    the package itself, so no engine module is loaded for it.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """ArgumentParser whose help output lets a failed write through.

        argparse drops an OSError raised while it prints, so help sent into a
        closed pipe would exit 0 with an unbuffered stdout and 1 with a
        buffered one, where `main`'s flush meets the error.  Letting the error
        through gives `main` the same BrokenPipeError in both cases.
        """

        def print_help(self, file=None):
            (sys.stdout if file is None else file).write(self.format_help())

    p = _Parser(
        prog="galkappa",
        description="Exact checks on planar kinematical symmetry and its "
        "free-field realizations.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name != "algebra":
            for flag, kwargs in arguments:
                sp.add_argument(flag, **kwargs)
            continue
        alg_sub = sp.add_subparsers(dest="subcommand", required=True)
        bundled = ", ".join(bundled_names())
        for subcommand, sub_help in _ALGEBRA_SUBCOMMANDS.items():
            s = alg_sub.add_parser(subcommand, help=sub_help)
            for flag, kwargs in arguments:
                s.add_argument(flag, **dict(kwargs, help=kwargs["help"].format(
                    bundled=bundled)))
    return p


# argparse's own pattern: no option looks like a negative number, so a word
# matching it is a value, as in `--spin-s -1`; re's cache compiles it on the
# first such word, not on import
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _parse_direct(argv: List[str]) -> Optional[SimpleNamespace]:
    """The argv parsed from the argument table alone, or None for argparse.

    Taken are a command (for `algebra`, one of its subcommands), then in any
    order exactly its positionals and its own long flags, spelled out in
    full: `--flag=value`, `--flag value` where the value does not start with
    `-` or is a negative number, and a store_true flag without `=`.  Each
    value goes through its entry's `type` and `choices` as argparse would
    take it.  Everything else (help, abbreviations, `--`, any other value
    after a space that starts with `-`, anything argparse rejects) gives
    None, so argparse parses it and writes its own help, usage and errors.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], argv[1:]
    values = {"command": command}
    if command == "algebra":
        if not tokens or tokens[0] not in _ALGEBRA_SUBCOMMANDS:
            return None
        values["subcommand"], tokens = tokens[0], tokens[1:]
    options, positionals = {}, []
    for flag, kwargs in _COMMANDS[command][1]:
        dest = kwargs.get("dest", flag.lstrip("-").replace("-", "_"))
        if flag.startswith("-"):
            options[flag] = dest, kwargs
            store_true = kwargs.get("action") == "store_true"
            values[dest] = kwargs.get("default", False if store_true else None)
        else:
            positionals.append((dest, kwargs))
    pending, words = [], []  # (dest, entry, text) of each value; positional texts
    rest = iter(tokens)
    for token in rest:
        if not token.startswith("-"):
            words.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in options:
            return None
        dest, kwargs = options[flag]
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            text = next(rest, "-")
            if text.startswith("-") and not re.match(_NEGATIVE_NUMBER, text):
                return None
        pending.append((dest, kwargs, text))
    if len(words) != len(positionals):
        return None
    pending += [(dest, kwargs, word) for (dest, kwargs), word in zip(positionals, words)]
    for dest, kwargs, text in pending:
        try:
            value = kwargs.get("type", str)(text)
        except (TypeError, ValueError):  # argparse's "invalid value"
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def _load_algebra(source: str):
    """The algebra in the file `source`, or else the bundled one of that name.

    Errors name `source` as given.  An empty `source` is no path, though
    `Path("")` is the current directory, so it is looked up as a name.
    """
    from .algfile import load, load_bundled

    if source and Path(source).exists():
        return load(source)
    return load_bundled(source)


def _param_value(registry, text: str):
    """A CLI parameter: an exact scalar literal or a registered symbol name."""
    if text in ("c", "lam"):
        return registry.symbol(text)
    from .exactscalar import parse_scalar

    try:
        return registry.const(parse_scalar(text))
    except ValueError:
        raise BadParameter(
            f"cannot read {text!r} as an exact scalar or a parameter symbol "
            "(use forms like 2, -1/2, 3/4*i, or the names c / lam)"
        ) from None


def _emit(command: str, checks: List[dict]) -> int:
    """Report `command`'s checks, named with hyphens for spaces; 0 exactly when all passed."""
    payload = report.build_payload(command, checks)
    path = report.write(command.replace(" ", "-"), payload)
    if path is not None:
        print(f"report written: {path}")
    return EXIT_OK if payload["passed"] else EXIT_FAIL


def _cmd_algebra(args) -> int:
    from .cocycle import central_extensions, jacobi_check

    spec = _load_algebra(args.source)
    if args.subcommand == "verify":
        res = jacobi_check(spec)
        detail = {
            "source": args.source,
            "generators": list(spec.names),
            "ok": res.ok,
        }
        if not res.ok:
            detail["failing_triple"] = list(res.triple)
            detail["residual"] = {k: str(v) for k, v in res.residual.items()}
            print(f"jacobi identity: FAIL at {res.triple}")
        else:
            print(f"jacobi identity: PASS ({spec.dim} generators)")
        return _emit("algebra verify",
                     [report.check_record("jacobi-identity", res.ok, detail)])

    ext = central_extensions(spec)
    reps = []
    for r in range(ext.h2):
        support = ext.representative_support(r)
        reps.append({f"{a},{b}": str(c) for (a, b), c in support.items()})
    detail = {
        "source": args.source,
        "generators": list(spec.names),
        "cocycle_dim": ext.cocycle_dim,
        "coboundary_dim": ext.coboundary_dim,
        "h2": ext.h2,
        "representatives": reps,
    }
    print(f"cocycle space dimension:    {ext.cocycle_dim}")
    print(f"coboundary space dimension: {ext.coboundary_dim}")
    print(f"independent central classes: {ext.h2}")
    for k, rep_support in enumerate(reps):
        terms = ", ".join(f"b({pair}) = {c}" for pair, c in sorted(rep_support.items()))
        print(f"  class {k + 1}: {terms if terms else '0'}")
    return _emit("algebra cohomology",
                 [report.check_record("extension-space", True, detail)])


def _cmd_realize(args) -> int:
    from .galrealize import (
        TABLE_CORRECTED,
        TABLE_LITERAL,
        extend_lambda,
        kappa_shift,
        realize,
        verify_structure,
    )

    g = realize(args.model, args.spin_s, args.rank)
    reg = g.registry
    if args.lam is not None:
        g = extend_lambda(g, _param_value(reg, args.lam))
    if args.shift is not None:
        g = kappa_shift(g, _param_value(reg, args.shift))

    table = TABLE_LITERAL if args.strict_literal else TABLE_CORRECTED
    rep = verify_structure(g, table)

    mass_ok = rep.mass == reg.symbol("m")
    checks = [
        report.check_record("structure-table", rep.overall, rep.to_dict()),
        report.check_record(
            "second-extension-parameter",
            rep.kappa is not None,
            {"value": None if rep.kappa is None else str(rep.kappa)},
        ),
        report.check_record(
            "mass-parameter",
            mass_ok,
            {"value": None if rep.mass is None else str(rep.mass)},
        ),
    ]

    print(f"model: {args.model}   table: {table}")
    print(f"extracted second extension parameter: "
          f"{'<none>' if rep.kappa is None else rep.kappa}")
    print(f"extracted mass: {'<none>' if rep.mass is None else rep.mass}")
    for row in rep.rows:
        mark = "pass" if row.passed else "FAIL"
        line = f"  [{row.lhs},{row.rhs}] {mark}"
        if not row.passed:
            line += f"  computed {row.computed}, expected {row.expected}"
            if row.note:
                line += f"  ({row.note})"
        print(line)
    overall = all(check["passed"] for check in checks)
    print(f"result: {'PASS' if overall else 'FAIL'}")
    return _emit(f"realize {args.model}", checks)


def _cmd_fieldcheck(args) -> int:
    from .fieldcheck import (
        conservation_rows,
        check_boost_covariance,
        check_rotation_covariance,
        multispinor_equations,
    )
    from .galrealize import check_rank, check_spin

    # the validated --spin-s label, or both labels when the flag is absent
    spins = (1, -1) if args.spin_s is None else (check_spin(args.spin_s),)
    check_rank(args.rank)  # every check takes --rank, though only multispinor-eqs reads it
    if args.check != "conservation":
        for flag, value in (("--index", args.index), ("--variant", args.variant)):
            if value is not None:
                raise BadParameter(f"{flag} applies only to fieldcheck conservation")
    if args.check == "conservation":
        variant = args.variant or "corrected"
        indices = (args.index,) if args.index else (1, 2)
        rows = []
        # one context per process for every row: one registry, one on-shell table per spin
        for i, s, resid in conservation_rows(indices, spins, variant):
            rows.append({
                "index": i,
                "spin": s,
                "residual": str(resid),
                "zero": resid.is_zero,
            })
            mark = "pass" if resid.is_zero else "FAIL"
            print(f"  divergence (index {i}, spin {s:+d}): {mark}")
            if not resid.is_zero:
                print(f"    residual: {resid}")
        ok = all(r["zero"] for r in rows)
        return _emit("fieldcheck conservation", [report.check_record(
            "conservation-law", ok, {"variant": variant, "rows": rows})])

    if args.check in ("boost", "rotation"):
        check = check_boost_covariance if args.check == "boost" else check_rotation_covariance
        checks = []
        for s in spins:
            res = check(s)
            checks.append(report.check_record(f"{args.check}-covariance", True, res.to_dict()))
            print(f"spin {s:+d}: intertwining matrix")
            for row in res.lam:
                print("   [" + ", ".join(str(e) for e in row) + "]")
        return _emit(f"fieldcheck {args.check}", checks)

    # multispinor-eqs
    res = multispinor_equations(args.rank, spins[0])
    print(f"rank {res.rank}: reduced system has 2 distinct equations; "
          f"{res.nullity} symmetric component(s) unconstrained; "
          f"second-row scale {res.row_scale}")
    return _emit("fieldcheck multispinor-eqs",
                 [report.check_record("multispinor-redundancy", True, res.to_dict())])


def _cmd_numcheck(args) -> int:
    from .numtrunc import run_numeric_check  # loads numpy, which no other command needs

    rep = run_numeric_check(
        model=args.model,
        m=args.m,
        t=args.t,
        n_max=args.nmax,
        low=args.low,
        tol=args.tol,
        spin_s=args.spin_s,
        rank=args.rank,
    )
    for row in rep.rows:
        tag = "exact zero" if row.exact_zero else f"{row.residual:.3e}"
        mark = "pass" if row.passed else "FAIL"
        print(f"  [{row.lhs},{row.rhs}] residual {tag}  {mark}")
    print(f"result: {'PASS' if rep.overall else 'FAIL'} "
          f"(n_max {rep.n_max}, low block {rep.low_cutoff}, tol {rep.tol:g})")
    return _emit("numcheck",
                 [report.check_record("numeric-residuals", rep.overall, rep.to_dict())])


def _run(argv: Optional[List[str]]) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_direct(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if args.command == "algebra":
            return _cmd_algebra(args)
        if args.command == "realize":
            return _cmd_realize(args)
        if args.command == "fieldcheck":
            return _cmd_fieldcheck(args)
        return _cmd_numcheck(args)
    except (AlgebraFileError, BadSpin, BadRank, BadMass, BadParameter, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GalkappaError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _run(argv)
        # a buffered stdout meets a closed reader here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`): the output is
        # truncated, so the run is not a pass.  stdout now points at devnull,
        # so the interpreter's own final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
