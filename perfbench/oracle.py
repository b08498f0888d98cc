"""Known answers for every verdict kind, held by the benchmark itself.

The expected values are transcribed from the package documentation
(``docs/planar-extensions.md`` and the command-line behaviour in README)
and from facts that hold by construction (a table over seven generators
has 21 pairs; a change of basis leaves the extension dimensions alone).
Nothing here imports galkappa or recomputes an answer with its code.

``check`` returns the list of ways one result differs from its known
answer; an empty list is a correct verdict.
"""

from __future__ import annotations

import itertools
import re
from typing import List, Optional

# (cocycles, coboundaries, h2) per algebra, from the results table in
# docs/planar-extensions.md.  planar_galilei has h2 = 3 (hand-derived and
# sympy-confirmed there).
EXTENSION_DIMS = {
    "planar_galilei": (7, 4, 3),
    "planar_galilei_literal": (9, 4, 5),
    "planar_galilei_mass": (7, 5, 2),
    "galilei_1d": (3, 1, 2),
    "galilei_3p1": (10, 9, 1),
    "so3": (3, 3, 0),
}

GENERATORS = ("P1", "P2", "H", "J", "K1", "K2", "M")
TABLE_PAIRS = frozenset(frozenset(p) for p in itertools.combinations(GENERATORS, 2))
LITERAL_FAILURES = {"[K1,H]", "[K2,H]"}

REPORT_NAME = {
    "algebra-verify": "algebra-verify",
    "algebra-cohomology": "algebra-cohomology",
    "conservation": "fieldcheck-conservation",
    "boost": "fieldcheck-boost",
    "rotation": "fieldcheck-rotation",
    "multispinor-eqs": "fieldcheck-multispinor-eqs",
    "numcheck": "numcheck",
}


def report_name(argv: List[str], expect: dict) -> str:
    """File stem of the JSON report the command writes."""
    if expect["kind"] == "realize":
        return f"realize-{argv[1]}"
    return REPORT_NAME[expect["kind"]]


_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def constant_term(poly_text: str) -> str:
    """The constant term of a printed polynomial, '0' if it has none.

    Terms are joined by ' + ' or ' - ' at top level; a term is constant when
    every factor is a number or the imaginary unit.
    """
    text = poly_text.strip()
    pieces = re.split(r" ([+-]) ", text)
    signs = ["+"] + pieces[1::2]
    const = []
    for sign, term in zip(signs, pieces[0::2]):
        names = [n for n in _SYMBOL.findall(term) if n != "i"]
        if not names:
            const.append(term if sign == "+" else "-" + term)
    return " + ".join(const) if const else "0"


def check(expect: dict, exit_code: Optional[int], stdout: str,
          report: Optional[dict]) -> List[str]:
    """Every difference between one CLI result and its known answer."""
    kind = expect["kind"]
    want_exit = expect.get("exit", 0)
    if kind == "realize" and expect["literal"]:
        want_exit = 1
    problems: List[str] = []
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    if report is None:
        return problems + ["no report written"]
    try:
        problems += _CHECKS[kind](expect, stdout, report)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"report does not have the documented shape: {exc!r}")
    return problems


def _single(report: dict, command: str, anchor: str) -> dict:
    if report["command"] != command:
        raise ValueError(f"command {report['command']!r}")
    (rec,) = [c for c in report["checks"] if c["anchor"] == anchor]
    return rec


def _check_verify(expect, stdout, report):
    rec = _single(report, "algebra verify", "jacobi-identity")
    out = []
    if not (report["passed"] and rec["passed"] and rec["detail"]["ok"]):
        out.append("Jacobi identity not reported as passing")
    if len(rec["detail"]["generators"]) != expect["dim"]:
        out.append(f"generator count {len(rec['detail']['generators'])}")
    if f"jacobi identity: PASS ({expect['dim']} generators)" not in stdout:
        out.append("stdout lacks the PASS line")
    return out


def _check_cohomology(expect, stdout, report):
    detail = _single(report, "algebra cohomology", "extension-space")["detail"]
    got = (detail["cocycle_dim"], detail["coboundary_dim"], detail["h2"])
    want = tuple(expect["dims"])
    out = []
    if got != want:
        out.append(f"(cocycles, coboundaries, h2) = {got}, expected {want}")
    reps = detail["representatives"]
    if len(reps) != want[2] or any(not r for r in reps):
        out.append(f"{len(reps)} representatives for h2 = {want[2]}")
    if f"independent central classes: {want[2]}" not in stdout:
        out.append("stdout lacks the class count")
    return out


def _check_realize(expect, stdout, report):
    out = []
    by_anchor = {c["anchor"]: c for c in report["checks"]}
    table = by_anchor["structure-table"]
    rows = table["detail"]["rows"]
    pairs = {frozenset(r["pair"].strip("[]").split(",")) for r in rows}
    if pairs != TABLE_PAIRS or len(rows) != len(TABLE_PAIRS):
        out.append("table rows do not cover the 21 generator pairs once each")
    failing = {r["pair"] for r in rows if not r["passed"]}
    want_failing = LITERAL_FAILURES if expect["literal"] else set()
    if failing != want_failing:
        out.append(f"failing rows {sorted(failing)}, expected {sorted(want_failing)}")
    if any("note" not in r for r in rows if not r["passed"]):
        out.append("a failing row carries no note")
    if table["passed"] == expect["literal"]:
        out.append("structure-table verdict is wrong")
    if table["detail"]["table"] != ("literal" if expect["literal"] else "corrected"):
        out.append(f"table variant {table['detail']['table']!r}")
    kappa = by_anchor["second-extension-parameter"]
    if not kappa["passed"] or kappa["detail"]["value"] != expect["kappa"]:
        out.append(f"kappa {kappa['detail']['value']!r}, expected {expect['kappa']!r}")
    mass = by_anchor["mass-parameter"]
    if not mass["passed"] or mass["detail"]["value"] != "m":
        out.append(f"mass {mass['detail']['value']!r}, expected 'm'")
    verdict = "FAIL" if expect["literal"] else "PASS"
    if f"result: {verdict}" not in stdout:
        out.append(f"stdout lacks 'result: {verdict}'")
    return out


def _check_conservation(expect, stdout, report):
    rec = _single(report, "fieldcheck conservation", "conservation-law")
    rows = rec["detail"]["rows"]
    out = []
    if len(rows) != expect["rows"]:
        out.append(f"{len(rows)} divergence rows, expected {expect['rows']}")
    closes = expect.get("exit", 0) == 0
    if closes and not all(r["zero"] and r["residual"] == "0" for r in rows):
        out.append("a divergence does not vanish on shell")
    if not closes and all(r["zero"] for r in rows):
        out.append("the literal current is reported as conserved")
    if rec["passed"] != closes:
        out.append("conservation verdict is wrong")
    return out


def _check_covariance(expect, stdout, report):
    kind = expect["kind"]
    anchor = f"{kind}-covariance"
    if report["command"] != f"fieldcheck {kind}":
        return [f"command {report['command']!r}"]
    recs = report["checks"]
    out = []
    if [r["detail"]["spin"] for r in recs] != expect["spins"]:
        out.append(f"spins {[r['detail']['spin'] for r in recs]}, expected {expect['spins']}")
    for rec in recs:
        if rec["anchor"] != anchor or not rec["passed"]:
            out.append(f"{anchor} not passing for spin {rec['detail']['spin']}")
        matrix = rec["detail"]["matrix"]
        if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
            out.append("intertwining matrix is not 2x2")
        elif kind == "boost":
            at_zero = [[constant_term(e) for e in row] for row in matrix]
            if at_zero != [["1", "0"], ["0", "1"]]:
                out.append(f"boost matrix at v = 0 is {at_zero}, not the identity")
    return out


def _check_multispinor(expect, stdout, report):
    detail = _single(report, "fieldcheck multispinor-eqs", "multispinor-redundancy")["detail"]
    out = []
    if (detail["rank"], detail["spin"]) != (expect["rank"], expect["spin"]):
        out.append(f"rank/spin {(detail['rank'], detail['spin'])}")
    if detail["nullity"] != expect["rank"] - 1:
        out.append(f"nullity {detail['nullity']}, expected {expect['rank'] - 1}")
    if "2 distinct equations" not in stdout:
        out.append("stdout lacks the two-equation line")
    return out


def _check_numcheck(expect, stdout, report):
    rec = _single(report, "numcheck", "numeric-residuals")
    detail = rec["detail"]
    rows = detail["rows"]
    out = []
    if not (rec["passed"] and detail["overall"]):
        out.append("numeric check not reported as passing")
    if (detail["n_max"], detail["low_cutoff"]) != (expect["n_max"], expect["low"]):
        out.append(f"n_max/low {(detail['n_max'], detail['low_cutoff'])}")
    if {frozenset(r["pair"]) for r in rows} != TABLE_PAIRS or len(rows) != len(TABLE_PAIRS):
        out.append("rows do not score the 21 generator pairs once each")
    bad = [r["pair"] for r in rows if not r["passed"]]
    if bad:
        out.append(f"failing rows {bad}")
    boosts = [r for r in rows if r["pair"] == ["K1", "K2"]]
    if len(boosts) != 1 or not boosts[0]["exact_zero"]:
        out.append("[K1,K2] residual is not exactly zero")
    if "result: PASS" not in stdout:
        out.append("stdout lacks 'result: PASS'")
    return out


_CHECKS = {
    "algebra-verify": _check_verify,
    "algebra-cohomology": _check_cohomology,
    "realize": _check_realize,
    "conservation": _check_conservation,
    "boost": _check_covariance,
    "rotation": _check_covariance,
    "multispinor-eqs": _check_multispinor,
    "numcheck": _check_numcheck,
}
