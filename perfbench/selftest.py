"""Self-test of the benchmark's own parts; needs no galkappa.

    python3 perfbench/selftest.py

1. The oracle accepts a fabricated correct result of every verdict kind and
   flags each fabricated wrong one (a wrong dimension, kappa, exit code,
   nullity, residual, a missing report ...).  Nothing in the program is
   changed to produce the wrong verdicts.
2. Every generated change of basis still satisfies the Jacobi identity,
   checked with plain Fractions.
3. The same seed gives the same deck; another seed gives other inputs.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402


def _report(command, checks):
    return {"command": command, "passed": all(c["passed"] for c in checks),
            "checks": checks, "tool_version": "0.1.0"}


def _rec(anchor, passed, detail):
    return {"anchor": anchor, "passed": passed, "detail": detail}


def _table_rows(literal):
    """21 passing rows; the literal table fails [K1,H] and [K2,H] with a note."""
    rows = []
    for a, b in itertools.combinations(oracle.GENERATORS, 2):
        if (a, b) in (("H", "K1"), ("H", "K2")):
            a, b = b, a
        row = {"pair": f"[{a},{b}]", "passed": True, "computed": "0", "expected": "0",
               "residual": "0"}
        if literal and a in ("K1", "K2") and b == "H":
            row.update(passed=False, note="literal variant pins this bracket to zero")
        rows.append(row)
    return rows


def correct_results():
    """(expect, exit code, stdout, report) for a correct verdict of every kind."""
    gens = ["Y0", "Y1", "Y2", "Y3", "Y4", "Y5"]
    out = [
        ({"kind": "algebra-verify", "dim": 6}, 0, "jacobi identity: PASS (6 generators)\n",
         _report("algebra verify", [_rec("jacobi-identity", True,
                                         {"ok": True, "generators": gens, "source": "a"})])),
        ({"kind": "algebra-cohomology", "dims": (7, 4, 3)}, 0,
         "independent central classes: 3\n",
         _report("algebra cohomology", [_rec("extension-space", True, {
             "cocycle_dim": 7, "coboundary_dim": 4, "h2": 3, "generators": gens,
             "representatives": [{"Y0,Y1": "1"}, {"Y2,Y3": "1"}, {"Y4,Y5": "1"}]})])),
    ]
    for literal, kappa in ((False, "-c"), (True, "3/4")):
        rows = _table_rows(literal)
        out.append((
            {"kind": "realize", "kappa": kappa, "literal": literal}, int(literal),
            f"result: {'FAIL' if literal else 'PASS'}\n",
            _report("realize multispinor", [
                _rec("structure-table", not literal,
                     {"table": "literal" if literal else "corrected", "rows": rows,
                      "overall": not literal, "kappa": kappa, "mass": "m"}),
                _rec("second-extension-parameter", True, {"value": kappa}),
                _rec("mass-parameter", True, {"value": "m"}),
            ])))
    zero_rows = [{"index": i, "spin": s, "residual": "0", "zero": True}
                 for i in (1, 2) for s in (1, -1)]
    out.append(({"kind": "conservation", "rows": 4, "exit": 0}, 0, "",
                _report("fieldcheck conservation",
                        [_rec("conservation-law", True, {"variant": "corrected",
                                                         "rows": zero_rows})])))
    lit_rows = copy.deepcopy(zero_rows)
    lit_rows[0].update(residual="m*phi", zero=False)
    out.append(({"kind": "conservation", "rows": 4, "exit": 1}, 1, "",
                _report("fieldcheck conservation",
                        [_rec("conservation-law", False, {"variant": "literal",
                                                          "rows": lit_rows})])))
    boost_matrix = [["1", "-1/2*i*v2 + 1/2*v1"],
                    ["1/2*i*v2 + 1/2*v1", "1 + 1/4*v2^2 + 1/4*v1^2"]]
    out.append(({"kind": "boost", "spins": [1, -1]}, 0, "",
                _report("fieldcheck boost", [
                    _rec("boost-covariance", True, {"spin": s, "matrix": boost_matrix,
                                                    "convention": {}})
                    for s in (1, -1)])))
    out.append(({"kind": "rotation", "spins": [-1]}, 0, "",
                _report("fieldcheck rotation", [
                    _rec("rotation-covariance", True,
                         {"spin": -1, "matrix": [["0", "0"], ["0", "1/2*i"]]})])))
    out.append(({"kind": "multispinor-eqs", "rank": 3, "spin": 1}, 0,
                "rank 3: reduced system has 2 distinct equations\n",
                _report("fieldcheck multispinor-eqs", [_rec(
                    "multispinor-redundancy", True,
                    {"rank": 3, "spin": 1, "nullity": 2, "matrix": [], "row_scale": "1"})])))
    num_rows = [{"pair": [a, b], "max_abs_residual": 1e-15, "passed": True,
                 "exact_zero": (a, b) == ("K1", "K2")}
                for a, b in itertools.combinations(oracle.GENERATORS, 2)]
    out.append(({"kind": "numcheck", "n_max": 12, "low": 4}, 0, "result: PASS\n",
                _report("numcheck", [_rec("numeric-residuals", True, {
                    "n_max": 12, "low_cutoff": 4, "overall": True, "rows": num_rows})])))
    return out


def _set(path, value):
    """A mutation setting report[path...] = value."""
    def mutate(result):
        node = result[3]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


WRONG = {
    # kind -> [(what is wrong, mutation of (expect, exit, stdout, report))]
    "algebra-verify": [
        ("Jacobi reported failing", _set(["checks", 0, "detail", "ok"], False)),
        ("exit code 1", lambda r: r.__setitem__(1, 1)),
    ],
    "algebra-cohomology": [
        ("h2 = 2 instead of 3", _set(["checks", 0, "detail", "h2"], 2)),
        ("one coboundary too many", _set(["checks", 0, "detail", "coboundary_dim"], 5)),
        ("a representative missing", _set(["checks", 0, "detail", "representatives"],
                                          [{"Y0,Y1": "1"}, {"Y2,Y3": "1"}])),
        ("no report written", lambda r: r.__setitem__(3, None)),
    ],
    "realize": [
        ("kappa 0 instead of the expected value",
         _set(["checks", 1, "detail", "value"], "0")),
        ("mass 2*m", _set(["checks", 2, "detail", "value"], "2*m")),
        ("exit code flipped", lambda r: r.__setitem__(1, 1 - r[1])),
        ("a table row missing", lambda r: r[3]["checks"][0]["detail"]["rows"].pop()),
    ],
    "conservation": [
        ("exit code flipped", lambda r: r.__setitem__(1, 1 - r[1])),
        ("a row missing", lambda r: r[3]["checks"][0]["detail"]["rows"].pop(0)),
    ],
    "boost": [
        ("matrix is not the identity at v = 0",
         _set(["checks", 0, "detail", "matrix"], [["1", "1/2"], ["0", "1"]])),
        ("one spin missing", lambda r: r[3]["checks"].pop()),
    ],
    "rotation": [
        ("check not passing", _set(["checks", 0, "passed"], False)),
    ],
    "multispinor-eqs": [
        ("nullity N instead of N-1", _set(["checks", 0, "detail", "nullity"], 3)),
        ("raised instead of answering", lambda r: r.__setitem__(1, None)),
    ],
    "numcheck": [
        ("[K1,K2] not exactly zero",
         lambda r: [row.update(exact_zero=False) for row in r[3]["checks"][0]["detail"]["rows"]
                    if row["pair"] == ["K1", "K2"]]),
        ("a row over tolerance",
         lambda r: r[3]["checks"][0]["detail"]["rows"][0].update(passed=False)),
        ("truncation size differs", _set(["checks", 0, "detail", "n_max"], 16)),
    ],
}


def check_oracle(failures):
    count = 0
    for result in correct_results():
        expect, code, stdout, report = result
        problems = oracle.check(expect, code, stdout, report)
        count += 1
        if problems:
            failures.append(f"correct {expect['kind']} result flagged: {problems}")
        for label, mutate in WRONG[expect["kind"]]:
            bad = [copy.deepcopy(x) for x in result]
            mutate(bad)
            count += 1
            if not oracle.check(*bad):
                failures.append(f"wrong {expect['kind']} verdict not flagged: {label}")
    return count


def _jacobi_ok(g) -> bool:
    n = len(g)

    def br(i, j):
        if i == j:
            return {}
        if i < j:
            return g[i][j]
        return {k: (-re, -im) for k, (re, im) in g[j][i].items()}

    for i, j, k in itertools.combinations(range(n), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, (r1, i1) in br(a, b).items():
                for l, (r2, i2) in br(m, c).items():
                    re, im = acc.get(l, (Fraction(0), Fraction(0)))
                    acc[l] = (re + r1 * r2 - i1 * i2, im + r1 * i2 + i1 * r2)
        if any(v != (0, 0) for v in acc.values()):
            return False
    return True


def check_bases(failures):
    count = 0
    for name, steps, _ in workloads.COHOMOLOGY_MIX:
        for seed in range(3):
            g = workloads.transformed_brackets(name, steps, random.Random(seed),
                                               random.Random(seed + 100))
            count += 1
            if not _jacobi_ok(g):
                failures.append(f"basis change of {name} ({steps} steps) breaks Jacobi")
    return count


def check_decks(failures):
    count = 0
    for name in workloads.WORKLOADS:
        first = workloads.build_deck(name, 7)
        again = workloads.build_deck(name, 7)
        other = workloads.build_deck(name, 8)
        count += 2
        if [(v.argv, v.files) for v in first] != [(v.argv, v.files) for v in again]:
            failures.append(f"{name}: the same seed gave different inputs")
        if [(v.argv, v.files) for v in first] == [(v.argv, v.files) for v in other]:
            failures.append(f"{name}: another seed gave the same inputs")
    return count


def main() -> int:
    failures = []
    count = check_oracle(failures) + check_bases(failures) + check_decks(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {count - len(failures)} of {count} checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
