"""Byte-identity of algebra reports whose coefficients are large rationals.

The bundled algebras only carry the coefficients +-1, +-i and +-1/2, so their
golden digests (`test_golden_reports.py`) cannot catch a slip in reducing or
printing large Gaussian rationals.  Here bundled algebras are rewritten in
seeded random bases y = D A x: A is a generator permutation followed by
elementary steps y_a += r y_b with rationals r of about 20 bits in numerator
and denominator, and D scales two generators by Gaussian rationals.  The
structure constants of the new basis are computed with plain Fractions,
Gaussian rationals being (re, im) pairs, written as `.alg` text, and run
through `algebra verify` and `algebra cohomology`.

The digests were recorded when `Scalar` still stored its parts as two
Fractions.  When a report changes on purpose, regenerate them and record why
in CHANGES.md.
"""

import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import galkappa
from galkappa import report
from galkappa.cli import main

DATA = Path(galkappa.__file__).parent / "data"

# (bundled algebra, elementary steps)
BASES = [
    ("galilei_3p1", 2),
    ("planar_galilei_mass", 4),
    ("planar_galilei", 5),
    ("planar_gca", 2),
    ("so3", 3),
    ("galilei_1d", 3),
]

# "<command> <algebra>" -> (exit code, SHA-256 of the report file)
GOLDEN = {
    "algebra verify galilei_3p1": (0, "28e6648c201133966f3381b4d869e75b9da80fa67627a72028f876eabcf146eb"),
    "algebra cohomology galilei_3p1": (0, "c65823f9e34b1d9b23d0a1363d96b8ea471402c5e73b9eda8b8c78c33eb198fe"),
    "algebra verify planar_galilei_mass": (0, "f1be8ed635398be6b46a28b2f1f73f717cbfe7fb5445877c27aa9ca5a7bc784b"),
    "algebra cohomology planar_galilei_mass": (0, "03fb9cae332d5089f0bf4587580ed3892247cc81fcd5aa5a9f45f7ba27ea94e0"),
    "algebra verify planar_galilei": (0, "93e100a53f387245fbf98bf8cb5cce6c2f335d36d29203c45abb89445b01d946"),
    "algebra cohomology planar_galilei": (0, "3bee2dd2650563471e0b58594081d1510490bd8d8928c2d8eb43a99a3828fe51"),
    "algebra verify planar_gca": (0, "378acb9a22f2fa36f3f2515b8bded7be96ccca51b2d07ca9481ea9c32281224b"),
    "algebra cohomology planar_gca": (0, "274bde9e14651395b41e9cd04300c9ec5659178841c3a4532a9c478f27c6a447"),
    "algebra verify so3": (0, "764fd489ee44b80fff7d09b9ac70f93b7f5c6f6280324eb38d3f542c44d790db"),
    "algebra cohomology so3": (0, "4db34763adea6c4b86960fa50a511877cbec1ee54b35d4855fa21fcf4871f5d1"),
    "algebra verify galilei_1d": (0, "d7de42f990f8dae90b0e4f963316478238f39f43530654a9c28127f13e856a63"),
    "algebra cohomology galilei_1d": (0, "ce36fc6df5d3b6daa47aac8c30f2492e33c017cc4c6d7ddef9a26cd6bd2d67c0"),
}

_TERM = re.compile(r"^(-?)(?:(\d+)(?:/(\d+))?\*)?(i\*)?(\w+)$")


def structure_tensor(name):
    """f[i][j] = {k: (re, im)} of a bundled algebra, both index orders."""
    names, table = None, []
    for line in (DATA / f"{name}.alg").read_text().splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("generators:"):
            names = line.split(":")[1].split()
        elif line.startswith("["):
            pair, rhs = line.split("=")
            table.append((pair.strip("[] ").replace(" ", "").split(","), rhs.strip()))
    idx = {n: k for k, n in enumerate(names)}
    f = [[{} for _ in names] for _ in names]
    for (a, b), rhs in table:
        if rhs == "0":
            continue
        sign, num, den, imag, target = _TERM.match(rhs).groups()
        q = Fraction(int(num or 1), int(den or 1)) * (-1 if sign else 1)
        value = (Fraction(0), q) if imag else (q, Fraction(0))
        i, j, k = idx[a], idx[b], idx[target]
        f[i][j][k] = value
        f[j][i][k] = (-value[0], -value[1])
    return len(names), f


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cinv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def big_rational(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 2**20), rng.randint(1, 2**20))


def inverse(mat):
    """Inverse of a real rational matrix by Gauss-Jordan elimination."""
    n = len(mat)
    work = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        work[col] = [e / work[col][col] for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                fac = work[r][col]
                work[r] = [a - fac * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def random_basis_text(name, steps):
    """The .alg text of a bundled algebra in a seeded random basis y = D A x."""
    rng = random.Random(f"growing:{name}:{steps}")
    n, f = structure_tensor(name)
    perm = list(range(n))
    rng.shuffle(perm)
    A = [[Fraction(int(perm[r] == c)) for c in range(n)] for r in range(n)]
    for _ in range(steps):
        a, b = rng.sample(range(n), 2)
        r = big_rational(rng)
        A[a] = [x + r * y for x, y in zip(A[a], A[b])]
    B = inverse(A)
    D = [(Fraction(1), Fraction(0))] * n
    for a in rng.sample(range(n), 2):
        D[a] = (big_rational(rng), big_rational(rng))

    lines = ["generators: " + " ".join(f"Y{k}" for k in range(n))]
    for a in range(n):
        for b in range(a + 1, n):
            # [y_a, y_b] = D_a D_b sum A_ai A_bj f_ij^k x_k, x_k = sum_c B_kc D_c^-1 y_c
            old = {}
            for i in range(n):
                for j in range(n):
                    w = A[a][i] * A[b][j]
                    if w == 0:
                        continue
                    for k, (re_, im_) in f[i][j].items():
                        acc = old.setdefault(k, [Fraction(0), Fraction(0)])
                        acc[0] += w * re_
                        acc[1] += w * im_
            scale = cmul(D[a], D[b])
            terms = []
            for c in range(n):
                coeff = (sum((acc[0] * B[k][c] for k, acc in old.items()), Fraction(0)),
                         sum((acc[1] * B[k][c] for k, acc in old.items()), Fraction(0)))
                coeff = cmul(cmul(coeff, scale), cinv(D[c]))
                for part, suffix in zip(coeff, ("", "i*")):
                    if part != 0:
                        terms.append((part, f"{abs(part)}*{suffix}Y{c}"))
            if terms:
                rhs = "-" * (terms[0][0] < 0) + terms[0][1]
                for value, body in terms[1:]:
                    rhs += f" {'-' if value < 0 else '+'} {body}"
                lines.append(f"[Y{a}, Y{b}] = {rhs}")
    return "\n".join(lines) + "\n"


def run_report(command, name, steps, directory):
    """Exit code and report digest of one command on the random-basis file.

    The file is written to `directory`, which must be the working directory
    and the report directory, so the report names it without a path.
    """
    source = f"{name}_s{steps}.alg"
    (directory / source).write_text(random_basis_text(name, steps))
    code = main([*command.split(), source])
    (path,) = directory.glob("*.json")
    return code, hashlib.sha256(path.read_bytes()).hexdigest()


CASES = [(command, name, steps) for name, steps in BASES
         for command in ("algebra verify", "algebra cohomology")]


@pytest.mark.parametrize("command,name,steps", CASES,
                         ids=[f"{c.split()[1]}-{n}" for c, n, _ in CASES])
def test_random_basis_report_is_byte_identical(command, name, steps, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    result = run_report(command, name, steps, tmp_path)
    capsys.readouterr()
    assert result == GOLDEN[f"{command} {name}"]
