"""Seeded workload decks: the argv of every verdict plus its known answer.

A deck is a fixed list of verdicts.  The seed chooses parameter values
(the rationals of each change of basis, shift and lambda values, spins,
ranks, masses and times), but the composition of a deck -- which command,
which algebra and basis shape, which truncation size -- is fixed per
workload, so every seed loads the program with the same mix.  The
program only ever receives the argv and the files written here; nothing in
this module imports galkappa.

Known answers come from ``oracle``; they are held by the benchmark and are
never derived from the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import oracle

# -- the verdict record -------------------------------------------------------


@dataclass
class Verdict:
    """One CLI call and the answer it must give."""

    argv: List[str]
    expect: dict
    files: Dict[str, str] = field(default_factory=dict)  # relative name -> text


# -- exact algebras over plain Fractions ----------------------------------------
#
# Coefficients are (re, im) pairs of Fractions.  Each table is transcribed
# from the package's documented bundled algebras; see oracle.EXTENSION_DIMS
# for the dimensions each one must give.

_I = (Fraction(0), Fraction(1))
_MI = (Fraction(0), Fraction(-1))

ALGEBRAS: Dict[str, Tuple[Tuple[str, ...], Dict[Tuple[str, str], Dict[str, tuple]]]] = {
    "planar_galilei": (
        ("P1", "P2", "H", "J", "K1", "K2"),
        {
            ("J", "P1"): {"P2": _I}, ("J", "P2"): {"P1": _MI},
            ("J", "K1"): {"K2": _I}, ("J", "K2"): {"K1": _MI},
            ("K1", "H"): {"P1": _I}, ("K2", "H"): {"P2": _I},
        },
    ),
    "planar_galilei_literal": (
        ("P1", "P2", "H", "J", "K1", "K2"),
        {
            ("J", "P1"): {"P2": _I}, ("J", "P2"): {"P1": _MI},
            ("J", "K1"): {"K2": _I}, ("J", "K2"): {"K1": _MI},
        },
    ),
    "planar_galilei_mass": (
        ("P1", "P2", "H", "J", "K1", "K2", "M"),
        {
            ("J", "P1"): {"P2": _I}, ("J", "P2"): {"P1": _MI},
            ("J", "K1"): {"K2": _I}, ("J", "K2"): {"K1": _MI},
            ("K1", "H"): {"P1": _I}, ("K2", "H"): {"P2": _I},
            ("K1", "P1"): {"M": _I}, ("K2", "P2"): {"M": _I},
        },
    ),
    "galilei_1d": (("H", "P", "K"), {("K", "H"): {"P": _I}}),
    "so3": (
        ("X1", "X2", "X3"),
        {("X1", "X2"): {"X3": _I}, ("X2", "X3"): {"X1": _I}, ("X1", "X3"): {"X2": _MI}},
    ),
    "galilei_3p1": (
        ("P1", "P2", "P3", "H", "J1", "J2", "J3", "K1", "K2", "K3"),
        {
            ("J1", "J2"): {"J3": _I}, ("J1", "J3"): {"J2": _MI}, ("J2", "J3"): {"J1": _I},
            ("J1", "P2"): {"P3": _I}, ("J1", "P3"): {"P2": _MI},
            ("J2", "P1"): {"P3": _MI}, ("J2", "P3"): {"P1": _I},
            ("J3", "P1"): {"P2": _I}, ("J3", "P2"): {"P1": _MI},
            ("J1", "K2"): {"K3": _I}, ("J1", "K3"): {"K2": _MI},
            ("J2", "K1"): {"K3": _MI}, ("J2", "K3"): {"K1": _I},
            ("J3", "K1"): {"K2": _I}, ("J3", "K2"): {"K1": _MI},
            ("K1", "H"): {"P1": _I}, ("K2", "H"): {"P2": _I}, ("K3", "H"): {"P3": _I},
        },
    ),
}


def _structure_tensor(name: str):
    """f[i][j] = {k: (re, im)} for the named algebra, both index orders."""
    names, table = ALGEBRAS[name]
    idx = {n: k for k, n in enumerate(names)}
    n = len(names)
    f = [[{} for _ in range(n)] for _ in range(n)]
    for (a, b), rhs in table.items():
        i, j = idx[a], idx[b]
        for target, (re, im) in rhs.items():
            k = idx[target]
            f[i][j][k] = (re, im)
            f[j][i][k] = (-re, -im)
    return names, f


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, 2, 3)) * rng.choice((1, -1)), rng.choice((1, 2, 3)))


def _inverse(mat: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(mat)
    work = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                fac = work[r][col]
                work[r] = [a - fac * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def transformed_brackets(name: str, steps: int, shape: random.Random,
                         values: random.Random):
    """The named algebra's structure constants in a random rational basis.

    The new basis is y = A x, where A is a generator permutation followed by
    `steps` elementary row operations y_a += r * y_b.  `shape` draws the
    permutation and the pairs (a, b); `values` draws the nonzero rationals
    r.  Returns g with g[a][b] = {c: (re, im)} for a < b, from
    [y_a, y_b] = sum A_ai A_bj f_ij^k (A^-1)_kc y_c.
    """
    names, f = _structure_tensor(name)
    n = len(names)
    perm = list(range(n))
    shape.shuffle(perm)
    A = [[Fraction(int(perm[r] == c)) for c in range(n)] for r in range(n)]
    for _ in range(steps):
        a, b = shape.sample(range(n), 2)
        r = _random_rational(values)
        A[a] = [x + r * y for x, y in zip(A[a], A[b])]
    B = _inverse(A)

    g = [[{} for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            # [y_a, y_b] expanded on the old basis x_k
            old: Dict[int, List[Fraction]] = {}
            for i in range(n):
                if A[a][i] == 0:
                    continue
                for j in range(n):
                    w = A[a][i] * A[b][j]
                    if w == 0:
                        continue
                    for k, (re, im) in f[i][j].items():
                        acc = old.setdefault(k, [Fraction(0), Fraction(0)])
                        acc[0] += w * re
                        acc[1] += w * im
            for c in range(n):
                re = sum((acc[0] * B[k][c] for k, acc in old.items()), Fraction(0))
                im = sum((acc[1] * B[k][c] for k, acc in old.items()), Fraction(0))
                if re != 0 or im != 0:
                    g[a][b][c] = (re, im)
    return g


def render_alg(g) -> str:
    """Structure constants g[a][b] (a < b) as an algebra file over Y0, Y1, ..."""
    n = len(g)
    lines = ["generators: " + " ".join(f"Y{k}" for k in range(n))]
    for a in range(n):
        for b in range(a + 1, n):
            terms = []
            for c, (re, im) in sorted(g[a][b].items()):
                for part, suffix in ((re, ""), (im, "*i")):
                    if part != 0:
                        terms.append((part, f"{_literal(abs(part))}{suffix}*Y{c}"))
            if terms:
                rhs = "-" * (terms[0][0] < 0) + terms[0][1]
                for value, body in terms[1:]:
                    rhs += f" {'-' if value < 0 else '+'} {body}"
                lines.append(f"[Y{a}, Y{b}] = {rhs}")
    return "\n".join(lines) + "\n"


def _literal(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- workload decks ------------------------------------------------------------


def _cohomology_deck(rng: random.Random) -> List[Verdict]:
    deck = []
    classes = [(name, steps) for name, steps, count in COHOMOLOGY_MIX for _ in range(count)]
    for k, (name, steps) in enumerate(classes):
        fname = f"alg{k:02d}_{name}_s{steps}.alg"
        # The shape of slot k (permutation, which generators combine) is
        # fixed, so every seed gets the same sparsity and a deck's cost does
        # not depend on which shapes a seed happens to draw; the seed draws
        # the rationals.
        shape = random.Random(f"shape:{k}")
        text = render_alg(transformed_brackets(name, steps, shape, rng))
        n = len(ALGEBRAS[name][0])
        files = {fname: text}
        deck.append(Verdict(["algebra", "verify", fname],
                            {"kind": "algebra-verify", "dim": n}, files))
        deck.append(Verdict(["algebra", "cohomology", fname],
                            {"kind": "algebra-cohomology", "dims": oracle.EXTENSION_DIMS[name]},
                            files))
    return deck


# (algebra, elementary steps, bases per deck).  Cost rises steeply with
# the step count, because every step densifies the structure constants and
# grows their fractions; galilei_3p1 is kept at a low density for that
# reason.  Several bases per class average out the spread in cost between
# one random basis and the next.
COHOMOLOGY_MIX: List[Tuple[str, int, int]] = [
    ("planar_galilei", 0, 4), ("planar_galilei", 2, 4), ("planar_galilei", 4, 4),
    ("planar_galilei", 6, 3), ("planar_galilei", 8, 2),
    ("planar_galilei_mass", 2, 4), ("planar_galilei_mass", 4, 3),
    ("planar_galilei_mass", 6, 2),
    ("planar_galilei_literal", 2, 4), ("planar_galilei_literal", 4, 4),
    ("planar_galilei_literal", 6, 3),
    ("galilei_1d", 1, 4), ("galilei_1d", 3, 4),
    ("so3", 1, 4), ("so3", 3, 4),
    ("galilei_3p1", 1, 2),
]


def _rational_text(rng: random.Random) -> Tuple[str, Fraction]:
    q = _random_rational(rng)
    return _literal(q) if q > 0 else "-" + _literal(-q), q


def _balanced(rng: random.Random, levels, count: int) -> list:
    """`count` draws holding every level equally often, in seeded order."""
    out = [levels[k % len(levels)] for k in range(count)]
    rng.shuffle(out)
    return out


def _realize_verdicts(rng: random.Random) -> List[Verdict]:
    out = []
    models = ["schrodinger"] * 21 + ["levyleblond"] * 21 + ["multispinor"] * 42
    count = len(models)
    spins = _balanced(rng, (1, -1), count)
    ranks = _balanced(rng, (1, 2, 3, 4), count)
    shifts = _balanced(rng, (None, "c", "q"), count)
    lams = _balanced(rng, (None, "lam", "q"), count)
    tables = _balanced(rng, ("corrected", "corrected", "literal"), count)
    for k, model in enumerate(models):
        argv = ["realize", model, f"--spin-s={spins[k]}"]
        if model == "multispinor":
            argv.append(f"--rank={ranks[k]}")
        kappa = "0"
        if shifts[k] == "c":
            argv.append("--shift=c")
            kappa = "-c"
        elif shifts[k] == "q":
            text, q = _rational_text(rng)
            argv.append(f"--shift={text}")
            kappa = str(-q)  # reports print a real rational as 2 or -3/4
        if lams[k] == "lam":
            argv.append("--lambda=lam")
        elif lams[k] == "q":
            argv.append(f"--lambda={_rational_text(rng)[0]}")
        literal = tables[k] == "literal"
        if literal:
            argv.append("--strict-literal-table")
        out.append(Verdict(argv, {"kind": "realize", "kappa": kappa, "literal": literal}))
    return out


def _fieldcheck_verdicts(rng: random.Random) -> List[Verdict]:
    out = []
    for _ in range(2):
        out.append(Verdict(["fieldcheck", "conservation"],
                           {"kind": "conservation", "rows": 4, "exit": 0}))
    for index, spin in rng.sample([(i, s) for i in (1, 2) for s in (1, -1)], 2):
        out.append(Verdict(["fieldcheck", "conservation", f"--index={index}",
                            f"--spin-s={spin}"],
                           {"kind": "conservation", "rows": 1, "exit": 0}))
    out.append(Verdict(["fieldcheck", "conservation", "--variant=literal"],
                       {"kind": "conservation", "rows": 4, "exit": 1}))
    for check in ("boost", "rotation"):
        out.append(Verdict(["fieldcheck", check], {"kind": check, "spins": [1, -1]}))
        spin = rng.choice((1, -1))
        out.append(Verdict(["fieldcheck", check, f"--spin-s={spin}"],
                           {"kind": check, "spins": [spin]}))
    for rank in (1, 2, 3, 4):
        spin = rng.choice((1, -1))
        out.append(Verdict(["fieldcheck", "multispinor-eqs", f"--rank={rank}",
                            f"--spin-s={spin}"],
                           {"kind": "multispinor-eqs", "rank": rank, "spin": spin}))
    return out


def _realize_fieldcheck_deck(rng: random.Random) -> List[Verdict]:
    deck = (_realize_verdicts(rng) + _fieldcheck_verdicts(rng) + _fieldcheck_verdicts(rng)
            + _numcheck_verdicts(rng))
    rng.shuffle(deck)
    return deck


# A small numcheck share (n_max 8 to 12, about a tenth of a pass) keeps the
# numtrunc layer measured.  A workload of its own, with n_max up to 24, was
# dropped: its BLAS-bound times spread by 17-25 % between runs on a busy
# host, and the Fraction reference loop could not take that out.
NUMCHECK_SIZES = (8, 9, 10, 11, 12, 12)


def _numcheck_verdicts(rng: random.Random) -> List[Verdict]:
    deck = []
    for n_max in NUMCHECK_SIZES:
        low = max(2, round(n_max / 3))
        model = rng.choice(("schrodinger", "levyleblond", "multispinor"))
        m = f"{rng.uniform(0.5, 2.0):.4f}"
        t = f"{rng.uniform(0.0, 1.0):.4f}"
        argv = ["numcheck", f"--model={model}", f"--nmax={n_max}", f"--low={low}",
                f"--m={m}", f"--t={t}", f"--spin-s={rng.choice((1, -1))}",
                f"--rank={rng.randint(1, 4)}"]
        deck.append(Verdict(argv, {"kind": "numcheck", "n_max": n_max, "low": low}))
    return deck


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], List[Verdict]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cohomology-bases",
            "dense structure constants with growing fractions load exact scalars "
            "and cocycle elimination; weylop, fieldcheck and numtrunc are bypassed",
            _cohomology_deck,
        ),
        Workload(
            "realize-fieldcheck",
            "operator composition, small-coefficient polynomials and on-shell "
            "reduction, plus a small numcheck share; elimination is bypassed",
            _realize_fieldcheck_deck,
        ),
    )
}


def build_deck(workload: str, seed: int) -> List[Verdict]:
    """The workload's deck for this seed; the same seed gives the same deck."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
