"""The sparse elimination and the slotted Scalar against plain references.

`dense_rref` is the dense elimination the package used before row updates
were restricted to the pivot row's support; the sparse `_rref`, which takes
and returns `{column: (a, b, d)}` rows of canonical Scalar triples, must
return the identical `(rank, pivots, rows)` once its rows are written out
densely as Scalars.  Scalar
arithmetic is compared with the same formulas evaluated on plain
`(Fraction, Fraction)` pairs.
"""

import copy
import dataclasses
import math
import operator
import pickle
import random
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkappa import algfile, cocycle, exactscalar
from galkappa.cli import main
from galkappa.cocycle import _rref, central_extensions
from galkappa.errors import GalkappaError
from galkappa.exactscalar import ONE, ZERO, Scalar, _reduced, _sum_products
from galkappa.galrealize import kappa_shift, realize


def dense_rref(rows: List[List[Scalar]], ncols: int) -> Tuple[int, List[int], List[List[Scalar]]]:
    """Reduced row echelon form with deterministic first-nonzero pivoting."""
    work = [list(r) for r in rows]
    pivots: List[int] = []
    reduced: List[List[Scalar]] = []
    col = 0
    while col < ncols and work:
        hit = None
        for ridx, row in enumerate(work):
            if not row[col].is_zero:
                hit = ridx
                break
        if hit is None:
            col += 1
            continue
        row = work.pop(hit)
        inv = ONE / row[col]
        row = [e * inv for e in row]
        for other in work:
            if not other[col].is_zero:
                f = other[col]
                for c in range(ncols):
                    other[c] = other[c] - f * row[c]
        for other in reduced:
            if not other[col].is_zero:
                f = other[col]
                for c in range(ncols):
                    other[c] = other[c] - f * row[c]
        reduced.append(row)
        pivots.append(col)
        col += 1
    order = sorted(range(len(pivots)), key=lambda r: pivots[r])
    return len(pivots), [pivots[r] for r in order], [reduced[r] for r in order]


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
small = st.fractions(min_value=-3, max_value=3, max_denominator=2)

# real and complex entries, scattered over a mostly zero matrix
entries = st.one_of(small.map(Scalar), st.builds(Scalar, small, small))


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 45))
    nrows = draw(st.integers(0, 6))
    rows = [[ZERO] * ncols for _ in range(nrows)]
    if nrows:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), entries)
        for r, c, value in draw(st.lists(cells, max_size=4 * ncols)):
            rows[r][c] = value
        rows += [list(rows[k]) for k in draw(st.lists(st.integers(0, nrows - 1), max_size=3))]
    rows += [[ZERO] * ncols for _ in range(draw(st.integers(0, 2)))]
    for col in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2)):
        for row in rows:
            row[col] = ZERO
    order = draw(st.permutations(range(len(rows))))
    return [rows[k] for k in order], ncols


def to_sparse(rows: List[List[Scalar]]) -> List[Dict[int, Tuple[int, int, int]]]:
    return [{c: e._abd for c, e in enumerate(row) if not e.is_zero} for row in rows]


def to_scalar(entry: Tuple[int, int, int]) -> Scalar:
    """A solver entry (a, b, d) as the Scalar (a + b*i)/d, through the public constructor."""
    a, b, d = entry
    return Scalar(Fraction(a, d), Fraction(b, d))


def sparse_rref(rows: List[List[Scalar]], ncols: int):
    """`_rref` on dense rows, its reduced rows written out densely again."""
    rank, pivots, red = _rref(to_sparse(rows), ncols)
    assert all(e[0] or e[1] for row in red for e in row.values())
    return rank, pivots, [[to_scalar(row[c]) if c in row else ZERO for c in range(ncols)]
                          for row in red]


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_sparse_rref_matches_dense_reference(matrix):
    rows, ncols = matrix
    before = [list(r) for r in rows]
    assert sparse_rref(rows, ncols) == dense_rref(rows, ncols)
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_rref_is_independent_of_row_order_and_duplicates(matrix, rnd):
    # the reduced row echelon form of a row space is unique, whatever the
    # pivot rule meets first
    rows, ncols = matrix
    expected = sparse_rref(rows, ncols)
    assert sparse_rref(rows[::-1], ncols) == expected
    doubled = rows + [rnd.choice(rows) for _ in range(3)] if rows else rows
    rnd.shuffle(doubled)
    assert sparse_rref(doubled, ncols) == expected


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_rref_leaves_its_input_rows_alone(matrix):
    rows, ncols = matrix
    sparse = to_sparse(rows)
    before = [dict(r) for r in sparse]
    _rref(sparse, ncols)
    assert sparse == before


def test_central_extensions_eliminates_five_times(monkeypatch):
    # three full reductions (cocycle rows, coboundary rows, representatives)
    # and the two rank-only passes of the reversed-order self-check
    calls = []
    forward = cocycle._forward

    def counting(rows):
        calls.append(len(rows))
        return forward(rows)

    monkeypatch.setattr(cocycle, "_forward", counting)
    ext = central_extensions(algfile.load_bundled("planar_galilei"))
    assert ext.h2 == 3
    assert len(calls) == 5


def test_central_extensions_walks_the_triples_once():
    # the Jacobi identity is read off the cocycle rows, so checking the
    # algebra and building its cocycle system share one walk: the structure
    # tensor is read exactly as often as by jacobi_check alone
    reads = []

    class Counting(dict):
        def get(self, key, default=None):
            reads.append(key)
            return dict.get(self, key, default)

    spec = algfile.load_bundled("planar_galilei")
    spec._f = [Counting(row) for row in spec._f]
    assert cocycle.jacobi_check(spec).ok
    alone = len(reads)
    reads.clear()
    assert central_extensions(spec).h2 == 3
    assert alone and len(reads) == alone


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_forward_elimination_rank_matches_dense_reference(matrix, rnd):
    rows, ncols = matrix
    rank = dense_rref(rows, ncols)[0]
    assert len(cocycle._forward(to_sparse(rows))) == rank
    flipped = [row[::-1] for row in rows]
    assert len(cocycle._forward(to_sparse(flipped))) == rank
    doubled = rows + [rnd.choice(rows) for _ in range(3)] if rows else rows
    rnd.shuffle(doubled)
    assert len(cocycle._forward(to_sparse(doubled))) == rank


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_forward_rows_are_normalised_echelon_rows(matrix, rnd):
    rows, ncols = matrix
    sparse = to_sparse(rows)
    echelon = cocycle._forward(sparse)
    pivots = [col for col, _ in echelon]
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for col, row in echelon:
        # 1 at the pivot, zero (absent) left of it, no stored zeros
        assert row[col] == (1, 0, 1)
        assert min(row) == col
        assert all(e[0] or e[1] for e in row.values())
    rnd.shuffle(sparse)
    assert len(cocycle._forward(sparse)) == len(echelon)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_every_entry_the_solver_returns_is_canonical(matrix):
    rows, ncols = matrix
    sparse = to_sparse(rows)
    _, pivots, red = _rref(sparse, ncols)
    echelon = [row for _, row in cocycle._forward(sparse)]
    for row in red + echelon + cocycle._nullspace(pivots, red, ncols):
        for a, b, d in row.values():
            assert type(a) is int and type(b) is int and type(d) is int
            assert d > 0 and math.gcd(a, b, d) == 1 and (a or b)


def changed_basis(name: str, steps: int, seed: int) -> str:
    """A bundled algebra as `.alg` text in a dense basis: `steps` seeded steps
    y_a += r*y_b, with every structure constant transformed over Fractions."""
    spec = algfile.load_bundled(name)
    n = spec.dim
    rnd = random.Random(seed)
    A = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]  # y = A x
    for _ in range(steps):
        a, b = rnd.sample(range(n), 2)
        r = Fraction(rnd.choice((1, 2, 3)) * rnd.choice((1, -1)), rnd.choice((1, 2, 3)))
        A[a] = [A[a][c] + r * A[b][c] for c in range(n)]
    # the inverse, by Gauss-Jordan on [A | 1]; A is invertible by construction
    work = [A[r] + [Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        work[col] = [e / work[col][col] for e in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                work[r] = [e - work[r][col] * p for e, p in zip(work[r], work[col])]
    inv = [row[n:] for row in work]  # x = inv y

    def bracket(i, j):  # [x_i, x_j] as {k: (re, im)}
        return {k: (c.re, c.im) for k, c in spec.bracket(i, j).items()}

    lines = ["generators: " + " ".join(f"Y{a}" for a in range(n))]
    for a in range(n):
        for b in range(a + 1, n):
            on_x = {}
            for i in range(n):
                for j in range(n):
                    w = A[a][i] * A[b][j]
                    if w:
                        for k, (re, im) in bracket(i, j).items():
                            acc = on_x.setdefault(k, [Fraction(0), Fraction(0)])
                            acc[0] += w * re
                            acc[1] += w * im
            terms = []
            for c in range(n):
                for part, unit in ((0, ""), (1, "i*")):
                    q = sum((acc[part] * inv[k][c] for k, acc in on_x.items()), Fraction(0))
                    if q:
                        terms.append(("-" if q < 0 else "+", f"{abs(q)}*{unit}Y{c}"))
            if terms:
                text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
                text += "".join(f" {sign} {term}" for sign, term in terms[1:])
                lines.append(f"[Y{a}, Y{b}] = {text}")
    return "\n".join(lines) + "\n"


def test_central_extensions_builds_a_scalar_only_per_representative_entry(monkeypatch):
    # elimination runs on integer triples: the only Scalars made are the
    # representatives' entries, however many updates the dense basis costs
    spec = algfile.loads(changed_basis("planar_galilei", 8, 7))
    made = []
    for module in (exactscalar, cocycle):
        for name in ("_reduced", "_canonical"):
            if hasattr(module, name):
                def counting(*abd, _make=getattr(module, name)):
                    made.append(abd)
                    return _make(*abd)
                monkeypatch.setattr(module, name, counting)
    ext = central_extensions(spec)
    monkeypatch.undo()
    assert ext.h2 == 3 and len(ext.representatives) == 3
    entries = sum(len(rep) for rep in ext.representatives)
    assert entries and len(made) == entries


def _short_reversed_pass(monkeypatch):
    """Make the reversed pass of the first checked elimination lose a pivot."""
    forward = cocycle._forward
    ranks = []

    def short(rows):
        echelon = forward(rows)
        ranks.append(len(echelon))
        # the first call is `_rref`'s own pass, the second the reversed one
        return echelon[:-1] if len(ranks) == 2 else echelon

    monkeypatch.setattr(cocycle, "_forward", short)
    return ranks


def test_reversed_order_self_check_fires(monkeypatch):
    ranks = _short_reversed_pass(monkeypatch)
    with pytest.raises(GalkappaError) as err:
        central_extensions(algfile.load_bundled("planar_galilei"))
    rank = ranks[0]
    assert str(err.value) == (
        f"elimination self-check failed: ranks {rank} vs {rank - 1}")


def test_failed_self_check_is_a_verification_failure(monkeypatch, capsys):
    _short_reversed_pass(monkeypatch)
    assert main(["algebra", "cohomology", "planar_galilei"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: elimination self-check failed: ranks ")
    assert "Traceback" not in err


pairs = st.tuples(rationals, rationals)


def _is_exact(x: Scalar, re: Fraction, im: Fraction) -> None:
    assert type(x) is Scalar
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == (re, im)
    public = Scalar(re, im)
    assert x == public
    assert hash(x) == hash(public)


@given(pairs, pairs)
def test_scalar_arithmetic_matches_fraction_pairs(p, q):
    (a, b), (c, d) = p, q
    x, y = Scalar(a, b), Scalar(c, d)
    _is_exact(x + y, a + c, b + d)
    _is_exact(x - y, a - c, b - d)
    _is_exact(x * y, a * c - b * d, a * d + b * c)
    _is_exact(-x, -a, -b)
    _is_exact(x.conj(), a, -b)
    norm = c * c + d * d
    if norm:
        _is_exact(x / y, (a * c + b * d) / norm, (b * c - a * d) / norm)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x - y).is_zero == (x == y)


@given(pairs, st.one_of(st.integers(-20, 20), rationals))
def test_scalar_mixed_operands_match_fraction_pairs(p, r):
    a, b = p
    x = Scalar(a, b)
    _is_exact(x + r, a + r, b)
    _is_exact(r + x, a + r, b)
    _is_exact(x - r, a - r, b)
    _is_exact(r - x, r - a, -b)
    _is_exact(x * r, a * r, b * r)
    _is_exact(r * x, a * r, b * r)
    if r:
        _is_exact(x / r, a / r, b / r)
    norm = a * a + b * b
    if norm:
        _is_exact(r / x, r * a / norm, -r * b / norm)


def test_public_constructor_still_normalizes():
    assert type(Scalar(2).re) is Fraction and type(Scalar(2).im) is Fraction
    assert hash(Scalar(2)) == hash(Scalar(Fraction(2))) == hash(Scalar.of(2))
    assert Scalar() == ZERO and Scalar(1) == ONE


def test_scalar_is_frozen_and_slotted():
    x = Scalar(1, 2)
    assert not hasattr(x, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.re = Fraction(3)


def test_division_takes_the_operands_of_the_other_operators():
    assert 1 / Scalar(2) == Scalar(Fraction(1, 2))
    assert Fraction(1, 2) / Scalar(0, 2) == Scalar(0, Fraction(-1, 4))
    with pytest.raises(ZeroDivisionError):
        1 / ZERO
    x = Scalar(2)
    for bad in (2.5, 1j, "1", None):
        assert x.__truediv__(bad) is NotImplemented
        assert x.__rtruediv__(bad) is NotImplemented
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, bad)
            with pytest.raises(TypeError):
                op(bad, x)


def reference_str(re: Fraction, im: Fraction) -> str:
    """A Scalar printed from its two Fraction parts, as the package prints it."""
    if not (re or im):
        return "0"
    parts = []
    if re != 0:
        parts.append(str(re))
    if im != 0:
        if im == 1:
            imtxt = "i"
        elif im == -1:
            imtxt = "-i"
        else:
            imtxt = f"{im}*i"
        if parts and not imtxt.startswith("-"):
            parts.append("+" + imtxt)
        else:
            parts.append(imtxt)
    return "".join(parts)


def assert_canonical(x: Scalar) -> None:
    """The stored triple is reduced, and the value survives its public parts."""
    assert type(x) is Scalar
    a, b, d = x._abd
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    re, im = x.re, x.im
    for part in (re, im):
        assert type(part) is Fraction
        assert part.denominator > 0 and math.gcd(part.numerator, part.denominator) == 1
    public = Scalar(re, im)
    assert public == x and public._abd == x._abd and hash(public) == hash(x)
    assert str(x) == reference_str(re, im)
    assert repr(x) == f"Scalar({reference_str(re, im)})"


# small parts meet equal and unit denominators; wide ones carry tens of bits
wide = st.fractions(min_value=-(2**40), max_value=2**40, max_denominator=2**40)
parts = st.one_of(st.integers(-3, 3), rationals, wide)
operands = st.one_of(st.integers(-(2**40), 2**40), rationals, wide)


@settings(max_examples=300)
@given(st.tuples(parts, parts), st.tuples(parts, parts), operands)
def test_every_result_is_a_canonical_triple(p, q, r):
    x, y = Scalar(*p), Scalar(*q)
    results = [x, y, x + y, x - y, x * y, -x, x.conj(), x + r, r + x, x - r, r - x,
               x * r, r * x, Scalar.of(r), x * 0, x - x]
    if not y.is_zero:
        results.append(x / y)
    if r:
        results.append(x / r)
    if not x.is_zero:
        results.append(r / x)
    for z in results:
        assert_canonical(z)
    assert Scalar(p[0]) == Scalar.of(p[0])


# integer-valued Scalars (d == 1) skip the gcd, so both kinds are drawn
scalars = st.one_of(st.integers(-(2**40), 2**40).map(Scalar),
                    st.builds(Scalar, parts, parts))


def _same(x: Scalar, y: Scalar) -> None:
    assert x._abd == y._abd and hash(x) == hash(y) and x == y


def _cleared(x: Scalar, y: Scalar, z: Scalar) -> Scalar:
    """x - y*z through `_clear`: the row {0: y, 1: x} cleared at column 0 by the
    pivot row {0: 1, 1: z}, zeros held as absent entries, column 1 read back."""
    v = {c: e._abd for c, e in ((0, y), (1, x)) if e}
    row = {c: e._abd for c, e in ((0, ONE), (1, z)) if e}
    if 0 in v:
        cocycle._clear(v, 0, row)
    assert set(v) <= {1} and all(e[0] or e[1] for e in v.values())
    return ZERO if 1 not in v else exactscalar._canonical(*v[1])


@settings(max_examples=300)
@given(scalars, scalars, scalars)
def test_clear_is_the_operator_chain(x, y, z):
    _same(_cleared(x, y, z), x - y * z)
    _same(_cleared(y * z, y, z), ZERO)
    _same(_cleared(x, y, ZERO), x)


@settings(max_examples=300)
@given(scalars, scalars)
def test_plus_is_the_operator_chain(x, y):
    if x and y:
        total = exactscalar._plus(x._abd, y._abd)
        _same(ZERO if total is None else exactscalar._canonical(*total), x + y)
        assert exactscalar._plus(x._abd, (-x)._abd) is None


@settings(max_examples=300)
@given(st.lists(scalars, min_size=1, max_size=6), st.integers(0, 5))
def test_scale_to_one_is_division_by_the_pivot_entry(entries, pick):
    row = {c: e for c, e in enumerate(entries) if e}
    if row:
        p = sorted(row)[pick % len(row)]
        v = {c: e._abd for c, e in row.items()}
        exactscalar._scale_to_one(v, p)
        assert v.keys() == row.keys() and v[p] == ONE._abd
        for c, e in row.items():
            _same(exactscalar._canonical(*v[c]), e / row[p])


@settings(max_examples=300)
@given(st.lists(st.tuples(scalars, scalars), max_size=6))
def test_fused_sum_of_products_is_the_operator_chain(products):
    chain = ZERO
    for y, z in products:
        chain = chain + y * z
    triples = [(y._abd, z._abd) for y, z in products]
    _same(_reduced(*_sum_products(triples)), chain)
    # each product cancelled by its negative sums to zero
    _same(_reduced(*_sum_products(triples + [((-y)._abd, z._abd) for y, z in products])),
          ZERO)


def round_trips(obj):
    return [pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)]


@given(st.tuples(parts, parts))
def test_scalar_pickles_and_copies(p):
    x = Scalar(*p)
    for y in round_trips(x):
        assert_canonical(y)
        assert y == x and hash(y) == hash(x) and str(y) == str(x)
        with pytest.raises(dataclasses.FrozenInstanceError):
            y.re = Fraction(3)


def test_polynomials_and_realized_operators_pickle_and_copy():
    K1 = kappa_shift(realize("multispinor", 1, 3), Fraction(3, 7))["K1"]
    entry = K1.entry(0, 0)
    poly = entry.coefficient((0, 1, 0))  # -3/14*i*m^-1
    for obj in (poly, entry, K1):
        for y in round_trips(obj):
            assert type(y) is type(obj)
            assert y == obj and hash(y) == hash(obj) and str(y) == str(obj)
            assert y.registry == obj.registry
