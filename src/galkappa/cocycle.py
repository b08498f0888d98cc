"""Abstract Lie-algebra layer: Jacobi validation and central-extension spaces.

A central extension is classified by an antisymmetric bilinear form beta
satisfying the cyclic cocycle identity, taken modulo coboundaries (forms of
the shape beta(X_i, X_j) = f([X_i, X_j])).  One walk over the triples
writes each cyclic identity as a row, and the Jacobi identity, which is the
same identity with beta replaced by the bracket, is read off those rows.
Both spaces are computed by exact elimination over Gaussian rationals:
forward elimination, inserting the rows one by one, then back-substitution
from the last pivot.  Both steps update a row only through `_clear`, which
subtracts a multiple of a pivot row that is 1 at its pivot.  Every
dimension is re-derived by forward elimination alone under the reversed
order, as a self-check.

Every system is sparse end to end: the structure constants are read from
the antisymmetric tensor each `LieAlgebraSpec` builds once, holding only the
nonzero brackets, and each row is a ``{column: (a, b, d)}`` dict built
straight from them.  Columns are the pairs i < j in lexicographic order.
An entry is the canonical triple a `Scalar` stores for (a + b*i)/d: d > 0,
gcd(a, b, d) == 1, and never zero.  Each exact update is one of the integer
kernels `exactscalar` keeps next to `Scalar`: `_plus` for a sum of colliding
terms, `_clear` for a row entry minus a multiple, `_scale_to_one` for a new
pivot row and `_sum_products` for a Jacobi sum.  A `Scalar` is built only
for a value that leaves the solver: a representative's entry, or the
residual of a failing Jacobi triple.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import GalkappaError
from .exactscalar import (
    ONE,
    Scalar,
    _canonical,
    _clear,
    _plus,
    _reduced,
    _scale_to_one,
    _sum_products,
    accumulate,
)

Entry = Tuple[int, int, int]
Row = Dict[int, Entry]
Cochain = Dict[Tuple[str, str], Scalar]
Triple = Tuple[int, int, int]
Structure = List[Dict[int, Dict[int, Scalar]]]


class LieAlgebraSpec:
    """Generator names plus exact structure constants, stored once per i<j.

    ``stated`` lists the pairs a table states, in its order and orientation
    and with its vanishing pairs; by default the nonzero pairs i < j.  The
    antisymmetric structure tensor every check reads is built here once:
    ``_f[i][j]`` is [X_i, X_j] as {k: coeff}, in both index orders and for
    the nonzero brackets only; its rows are never written to.
    """

    def __init__(
        self,
        names: Sequence[str],
        brackets: Mapping[Tuple[int, int], Mapping[int, Scalar]],
        stated: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        self.names: Tuple[str, ...] = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        n = len(self.names)
        clean: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for (i, j), rhs in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket pair ({i},{j}) out of order or range")
            row = {}
            for k, coeff in rhs.items():
                if not 0 <= k < n:
                    raise ValueError(f"structure constant target {k} out of range")
                coeff = Scalar.of(coeff)
                if not coeff.is_zero:
                    row[k] = coeff
            if row:
                clean[(i, j)] = row
        self.brackets = clean
        self._f: Structure = [{} for _ in range(n)]
        for (i, j), rhs in clean.items():
            self._f[i][j] = rhs
            self._f[j][i] = {k: -c for k, c in rhs.items()}
        self.stated: Tuple[Tuple[int, int], ...] = tuple(
            sorted(clean) if stated is None else stated)

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None

    def bracket(self, i: int, j: int) -> Dict[int, Scalar]:
        """[X_i, X_j] as {k: coefficient}, any index order."""
        return dict(self._f[i].get(j, {}))

    def pairs(self) -> List[Tuple[int, int]]:
        n = self.dim
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _offsets(n: int) -> List[int]:
    """The column of the pair i < j is offsets[i] + j."""
    return [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]


def _cocycle_rows(f: Structure, off: List[int]) -> Iterator[Tuple[Triple, Row]]:
    """The one walk over the triples: each i<j<k whose cyclic identity is a
    nonzero linear form in beta, in lexicographic order, with that form.
    A term coeff * beta(X_m, X_c) adds into the column of m and c, and sums that
    cancel are dropped; for m > c, -coeff is read from the reversed bracket."""
    n = len(f)
    for i in range(n):
        fi = f[i]
        for j in range(i + 1, n):
            fij, fj = fi.get(j), f[j]
            for k in range(j + 1, n):
                fk = f[k]
                fjk, fki = fj.get(k), fk.get(i)
                if fij or fjk or fki:
                    row: Row = {}
                    for rhs, rev, c in ((fij, fj.get(i), k), (fjk, fk.get(j), i),
                                        (fki, fi.get(k), j)):
                        if rhs:
                            for m, coeff in rhs.items():
                                if m < c:
                                    s = off[m] + c
                                elif m > c:
                                    s, coeff = off[c] + m, rev[m]
                                else:
                                    continue
                                old = row.get(s)
                                if old is None:
                                    row[s] = coeff._abd
                                elif (new := _plus(old, coeff._abd)) is None:
                                    del row[s]
                                else:
                                    row[s] = new
                    if row:
                        yield (i, j, k), row


class JacobiResult:
    def __init__(self, ok: bool, triple: Optional[Tuple[str, str, str]] = None,
                 residual: Optional[Dict[str, Scalar]] = None):
        self.ok = ok
        self.triple = triple
        self.residual = residual

    def __bool__(self):
        return self.ok


def _jacobi(spec: LieAlgebraSpec, rows: Iterable[Tuple[Triple, Row]]) -> JacobiResult:
    """The first of the (triple, cocycle row) pairs with a nonzero Jacobi sum:
    the row with each column s = (a, b) replaced by [X_a, X_b], summed per
    target over one denominator; only a nonzero sum is reduced, to the
    residual's Scalar.  A triple without a row has a zero sum."""
    column_bracket = [spec.brackets.get(pair) for pair in spec.pairs()]
    for triple, row in rows:
        products: Dict[int, list] = {}
        for s, v in row.items():
            fab = column_bracket[s]
            if fab:
                for l, coeff in fab.items():
                    products.setdefault(l, []).append((v, coeff._abd))
        residual = {}
        for l, pairs in products.items():
            a, b, d = _sum_products(pairs)
            if a or b:
                residual[spec.names[l]] = _reduced(a, b, d)
        if residual:
            return JacobiResult(ok=False, triple=tuple(spec.names[x] for x in triple),
                                residual=residual)
    return JacobiResult(ok=True)


def jacobi_check(spec: LieAlgebraSpec) -> JacobiResult:
    """Verify the cyclic identity on all generator triples; report the first failure."""
    return _jacobi(spec, _cocycle_rows(spec._f, _offsets(spec.dim)))


# -- exact elimination -------------------------------------------------------


def _forward(rows: List[Row]) -> List[Tuple[int, Row]]:
    """Forward elimination of sparse rows ({column: (a, b, d)}), row by row.

    The rows are taken in order of increasing nonzero count.  Each is cleared
    with `_clear` on the pivots found so far, lowest column first, until its
    first column is not yet a pivot column or nothing is left; a remainder is
    scaled to 1 at that column with `_scale_to_one` and kept as its pivot.
    A pivot row is zero left of its pivot and is not updated again.

    Returns the pivot columns with their rows, in increasing column order;
    their number is the rank.  The input rows, which hold no zero entry, are
    left as they are.
    """
    pivots: Dict[int, Row] = {}
    for row in sorted(rows, key=len):
        v = dict(row)
        while v:
            col = min(v)
            pivot = pivots.get(col)
            if pivot is None:
                _scale_to_one(v, col)
                pivots[col] = v
                break
            _clear(v, col, pivot)
    return sorted(pivots.items())


def _rref(rows: List[Row], ncols: int) -> Tuple[int, List[int], List[Row]]:
    """Reduced row echelon form of sparse rows ({column: (a, b, d)}).

    `_forward` brings the rows to echelon form, each pivot already 1;
    back-substitution then runs from the last pivot up, clearing each pivot
    row with `_clear` on the later pivot columns, whose rows are already
    reduced.  The reduced row echelon form of a row space is unique, so the
    order in which rows are taken changes the work done, never the result,
    and every entry is canonical.

    Returns the rank, the pivot columns in increasing order and the reduced
    rows in the same order.  The input rows are left as they are.  `ncols`
    is not read here; perfbench's tracer reads it from every call.
    """
    echelon = _forward(rows)
    done: Dict[int, Row] = {}
    for col, row in reversed(echelon):
        # a pivot row is zero left of its pivot, so the pivot columns it
        # holds besides its own are later ones; clearing adds no others
        for p in [c for c in row if c in done]:
            _clear(row, p, done[p])
        done[col] = row
    return len(echelon), [col for col, _ in echelon], [row for _, row in echelon]


def _rref_checked(rows: List[Row], ncols: int) -> Tuple[int, List[int], List[Row]]:
    """`_rref`, with the rank re-derived by `_forward` under the reversed order."""
    result = _rref(rows, ncols)
    flipped = [{ncols - 1 - c: e for c, e in r.items()} for r in reversed(rows)]
    rank_rev = len(_forward(flipped))
    if result[0] != rank_rev:
        raise GalkappaError(
            f"elimination self-check failed: ranks {result[0]} vs {rank_rev}"
        )
    return result


def _nullspace(pivots: List[int], red: List[Row], ncols: int) -> List[Row]:
    """Nullspace basis read off an `_rref` result, one vector per free column:
    1 at its free column and minus that column's entry of each reduced row at
    the row's pivot, all canonical triples."""
    pivot_set = set(pivots)
    basis = {free: {free: ONE._abd} for free in range(ncols) if free not in pivot_set}
    # a reduced row is zero on every other pivot column: the rest are free
    for row, p in zip(red, pivots):
        for c, (a, b, d) in row.items():
            if c != p:
                basis[c][p] = (-a, -b, d)
    return list(basis.values())


class ExtensionSpace:
    """Each representative is a 2-cochain {(X_i, X_j): nonzero entry}, i < j, in pair order."""

    def __init__(self, names: Tuple[str, ...], cocycle_dim: int, coboundary_dim: int,
                 h2: int, representatives: Optional[List[Cochain]] = None):
        self.names = names
        self.cocycle_dim = cocycle_dim
        self.coboundary_dim = coboundary_dim
        self.h2 = h2
        self.representatives = [] if representatives is None else representatives

    def representative_support(self, r: int) -> Cochain:
        return dict(self.representatives[r])


def _coboundary_rows(f: Structure, off: List[int]) -> List[Row]:
    """One row per generator k: the coboundary of the functional dual to X_k."""
    by_target: Dict[int, Row] = {}
    for i, fi in enumerate(f):
        for j, rhs in fi.items():
            if i < j:
                for k, coeff in rhs.items():
                    by_target.setdefault(k, {})[off[i] + j] = coeff._abd
    return [by_target[k] for k in sorted(by_target)]


def central_extensions(spec: LieAlgebraSpec) -> ExtensionSpace:
    """Dimension and representatives of the central-extension space.

    Requires a valid Lie algebra, since cohomology of a non-algebra is
    meaningless: the Jacobi identity is checked on the cocycle rows, in
    triple order, before they are eliminated.
    """
    n = spec.dim
    off = _offsets(n)
    walked = list(_cocycle_rows(spec._f, off))
    jac = _jacobi(spec, walked)
    if not jac.ok:
        raise GalkappaError(
            f"structure constants violate the cyclic identity at {jac.triple}"
        )
    P = n * (n - 1) // 2

    rank, pivots, red = _rref_checked([row for _, row in walked], P)
    z = P - rank

    b, cob_pivots, cob_red = _rref_checked(_coboundary_rows(spec._f, off), P)

    # representatives: nullspace basis reduced modulo the coboundary row space
    reduced = []
    for v in _nullspace(pivots, red, P):
        for p, row in zip(cob_pivots, cob_red):
            if p in v:
                _clear(v, p, row)
        if v:
            reduced.append(v)
    _, _, rep_rows = _rref(reduced, P)

    h2 = z - b
    if len(rep_rows) != h2:
        raise GalkappaError(
            f"representative count {len(rep_rows)} disagrees with h2 = {h2}"
        )

    pair_names = [(spec.names[i], spec.names[j]) for i, j in spec.pairs()]
    # the solver's entries are canonical, so each leaves it as a Scalar as it is
    reps = [{pair_names[s]: _canonical(*vec[s]) for s in sorted(vec)} for vec in rep_rows]
    return ExtensionSpace(spec.names, z, b, h2, reps)


def _beta_vector(spec: LieAlgebraSpec, beta: Mapping, off: List[int]) -> Row:
    """beta, given by name pairs, as {column: entry}."""
    vec: Dict[int, Scalar] = {}
    for (a, b), coeff in beta.items():
        i, j = spec.index(a), spec.index(b)
        if i == j:
            raise ValueError("beta entry on a diagonal pair")
        coeff = Scalar.of(coeff)
        accumulate(vec, off[min(i, j)] + max(i, j), coeff if i < j else -coeff)
    return {c: e._abd for c, e in vec.items()}


def _satisfies(walk: Iterable[Tuple[Triple, Row]], vec: Row) -> bool:
    """Does the vector vanish on every cocycle row?"""
    for _, row in walk:
        a, b, _ = _sum_products((e, vec[c]) for c, e in row.items() if c in vec)
        if a or b:
            return False
    return True


def is_cocycle(spec: LieAlgebraSpec, beta: Mapping) -> bool:
    """Does beta, given by name pairs, satisfy the cyclic identity for this algebra?"""
    off = _offsets(spec.dim)
    return _satisfies(_cocycle_rows(spec._f, off), _beta_vector(spec, beta, off))


def classes_independent(spec: LieAlgebraSpec, betas: Sequence[Mapping]) -> bool:
    """True iff the given cocycles, by name pairs, are independent modulo coboundaries."""
    f = spec._f
    n = spec.dim
    off = _offsets(n)
    vecs = [_beta_vector(spec, b, off) for b in betas]
    walked = list(_cocycle_rows(f, off))
    if not all(_satisfies(walked, vec) for vec in vecs):
        return False
    P = n * (n - 1) // 2
    cob_rows = _coboundary_rows(f, off)
    base_rank = _rref_checked(cob_rows, P)[0]
    full_rank = _rref_checked(cob_rows + vecs, P)[0]
    return full_rank == base_rank + len(vecs)
