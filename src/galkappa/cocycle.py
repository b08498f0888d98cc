"""Abstract Lie-algebra layer: Jacobi validation and central-extension spaces.

A central extension is classified by an antisymmetric bilinear form beta
satisfying the cyclic cocycle identity, taken modulo coboundaries (forms of
the shape beta(X_i, X_j) = f([X_i, X_j])).  Both spaces are computed by
exact elimination over Gaussian rationals, and every dimension is re-derived
under a second, independent elimination order as a self-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import GalkappaError
from .exactscalar import ONE, ZERO, Scalar, accumulate


class LieAlgebraSpec:
    """Generator names plus exact structure constants, stored once per i<j."""

    def __init__(
        self,
        names: Sequence[str],
        brackets: Mapping[Tuple[int, int], Mapping[int, Scalar]],
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
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def pairs(self) -> List[Tuple[int, int]]:
        n = self.dim
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class JacobiResult:
    ok: bool
    triple: Optional[Tuple[str, str, str]] = None
    residual: Optional[Dict[str, Scalar]] = None

    def __bool__(self):
        return self.ok


def jacobi_check(spec: LieAlgebraSpec) -> JacobiResult:
    """Verify the cyclic identity on all generator triples; report the first failure."""
    n = spec.dim
    for i, j, k in itertools.combinations(range(n), 3):
        acc: Dict[int, Scalar] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, coeff in spec.bracket(a, b).items():
                for l, coeff2 in spec.bracket(m, c).items():
                    accumulate(acc, l, coeff * coeff2)
        if acc:
            return JacobiResult(
                ok=False,
                triple=(spec.names[i], spec.names[j], spec.names[k]),
                residual={spec.names[l]: v for l, v in acc.items()},
            )
    return JacobiResult(ok=True)


# -- exact elimination -------------------------------------------------------


def _support(row: List[Scalar]) -> List[int]:
    """Columns where the row is nonzero."""
    return [c for c, e in enumerate(row) if not e.is_zero]


def _rref(rows: List[List[Scalar]], ncols: int) -> Tuple[int, List[int], List[List[Scalar]]]:
    """Reduced row echelon form with deterministic first-nonzero pivoting.

    Returns the rank, the pivot columns in increasing order and the reduced
    rows in the same order.  A pivot row updates the other rows only on its
    own support, since subtracting a multiple of a zero leaves an entry as
    it is.
    """
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
        support = _support(row)
        for c in support:
            row[c] = row[c] * inv
        for other in itertools.chain(work, reduced):
            f = other[col]
            if not f.is_zero:
                for c in support:
                    other[c] = other[c] - f * row[c]
        reduced.append(row)
        pivots.append(col)
        col += 1
    order = sorted(range(len(pivots)), key=lambda r: pivots[r])
    return len(pivots), [pivots[r] for r in order], [reduced[r] for r in order]


def _rref_checked(
    rows: List[List[Scalar]], ncols: int
) -> Tuple[int, List[int], List[List[Scalar]]]:
    """`_rref`, with the rank re-derived under the reversed elimination order."""
    result = _rref(rows, ncols)
    flipped = [list(reversed(r)) for r in reversed(rows)]
    rank_rev, _, _ = _rref(flipped, ncols)
    if result[0] != rank_rev:
        raise GalkappaError(
            f"elimination self-check failed: ranks {result[0]} vs {rank_rev}"
        )
    return result


def _nullspace(pivots: List[int], red: List[List[Scalar]], ncols: int) -> List[List[Scalar]]:
    """Nullspace basis read off an `_rref` result, one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


@dataclass
class ExtensionSpace:
    names: Tuple[str, ...]
    cocycle_dim: int
    coboundary_dim: int
    h2: int
    representatives: List[List[List[Scalar]]] = field(default_factory=list)

    def representative_support(self, r: int) -> Dict[Tuple[str, str], Scalar]:
        out = {}
        mat = self.representatives[r]
        n = len(self.names)
        for i in range(n):
            for j in range(i + 1, n):
                if not mat[i][j].is_zero:
                    out[(self.names[i], self.names[j])] = mat[i][j]
        return out


def _beta_slot(pidx, m: int, c: int):
    if m == c:
        return None, ZERO
    if m < c:
        return pidx[(m, c)], ONE
    return pidx[(c, m)], -ONE


def _cocycle_rows(spec: LieAlgebraSpec, pairs, pidx) -> List[List[Scalar]]:
    rows = []
    for i, j, k in itertools.combinations(range(spec.dim), 3):
        row = [ZERO] * len(pairs)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, coeff in spec.bracket(a, b).items():
                slot, sign = _beta_slot(pidx, m, c)
                if slot is not None:
                    row[slot] = row[slot] + coeff * sign
        if any(not e.is_zero for e in row):
            rows.append(row)
    return rows


def _coboundary_rows(spec: LieAlgebraSpec, pairs, pidx) -> List[List[Scalar]]:
    rows = []
    for k in range(spec.dim):
        vec = [ZERO] * len(pairs)
        used = False
        for (i, j), slot in pidx.items():
            coeff = spec.bracket(i, j).get(k, ZERO)
            if not coeff.is_zero:
                vec[slot] = coeff
                used = True
        if used:
            rows.append(vec)
    return rows


def central_extensions(spec: LieAlgebraSpec) -> ExtensionSpace:
    """Dimension and representatives of the central-extension space.

    Requires a valid Lie algebra; run jacobi_check first (and we re-run it
    here, since cohomology of a non-algebra is meaningless).
    """
    jac = jacobi_check(spec)
    if not jac.ok:
        raise GalkappaError(
            f"structure constants violate the cyclic identity at {jac.triple}"
        )
    pairs = spec.pairs()
    pidx = {p: s for s, p in enumerate(pairs)}
    P = len(pairs)

    cocycle_rows = _cocycle_rows(spec, pairs, pidx)
    rank, pivots, red = _rref_checked(cocycle_rows, P)
    z = P - rank

    cob_rows = _coboundary_rows(spec, pairs, pidx)
    b, cob_pivots, cob_red = _rref_checked(cob_rows, P)

    # representatives: nullspace basis reduced modulo the coboundary row space
    cob_reducers = [(p, row, _support(row)) for row, p in zip(cob_red, cob_pivots)]
    reduced = []
    for v in _nullspace(pivots, red, P):
        for p, row, support in cob_reducers:
            f = v[p]
            if not f.is_zero:
                for c in support:
                    v[c] = v[c] - f * row[c]
        if any(not e.is_zero for e in v):
            reduced.append(v)
    _, _, rep_rows = _rref(reduced, P)

    h2 = z - b
    if len(rep_rows) != h2:
        raise GalkappaError(
            f"representative count {len(rep_rows)} disagrees with h2 = {h2}"
        )

    n = spec.dim
    reps = []
    for vec in rep_rows:
        mat = [[ZERO] * n for _ in range(n)]
        for (i, j), slot in pidx.items():
            mat[i][j] = vec[slot]
            mat[j][i] = -vec[slot]
        reps.append(mat)
    return ExtensionSpace(spec.names, z, b, h2, reps)


def _as_beta_matrix(spec: LieAlgebraSpec, beta) -> List[List[Scalar]]:
    n = spec.dim
    if isinstance(beta, Mapping):
        mat = [[ZERO] * n for _ in range(n)]
        for (a, b), coeff in beta.items():
            i, j = spec.index(a), spec.index(b)
            if i == j:
                raise ValueError("beta entry on a diagonal pair")
            coeff = Scalar.of(coeff)
            mat[i][j] = mat[i][j] + coeff
            mat[j][i] = mat[j][i] - coeff
        return mat
    mat = [[Scalar.of(e) for e in row] for row in beta]
    for i in range(n):
        for j in range(n):
            if not (mat[i][j] + mat[j][i]).is_zero:
                raise ValueError("beta matrix is not antisymmetric")
    return mat


def is_cocycle(spec: LieAlgebraSpec, beta) -> bool:
    """Does beta satisfy the cyclic identity for this algebra?"""
    mat = _as_beta_matrix(spec, beta)
    for i, j, k in itertools.combinations(range(spec.dim), 3):
        acc = ZERO
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, coeff in spec.bracket(a, b).items():
                acc = acc + coeff * mat[m][c]
        if not acc.is_zero:
            return False
    return True


def classes_independent(spec: LieAlgebraSpec, betas: Sequence) -> bool:
    """True iff the given cocycles are linearly independent modulo coboundaries."""
    mats = [_as_beta_matrix(spec, b) for b in betas]
    for mat in mats:
        if not is_cocycle(spec, mat):
            return False
    pairs = spec.pairs()
    pidx = {p: s for s, p in enumerate(pairs)}
    P = len(pairs)
    cob_rows = _coboundary_rows(spec, pairs, pidx)
    base_rank = _rref_checked(cob_rows, P)[0]
    stacked = [list(r) for r in cob_rows]
    for mat in mats:
        stacked.append([mat[i][j] for (i, j) in pairs])
    full_rank = _rref_checked(stacked, P)[0]
    return full_rank == base_rank + len(mats)
