"""Finite matrix algebra over polynomial entries.

Provides the 2x2 spin matrices, the upper-component projector, Kronecker
embeddings into rank-N tensor spaces, and restriction to the totally
symmetric subspace.  Dimensions stay tiny (at most 2**4 here), so storage is
dense and all arithmetic is exact.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import NotSymmetricInvariant, ShapeError
from .exactscalar import ONE, ZERO, PolyExpr, Scalar, SquareMatrix, SymbolRegistry


class MatExpr(SquareMatrix):
    """Square matrix with PolyExpr entries over one shared registry."""

    __slots__ = ()

    def _entry(self, e) -> PolyExpr:
        if not isinstance(e, PolyExpr):
            return self.registry.const(Scalar.of(e))
        return super()._entry(e)

    def __mul__(self, factor) -> "MatExpr":
        # scalar or polynomial scaling
        return MatExpr(self.registry, [[a * factor for a in row] for row in self.rows])

    __rmul__ = __mul__

    def kron(self, other: "MatExpr") -> "MatExpr":
        if self.registry != other.registry:
            raise ShapeError("kron operands over different registries")
        n, m = self.dim, other.dim
        out = [[None] * (n * m) for _ in range(n * m)]
        for r1 in range(n):
            for c1 in range(n):
                for r2 in range(m):
                    for c2 in range(m):
                        out[r1 * m + r2][c1 * m + c2] = (
                            self.rows[r1][c1] * other.rows[r2][c2]
                        )
        return MatExpr(self.registry, out)

    def dagger(self) -> "MatExpr":
        n = self.dim
        return MatExpr(
            self.registry,
            [[self.rows[c][r].conj() for c in range(n)] for r in range(n)],
        )

    def apply(self, vector: Sequence[PolyExpr]) -> List[PolyExpr]:
        if len(vector) != self.dim:
            raise ShapeError("vector length does not match matrix dimension")
        vec = [self._entry(v) for v in vector]
        return [
            sum((self.rows[r][c] * vec[c] for c in range(self.dim)),
                self.registry.zero())
            for r in range(self.dim)
        ]


def pauli(registry: SymbolRegistry, k: int) -> MatExpr:
    """The three standard 2x2 spin matrices, k in {1, 2, 3}."""
    i = Scalar(0, 1)
    if k == 1:
        return MatExpr(registry, [[0, 1], [1, 0]])
    if k == 2:
        return MatExpr(registry, [[0, -i], [i, 0]])
    if k == 3:
        return MatExpr(registry, [[1, 0], [0, -1]])
    raise ValueError("pauli index must be 1, 2, or 3")


def gamma_projector(registry: SymbolRegistry) -> MatExpr:
    """Projector onto the upper spinor component: (1 + sigma_3)/2."""
    return MatExpr(registry, [[1, 0], [0, 0]])


class SymBasis:
    """Unnormalized basis of the totally symmetric subspace of (C^2)^(tensor N).

    Vector k is the sum of all product basis states with exactly k lowered
    slots; the supports are disjoint, so coordinates in this basis are read
    off directly.  Vectors are kept unnormalized to stay inside exact
    rational arithmetic.
    """

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        self.rank = rank
        dim = 2 ** rank
        self.vectors: List[Tuple[Scalar, ...]] = []
        self._rep_index: List[int] = []
        for k in range(rank + 1):
            entries = [ONE if bin(idx).count("1") == k else ZERO for idx in range(dim)]
            self.vectors.append(tuple(entries))
            self._rep_index.append(
                min(i for i in range(dim) if bin(i).count("1") == k)
            )

    @property
    def ambient_dim(self) -> int:
        return 2 ** self.rank

    def __len__(self):
        return self.rank + 1


def embed_factor(A: MatExpr, slot: int, rank: int, filler: MatExpr) -> MatExpr:
    """Kronecker-embed the 2x2 block A into slot `slot` of a rank-N space.

    Every other slot carries `filler` (typically the upper projector or the
    identity).  Slots are 1-based.
    """
    if A.dim != 2 or filler.dim != 2:
        raise ShapeError("embed_factor works on 2x2 blocks")
    if not 1 <= slot <= rank:
        raise IndexError(f"slot {slot} outside 1..{rank}")
    out = None
    for pos in range(1, rank + 1):
        block = A if pos == slot else filler
        out = block if out is None else out.kron(block)
    return out


def restrict_symmetric(A: MatExpr, basis: SymBasis) -> MatExpr:
    """Matrix of A in the symmetric basis; error if A leaks outside it."""
    if A.dim != basis.ambient_dim:
        raise ShapeError("matrix dimension does not match the basis rank")
    reg = A.registry
    n = len(basis)
    columns = []
    for l in range(n):
        image = A.apply([reg.const(c) for c in basis.vectors[l]])
        coeffs = [image[basis._rep_index[k]] for k in range(n)]
        # verify the image is exactly the claimed combination
        for idx in range(A.dim):
            recon = reg.zero()
            for k in range(n):
                if not basis.vectors[k][idx].is_zero:
                    recon = recon + coeffs[k]
            if not (image[idx] - recon).is_zero:
                raise NotSymmetricInvariant(
                    f"column {l}: image leaves the symmetric subspace at "
                    f"component {idx}"
                )
        columns.append(coeffs)
    return MatExpr(reg, [[columns[c][r] for c in range(n)] for r in range(n)])
