"""The symmetric-basis slot sum against the Kronecker-product reference.

`embed_factor`, `SymBasis` and `restrict_symmetric` are the code the
multispinor check used before it worked on the symmetric basis directly: the
rank-N operator sum_s A_(s) (x) F^(x)(N-1) is built as a 2^N-square Kronecker
product, applied to the popcount vectors v_k, and read back in that basis,
with an assertion that no image leaves the symmetric span.  The package's
`_symmetric_slot_sum` must give the identical (N+1)-square matrix at ranks
1-6, past the public rank cap.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from galkappa.exactscalar import ONE, ZERO, Scalar
from galkappa.fieldcheck import _symmetric_slot_sum, momentum_registry, multispinor_equations

RANKS = [1, 2, 3, 4, 5, 6]


def kron(X, Y):
    """Kronecker product of square nested lists: entry (r1 m + r2, c1 m + c2)."""
    n, m = len(X), len(Y)
    return [[X[r1][c1] * Y[r2][c2] for c1 in range(n) for c2 in range(m)]
            for r1 in range(n) for r2 in range(m)]


def embed_factor(A, slot, rank, filler):
    """A in slot `slot` (1-based) of a rank-N product, `filler` in every other."""
    out = None
    for pos in range(1, rank + 1):
        block = A if pos == slot else filler
        out = block if out is None else kron(out, block)
    return out


class SymBasis:
    """Unnormalised symmetric basis of (C^2)^(x)N: v_k sums the product states
    with k lowered slots.  The supports are disjoint, so coordinates in this
    basis are read off at one representative index per k."""

    def __init__(self, rank):
        self.rank = rank
        self.ambient_dim = 2 ** rank
        self.members = [[idx for idx in range(self.ambient_dim) if bin(idx).count("1") == k]
                        for k in range(rank + 1)]

    def __len__(self):
        return self.rank + 1


def restrict_symmetric(T, basis):
    """Matrix of T in the symmetric basis; asserts that T keeps the span."""
    assert len(T) == basis.ambient_dim
    n = len(basis)
    columns = []
    for l in range(n):
        image = [sum((row[c] for c in basis.members[l][1:]), row[basis.members[l][0]])
                 for row in T]
        coeffs = [image[basis.members[k][0]] for k in range(n)]
        for k, members in enumerate(basis.members):
            for idx in members:
                assert image[idx] == coeffs[k], (
                    f"column {l}: image leaves the symmetric subspace at component {idx}")
        columns.append(coeffs)
    return [[columns[c][r] for c in range(n)] for r in range(n)]


def reference_slot_sum(A, F, rank):
    total = None
    for slot in range(1, rank + 1):
        piece = embed_factor(A, slot, rank, F)
        total = piece if total is None else [[a + b for a, b in zip(r1, r2)]
                                             for r1, r2 in zip(total, piece)]
    return restrict_symmetric(total, SymBasis(rank))


@pytest.fixture
def reg():
    return momentum_registry()


def _consts(reg, rows):
    return [[reg.const(e) for e in row] for row in rows]


def _wave_and_projector(reg):
    E, m = reg.symbol("E"), reg.symbol("m")
    G = [[E, reg.symbol("p_minus")], [reg.symbol("p_plus"), m * Scalar.of(2)]]
    return G, _consts(reg, [[ONE, ZERO], [ZERO, ZERO]])


def _random_scalar(rng):
    def part():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
    return Scalar(part(), part())


# -- the reference itself -------------------------------------------------------


def test_kron_dimensions_and_values(reg):
    s1 = _consts(reg, [[0, 1], [1, 0]])
    _, g = _wave_and_projector(reg)
    k = kron(s1, g)
    assert len(k) == 4
    # (s1 kron g)[0,2] = s1[0,1] * g[0,0] = 1
    assert k[0][2] == reg.const(1)
    assert k[1][3] == reg.const(0)


def test_embed_factor_slots(reg):
    s1 = _consts(reg, [[0, 1], [1, 0]])
    _, g = _wave_and_projector(reg)
    assert embed_factor(s1, 1, 2, g) == kron(s1, g)
    assert embed_factor(s1, 2, 2, g) == kron(g, s1)


def test_symbasis_popcount_structure():
    basis = SymBasis(3)
    assert basis.ambient_dim == 8
    assert len(basis) == 4
    for k, members in enumerate(basis.members):
        assert len(members) == comb(3, k)


def test_reference_restricts_identity(reg):
    ident4 = _consts(reg, [[int(r == c) for c in range(4)] for r in range(4)])
    assert restrict_symmetric(ident4, SymBasis(2)) == _consts(
        reg, [[int(r == c) for c in range(3)] for r in range(3)])


def test_reference_rejects_leakage(reg):
    # sigma_3 on one slot only maps |01>+|10> out of the symmetric span
    s3 = _consts(reg, [[1, 0], [0, -1]])
    ident = _consts(reg, [[1, 0], [0, 1]])
    with pytest.raises(AssertionError, match="leaves the symmetric subspace"):
        restrict_symmetric(kron(s3, ident), SymBasis(2))


# -- the package's symmetric-basis helper against it ------------------------------


@pytest.mark.parametrize("N", RANKS)
def test_wave_operator_slot_sum_matches_reference(reg, N):
    G, gamma = _wave_and_projector(reg)
    want = reference_slot_sum(G, gamma, N)
    assert _symmetric_slot_sum(reg, G, gamma, N) == want
    if N <= 4:  # the public check is the same matrix averaged over the slots
        inv_N = Scalar(Fraction(1, N))
        got = multispinor_equations(N).matrix
        assert [list(row) for row in got] == [[e * inv_N for e in row] for row in want]


@pytest.mark.parametrize("N", RANKS)
def test_total_spin_matches_reference(reg, N):
    s3 = _consts(reg, [[1, 0], [0, -1]])
    ident = _consts(reg, [[1, 0], [0, 1]])
    got = _symmetric_slot_sum(reg, s3, ident, N)
    assert got == reference_slot_sum(s3, ident, N)
    # the total sigma_3 is diagonal on the popcount vectors: N - 2k on v_k
    assert got == _consts(reg, [[N - 2 * k if j == k else 0 for k in range(N + 1)]
                                for j in range(N + 1)])


@pytest.mark.parametrize("N", RANKS)
def test_random_pairs_match_reference(reg, N):
    rng = random.Random(1000 + N)
    for _ in range(3):
        A = _consts(reg, [[_random_scalar(rng) for _ in range(2)] for _ in range(2)])
        # every entry of F nonzero: each f_r(y) and its powers have full support
        F = _consts(reg, [[_random_scalar(rng) for _ in range(2)] for _ in range(2)])
        assert all(not e.is_zero for row in F for e in row)
        assert _symmetric_slot_sum(reg, A, F, N) == reference_slot_sum(A, F, N)
