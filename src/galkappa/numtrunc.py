"""Floating-point cross-check on a truncated oscillator basis.

The symbolic layer proves identities exactly; this module evaluates the same
exact generators (from `galrealize.realize`) on harmonic-oscillator modes per
axis, cut at n_max, each as its terms: pairs (A, B) of single-axis matrices
whose Kronecker products sum to it.  Truncation breaks the canonical pair only
in the highest mode, so commutator residuals are scored on a low-mode block
well away from the cut, from only the slabs of the terms that the block reads.
Each factor is zero off the band |row - column| <= 2 (x and p are tridiagonal,
every term has degree <= 2 per axis): a check builds low + 4 modes per axis.

The boost-boost commutator needs no tolerance at all: the two boosts act on
different tensor factors, and both product orders multiply the same pairs
of matrix entries, so the difference is bitwise zero.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import BadParameter, GalkappaError
from .exactscalar import PolyExpr
from .galrealize import CENTRAL_NAME, TABLE_CORRECTED, realize, stated_rows
from .weylop import ScalarDiffOp

# A check holds at most FACTOR_MATRICES single-axis matrices, BUFFER_BYTES of
# numpy ufunc buffers and PEAK_SLABS arrays of (low+1)**2 by (n_max+1)**2
# complex entries: two reused slabs, a term, and a row's products and sums.
FACTOR_MATRICES = 40
PEAK_SLABS = 7
BUFFER_BYTES = 2**19
BYTES_BUDGET = 2 * 1024**3

Terms = List[Tuple[np.ndarray, np.ndarray]]


def check_bytes(n_max: int, low: int) -> int:
    """Estimated peak bytes of a check at n_max with low cutoff low."""
    return (FACTOR_MATRICES + PEAK_SLABS * (low + 1) ** 2) * (n_max + 1) ** 2 * 16 + BUFFER_BYTES


def _require_budget(n_max: int, low: int, modes: Optional[int] = None) -> None:
    """Refuse a check over the budget at `modes` (default n_max) before it allocates a slab."""
    need = check_bytes(n_max if modes is None else modes, low)
    if need > BYTES_BUDGET:
        raise BadParameter(f"n_max {n_max} with low cutoff {low} needs about "
                           f"{need / 2**20:,.0f} MiB of complex arrays, "
                           f"over the budget of {BYTES_BUDGET / 2**20:,.0f} MiB")


def _axis(dim: int):
    """Position and momentum on one axis truncated to dim oscillator modes."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = -1j * (a - a.conj().T) / np.sqrt(2.0)
    return x, p


def xp_defect(dim: int) -> np.ndarray:
    """[x, p] - i on one axis; zero except near the truncation edge."""
    x, p = _axis(dim)
    return x @ p - p @ x - 1j * np.eye(dim)


def _evaluate(op: ScalarDiffOp, values: Dict[str, float], x, p) -> Terms:
    """A scalar operator as two-axis terms: x_k -> x and d_k -> i p on axis k.

    Each term coeff * x1^a x2^b * d1^d1 d2^d2 becomes the factor pair
    (number * x^a (i p)^d1, x^b (i p)^d2), where number is the rest of the
    coefficient evaluated at the supplied symbol values; pairs come in the
    operator's term order and are never merged.
    """
    reg = op.registry
    i1, i2 = reg.index("x1"), reg.index("x2")
    power, deriv = np.linalg.matrix_power, 1j * p
    terms = []
    for (d1, d2, dt), poly in op.items():
        if dt:
            raise GalkappaError("a time derivative has no truncated-matrix form")
        for key, coeff in poly.items():
            rest = list(key)
            a, b = rest[i1], rest[i2]
            rest[i1] = rest[i2] = 0
            number = PolyExpr(reg, {tuple(rest): coeff}).evaluate(values)
            terms.append((number * (power(x, a) @ power(deriv, d1)),
                          power(x, b) @ power(deriv, d2)))
    return terms


def _check_values(m: float, t: float, n_max: int) -> None:
    if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 0):
        raise BadParameter(f"mass must be a positive finite number, got {m!r}")
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise BadParameter(f"time must be a finite number, got {t!r}")
    if not isinstance(n_max, int) or n_max < 4:
        raise BadParameter(f"n_max must be an integer >= 4, got {n_max!r}")


def build_numeric(
    model: str,
    m: float = 1.0,
    t: float = 0.5,
    n_max: int = 24,
    spin_s: int = 1,
    rank: int = 1,
) -> Dict[str, Terms]:
    """The exact generators of the model as terms on the two-axis truncated mode space."""
    _check_values(m, t, n_max)
    _require_budget(n_max, 0)
    gens = realize(model, spin_s, rank)
    x, p = _axis(n_max + 1)
    values = {"m": m, "t": t}
    return {name: _evaluate(op.entry(0, 0), values, x, p) for name, op in gens.gens.items()}


def _low_side(n_max: int, low: int) -> int:
    """Modes per axis in the low block, low + 1, for a valid cutoff."""
    if not isinstance(low, int) or not 0 <= low <= n_max:
        raise BadParameter(f"low cutoff must be an integer in 0..{n_max}")
    return low + 1


def low_mode_indices(n_max: int, low: int) -> np.ndarray:
    """Indices of the two-axis states with both axis quanta <= low, ascending."""
    axis = np.arange(_low_side(n_max, low))
    return (axis[:, None] * (n_max + 1) + axis[None, :]).ravel()


class NumericRow:
    def __init__(self, lhs: str, rhs: str, residual: float, exact_zero: bool, passed: bool):
        self.lhs = lhs
        self.rhs = rhs
        self.residual = residual
        self.exact_zero = exact_zero
        self.passed = passed

    def to_dict(self):
        return {
            "pair": [self.lhs, self.rhs],
            "max_abs_residual": self.residual,
            "exact_zero": self.exact_zero,
            "passed": self.passed,
        }


class NumericReport:
    def __init__(self, model: str, m: float, t: float, n_max: int, low_cutoff: int,
                 tol: float, rows: Optional[List[NumericRow]] = None):
        self.model = model
        self.m = m
        self.t = t
        self.n_max = n_max
        self.low_cutoff = low_cutoff
        self.tol = tol
        self.rows = [] if rows is None else rows

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.rows)

    def failing_rows(self) -> List[NumericRow]:
        return [r for r in self.rows if not r.passed]

    def to_dict(self):
        return {
            "model": self.model,
            "mass": self.m,
            "time": self.t,
            "n_max": self.n_max,
            "low_cutoff": self.low_cutoff,
            "tolerance": self.tol,
            "overall": self.overall,
            "rows": [r.to_dict() for r in self.rows],
        }


def _peak(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def residual_report(
    ops: Dict[str, Terms],
    table: str = TABLE_CORRECTED,
    low_cutoff: int = 8,
    tol: float = 1e-9,
    model: str = "schrodinger",
    m: float = 1.0,
    t: float = 0.5,
) -> NumericReport:
    """Max-abs commutator residuals on the low block against the named table.

    Only the block of states with both axis quanta <= low_cutoff is scored,
    summing over every intermediate state: a product is a row slab (row
    quanta <= low_cutoff, every column) times a column slab.  A block of
    kron(A, B) is the kron of the same slices of A and B, so each slab and
    block is summed from zero one term at a time, entry for entry as the
    whole matrix, in the order of `low_mode_indices`.  A row passes when its
    residual is within tol times the largest of 1 and the block entries of
    AB, BA and the expected value, so rounding of large entries is not a
    failure.  The central symbol has no matrix realization here, so rows
    producing it are compared against zero.
    """
    n_max = next(iter(ops.values()))[0][0].shape[0] - 1
    n, k = n_max + 1, _low_side(n_max, low_cutoff)
    _require_budget(n_max, low_cutoff)
    slabs = np.empty((2, (k * n) ** 2), dtype=complex)  # a row and a column slab, reused

    def block(terms: Terms, rows: int, cols: int, slot: int) -> np.ndarray:
        """Entries whose row quanta are < rows and column quanta < cols, in slabs[slot]."""
        out = slabs[slot, : (rows * cols) ** 2].reshape(rows, rows, cols, cols)
        out.fill(0)
        for a, b in terms:  # the entries of kron(a, b), as np.kron multiplies them
            out += a[:rows, None, :cols, None] * b[None, :rows, None, :cols]
        return out.reshape(rows * rows, cols * cols)

    report = NumericReport(model, m, t, n_max, low_cutoff, tol)
    for a, b, expected in stated_rows(table):
        ab = block(ops[a], k, n, 0) @ block(ops[b], n, k, 1)
        ba = block(ops[b], k, n, 0) @ block(ops[a], n, k, 1)
        rhs = block([], k, k, 1)  # zero, in the column slab's place
        for name, coeff in expected:
            if name != CENTRAL_NAME:
                rhs += (complex(coeff.re) + 1j * complex(coeff.im)) * block(ops[name], k, k, 0)
        scale = max(1.0, _peak(ab), _peak(ba), _peak(rhs))
        ab -= ba  # ab becomes the residual ab - ba - rhs, in place
        ab -= rhs
        worst = _peak(ab)
        report.rows.append(NumericRow(a, b, worst, bool(np.all(ab == 0.0)), worst <= tol * scale))
        del ab, ba, rhs  # freed before the next row allocates its own
    return report


def run_numeric_check(
    model: str = "schrodinger",
    m: float = 1.0,
    t: float = 0.5,
    n_max: int = 24,
    low: int = 8,
    tol: float = 1e-9,
    spin_s: int = 1,
    rank: int = 1,
    table: str = TABLE_CORRECTED,
) -> NumericReport:
    """Build the generator terms and score every table row in one call.

    The inputs and the size guard are checked as given, and the terms built at
    min(n_max, low + 4), all the low block reads.  An m or t so large (or a
    mass so small) that the matrices overflow double precision is an input
    error, not a failed check.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise BadParameter(f"tolerance must be a finite number >= 0, got {tol!r}")
    _check_values(m, t, n_max)
    _low_side(n_max, low)
    modes = min(n_max, low + 4)
    _require_budget(n_max, low, modes)
    try:
        with np.errstate(over="raise", invalid="raise"):
            ops = build_numeric(model, m=m, t=t, n_max=modes, spin_s=spin_s, rank=rank)
            rep = residual_report(ops, table=table, low_cutoff=low, tol=tol,
                                  model=model, m=m, t=t)
    except (FloatingPointError, OverflowError) as exc:
        raise BadParameter(
            f"m = {m!r}, t = {t!r} at n_max {n_max} exceed double precision ({exc})"
        ) from None
    rep.n_max = n_max
    return rep
