"""Floating-point cross-check on a truncated oscillator basis.

The symbolic layer proves identities exactly; this module evaluates the same
exact generators (from `galrealize.realize`) as finite complex matrices on
harmonic-oscillator modes per axis, cut at n_max, and measures commutator
residuals.  Truncation breaks the canonical pair only in the highest mode, so
residuals are scored on a low-mode block well away from the cut.

The boost-boost commutator needs no tolerance at all: the two boosts act on
different tensor factors, and both product orders multiply the same pairs
of matrix entries, so the difference is bitwise zero.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .errors import BadParameter, GalkappaError
from .exactscalar import PolyExpr
from .galrealize import CENTRAL_NAME, TABLE_CORRECTED, realization_table, realize
from .weylop import ScalarDiffOp

# Every generator is a dense complex matrix of side (n_max+1)**2.  A run holds
# about 11.5 of them when the low block is the whole space (tracemalloc peak
# at n_max 12 and 20): the seven generators and one table row's products,
# right-hand side and residual; at low = n_max/3 the peak, about 8.5, comes
# while the generators are built.  The bound of 14 is kept, so the refused
# truncations are the same.  Larger truncations are refused before allocating.
PEAK_DENSE_MATRICES = 14
DENSE_BYTES_BUDGET = 2 * 1024**3


def dense_bytes(n_max: int) -> int:
    """Estimated peak bytes of the dense matrices of a check at n_max."""
    side = (n_max + 1) ** 2
    return PEAK_DENSE_MATRICES * side * side * np.dtype(complex).itemsize


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


def _evaluate(op: ScalarDiffOp, values: Dict[str, float], x, p) -> np.ndarray:
    """A scalar operator as a two-axis matrix: x_k -> x and d_k -> i p on axis k.

    Each term coeff * x1^a x2^b * d1^d1 d2^d2 becomes
    number * kron(x^a (i p)^d1, x^b (i p)^d2), where number is the rest of
    the coefficient evaluated at the supplied symbol values.
    """
    reg = op.registry
    i1, i2 = reg.index("x1"), reg.index("x2")
    power, deriv = np.linalg.matrix_power, 1j * p
    out = np.zeros((x.shape[0] ** 2,) * 2, dtype=complex)
    for (d1, d2, dt), poly in op.items():
        if dt:
            raise GalkappaError("a time derivative has no truncated-matrix form")
        for key, coeff in poly.items():
            rest = list(key)
            a, b = rest[i1], rest[i2]
            rest[i1] = rest[i2] = 0
            number = PolyExpr(reg, {tuple(rest): coeff}).evaluate(values)
            out += np.kron(number * (power(x, a) @ power(deriv, d1)),
                           power(x, b) @ power(deriv, d2))
    return out


def build_numeric(
    model: str,
    m: float = 1.0,
    t: float = 0.5,
    n_max: int = 24,
    spin_s: int = 1,
    rank: int = 1,
) -> Dict[str, np.ndarray]:
    """The exact generators of the model evaluated on the two-axis truncated mode space."""
    if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 0):
        raise BadParameter(f"mass must be a positive finite number, got {m!r}")
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise BadParameter(f"time must be a finite number, got {t!r}")
    if not isinstance(n_max, int) or n_max < 4:
        raise BadParameter(f"n_max must be an integer >= 4, got {n_max!r}")
    if dense_bytes(n_max) > DENSE_BYTES_BUDGET:
        raise BadParameter(
            f"n_max {n_max} needs about {dense_bytes(n_max) / 2**20:,.0f} MiB of "
            f"dense matrices ({PEAK_DENSE_MATRICES} complex matrices of side "
            f"{(n_max + 1) ** 2}), over the budget of {DENSE_BYTES_BUDGET / 2**20:,.0f} MiB"
        )
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
    ops: Dict[str, np.ndarray],
    table: str = TABLE_CORRECTED,
    low_cutoff: int = 8,
    tol: float = 1e-9,
    model: str = "schrodinger",
    m: float = 1.0,
    t: float = 0.5,
) -> NumericReport:
    """Max-abs commutator residuals on the low block against the named table.

    Only the block of states with both axis quanta <= low_cutoff is formed,
    summing over every intermediate state; it is sliced from each generator
    viewed as an (n_max+1,)*4 array over the axis quanta of row and column,
    so it comes in the order of `low_mode_indices`, and the whole space is a
    view, not a copy.  A row passes when its residual is within tol times
    the largest of 1 and the block entries of AB, BA and the expected value,
    so rounding of large entries is not a failure.  The central symbol has no
    matrix realization here, so rows producing it are compared against zero.
    """
    side = next(iter(ops.values())).shape[0]
    n_max = int(round(np.sqrt(side))) - 1
    n, k = n_max + 1, _low_side(n_max, low_cutoff)

    def block(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
        """Entries of a whose row quanta are < rows and column quanta < cols."""
        return a.reshape(n, n, n, n)[:rows, :rows, :cols, :cols].reshape(
            rows * rows, cols * cols)

    spec = realization_table(table)
    names = spec.names

    report = NumericReport(model, m, t, n_max, low_cutoff, tol)
    for i, j in spec.stated:
        a, b = names[i], names[j]
        A, B = ops[a], ops[b]
        ab = block(A, k, n) @ block(B, n, k)
        ba = block(B, k, n) @ block(A, n, k)
        rhs = np.zeros_like(ab)
        for c, coeff in spec.bracket(i, j).items():
            if names[c] != CENTRAL_NAME:
                rhs += (complex(coeff.re) + 1j * complex(coeff.im)) * block(ops[names[c]], k, k)
        resid = ab - ba
        resid -= rhs
        worst = _peak(resid)
        scale = max(1.0, _peak(ab), _peak(ba), _peak(rhs))
        report.rows.append(
            NumericRow(
                lhs=a,
                rhs=b,
                residual=worst,
                exact_zero=bool(np.all(resid == 0.0)),
                passed=worst <= tol * scale,
            )
        )
        del ab, ba, rhs, resid  # freed before the next row allocates its own
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
    """Build the matrices and score every table row in one call.

    A value of m or t so large (or a mass so small) that the matrices
    overflow double precision is an input error, not a failed check.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise BadParameter(f"tolerance must be a finite number >= 0, got {tol!r}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            ops = build_numeric(model, m=m, t=t, n_max=n_max, spin_s=spin_s, rank=rank)
            return residual_report(
                ops, table=table, low_cutoff=low, tol=tol, model=model, m=m, t=t
            )
    except (FloatingPointError, OverflowError) as exc:
        raise BadParameter(
            f"m = {m!r}, t = {t!r} at n_max {n_max} exceed double precision ({exc})"
        ) from None
