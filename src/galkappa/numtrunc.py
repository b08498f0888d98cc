"""Floating-point cross-check on a truncated oscillator basis.

The symbolic layer proves identities exactly; this module rebuilds the same
generators as finite complex matrices (harmonic-oscillator modes per axis,
cut at n_max) and measures commutator residuals.  Truncation breaks the
canonical pair only in the highest mode, so residuals are tested after
projecting onto a low-mode block well away from the cut.

The boost-boost commutator needs no tolerance at all: the two boosts act on
different tensor factors, and both product orders multiply the same pairs
of matrix entries, so the difference is bitwise zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .errors import BadParameter
from .galrealize import MODELS, StructureTable, check_rank, check_spin, default_table

# Every operator is a dense complex matrix of side (n_max+1)**2.  A run holds
# about 14 of them at its peak (measured with tracemalloc at n_max 12 and 20):
# the generators, the axis factors they are built from, and the temporaries
# of one commutator row.  Larger truncations are refused before allocating.
PEAK_DENSE_MATRICES = 14
DENSE_BYTES_BUDGET = 2 * 1024**3


def dense_bytes(n_max: int) -> int:
    """Estimated peak bytes of the dense matrices of a check at n_max."""
    side = (n_max + 1) ** 2
    return PEAK_DENSE_MATRICES * side * side * np.dtype(complex).itemsize


def _ladder(dim: int) -> np.ndarray:
    """Annihilation matrix: superdiagonal sqrt(1..dim-1)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def xp_defect(dim: int) -> np.ndarray:
    """[x, p] - i on one axis; zero except near the truncation edge."""
    a = _ladder(dim)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = -1j * (a - a.conj().T) / np.sqrt(2.0)
    return x @ p - p @ x - 1j * np.eye(dim)


def _spin_constant(model: str, spin_s: int, rank: int) -> float:
    if model == "schrodinger":
        return 0.0
    if model == "levyleblond":
        return spin_s / 2.0
    return rank * spin_s / 2.0


def build_numeric(
    model: str,
    m: float = 1.0,
    t: float = 0.5,
    n_max: int = 24,
    spin_s: int = 1,
    rank: int = 1,
) -> Dict[str, np.ndarray]:
    """Generators as complex matrices on the two-axis truncated mode space."""
    if model not in MODELS:
        raise BadParameter(f"unknown model {model!r}; choose from {MODELS}")
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
    check_spin(spin_s)
    check_rank(rank)

    dim = n_max + 1
    a = _ladder(dim)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = -1j * (a - a.conj().T) / np.sqrt(2.0)
    eye = np.eye(dim, dtype=complex)

    x1, x2 = np.kron(x, eye), np.kron(eye, x)
    p1, p2 = np.kron(p, eye), np.kron(eye, p)
    big_eye = np.eye(dim * dim, dtype=complex)

    spin_const = _spin_constant(model, spin_s, rank)
    ops = {
        "P1": p1,
        "P2": p2,
        "H": (p1 @ p1 + p2 @ p2) / (2.0 * m),
        "J": x1 @ p2 - x2 @ p1 + spin_const * big_eye,
        "K1": np.kron(m * x - t * p, eye),
        "K2": np.kron(eye, m * x - t * p),
        "M": m * big_eye,
    }
    return ops


def low_mode_projector(n_max: int, low: int) -> np.ndarray:
    """Orthogonal projector onto states with both axis quanta <= low."""
    if not isinstance(low, int) or not 0 <= low <= n_max:
        raise BadParameter(f"low cutoff must be an integer in 0..{n_max}")
    dim = n_max + 1
    keep = np.zeros(dim)
    keep[: low + 1] = 1.0
    return np.diag(np.kron(keep, keep)).astype(complex)


@dataclass
class NumericRow:
    lhs: str
    rhs: str
    residual: float
    exact_zero: bool
    passed: bool

    def to_dict(self):
        return {
            "pair": [self.lhs, self.rhs],
            "max_abs_residual": self.residual,
            "exact_zero": self.exact_zero,
            "passed": self.passed,
        }


@dataclass
class NumericReport:
    model: str
    m: float
    t: float
    n_max: int
    low_cutoff: int
    tol: float
    rows: List[NumericRow] = field(default_factory=list)

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


def residual_report(
    ops: Dict[str, np.ndarray],
    table: Optional[StructureTable] = None,
    low_cutoff: int = 8,
    tol: float = 1e-9,
    model: str = "schrodinger",
    m: float = 1.0,
    t: float = 0.5,
) -> NumericReport:
    """Projected max-abs commutator residuals against a structure table.

    The central symbol in the table has no matrix realization here, so rows
    producing it are compared against zero; everything else is a linear
    combination of the built generators.
    """
    some = next(iter(ops.values()))
    total_dim = some.shape[0]
    n_max = int(round(np.sqrt(total_dim))) - 1
    proj = low_mode_projector(n_max, low_cutoff)
    table = table if table is not None else default_table()
    zero = np.zeros_like(some)

    report = NumericReport(model, m, t, n_max, low_cutoff, tol)
    for row in table.rows:
        A, B = ops[row.lhs], ops[row.rhs]
        comm = A @ B - B @ A
        rhs = zero
        for name, coeff in row.expected.items():
            target = zero if name == "kappa" else ops[name]
            rhs = rhs + (complex(coeff.re) + 1j * complex(coeff.im)) * target
        resid = proj @ (comm - rhs) @ proj
        worst = float(np.max(np.abs(resid)))
        report.rows.append(
            NumericRow(
                lhs=row.lhs,
                rhs=row.rhs,
                residual=worst,
                exact_zero=bool(np.all(resid == 0.0)),
                passed=worst <= tol,
            )
        )
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
    table: Optional[StructureTable] = None,
) -> NumericReport:
    """Build the matrices and score every table row in one call.

    A value of m or t so large that the matrices overflow double precision
    is an input error, not a failed check.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise BadParameter(f"tolerance must be a finite number >= 0, got {tol!r}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            ops = build_numeric(model, m=m, t=t, n_max=n_max, spin_s=spin_s, rank=rank)
            return residual_report(
                ops, table=table, low_cutoff=low, tol=tol, model=model, m=m, t=t
            )
    except FloatingPointError as exc:
        raise BadParameter(
            f"m = {m!r}, t = {t!r} at n_max {n_max} exceed double precision ({exc})"
        ) from None
