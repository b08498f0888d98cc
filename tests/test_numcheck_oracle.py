"""The evaluated numcheck against the hand-written dense construction.

`dense_build` and `dense_residuals` are the earlier `numtrunc` code, kept
here as the reference: generators transcribed by hand as full
(n_max+1)^2 matrices, and residuals projected with a dense 0/1 projector.
The package now evaluates the exact `galrealize` generators as Kronecker
factor pairs and forms only the slabs the low-mode block reads; `expand`
sums the pairs into full matrices here, so both must give the same matrices
and residuals.  `copying_residuals` is the block scoring that copied the
block out of full generators; `residual_report` must give bitwise the same
rows.
"""

import numpy as np
import pytest

from galkappa.galrealize import CENTRAL_NAME, MODELS, realization_table
from galkappa.numtrunc import build_numeric, low_mode_indices, residual_report

SETTINGS = [(1.0, 0.5), (0.7, 1.3), (2.0, 0.0), (0.25, -2.0)]


def spin_constant(model, spin_s, rank):
    if model == "schrodinger":
        return 0.0
    if model == "levyleblond":
        return spin_s / 2.0
    return rank * spin_s / 2.0


def expand(ops):
    """Each generator's factor pairs summed, in order, into its full matrix."""
    return {name: sum(np.kron(a, b) for a, b in terms) for name, terms in ops.items()}


def dense_build(model, m, t, n_max, spin_s, rank):
    dim = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = -1j * (a - a.conj().T) / np.sqrt(2.0)
    eye = np.eye(dim, dtype=complex)
    x1, x2 = np.kron(x, eye), np.kron(eye, x)
    p1, p2 = np.kron(p, eye), np.kron(eye, p)
    big_eye = np.eye(dim * dim, dtype=complex)
    spin_const = spin_constant(model, spin_s, rank)
    return {
        "P1": p1,
        "P2": p2,
        "H": (p1 @ p1 + p2 @ p2) / (2.0 * m),
        "J": x1 @ p2 - x2 @ p1 + spin_const * big_eye,
        "K1": np.kron(m * x - t * p, eye),
        "K2": np.kron(eye, m * x - t * p),
        "M": m * big_eye,
    }


def dense_residuals(ops, spec, n_max, low):
    keep = np.zeros(n_max + 1)
    keep[: low + 1] = 1.0
    proj = np.diag(np.kron(keep, keep)).astype(complex)
    zero = np.zeros_like(ops["P1"])
    names = spec.names
    out = []
    for i, j in spec.stated:
        A, B = ops[names[i]], ops[names[j]]
        rhs = zero
        for k, coeff in spec.bracket(i, j).items():
            target = zero if names[k] == "kappa" else ops[names[k]]
            rhs = rhs + (complex(coeff.re) + 1j * complex(coeff.im)) * target
        resid = proj @ (A @ B - B @ A - rhs) @ proj
        out.append((float(np.max(np.abs(resid))), bool(np.all(resid == 0.0))))
    return out


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("spin_s", [1, -1])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_evaluated_generators_and_residuals_match_dense_reference(model, spin_s, rank):
    for n_max in range(4, 13):
        m, t = SETTINGS[n_max % len(SETTINGS)]
        low = n_max // 2
        ref = dense_build(model, m, t, n_max, spin_s, rank)
        ops = build_numeric(model, m=m, t=t, n_max=n_max, spin_s=spin_s, rank=rank)
        full = expand(ops)
        assert list(full) == list(ref)
        for name, mat in ref.items():
            scale = max(1.0, float(np.max(np.abs(mat))))
            assert np.max(np.abs(full[name] - mat)) <= 1e-13 * scale, (name, n_max)
        table = "literal" if n_max % 3 == 0 else "corrected"
        want = dense_residuals(ref, realization_table(table), n_max, low)
        rep = residual_report(ops, table=table, low_cutoff=low, m=m, t=t)
        for row, (residual, exact_zero) in zip(rep.rows, want):
            assert abs(row.residual - residual) <= 1e-13, (row.lhs, row.rhs, n_max)
            assert row.exact_zero == exact_zero, (row.lhs, row.rhs, n_max)
        k1k2 = full["K1"] @ full["K2"] - full["K2"] @ full["K1"]
        assert np.all(k1k2 == 0.0)


def copying_residuals(ops, spec, n_max, low, tol=1e-9):
    keep = low_mode_indices(n_max, low)
    block = np.ix_(keep, keep)
    names = spec.names
    out = []
    for i, j in spec.stated:
        a, b = names[i], names[j]
        A, B = ops[a], ops[b]
        ab = A[keep] @ B[:, keep]
        ba = B[keep] @ A[:, keep]
        rhs = np.zeros_like(ab)
        for k, coeff in spec.bracket(i, j).items():
            if names[k] != CENTRAL_NAME:
                rhs = rhs + (complex(coeff.re) + 1j * complex(coeff.im)) * ops[names[k]][block]
        resid = ab - ba - rhs
        worst = float(np.max(np.abs(resid)))
        scale = max(1.0, *(float(np.max(np.abs(a))) for a in (ab, ba, rhs)))
        out.append((a, b, worst, bool(np.all(resid == 0.0)), worst <= tol * scale))
    return out


@pytest.mark.parametrize("model", MODELS)
def test_whole_space_block_matches_the_copying_path_bitwise(model):
    for n_max in range(6, 13):
        m, t = SETTINGS[n_max % len(SETTINGS)]
        ops = build_numeric(model, m=m, t=t, n_max=n_max, spin_s=1, rank=2)
        table = "literal" if n_max % 3 == 0 else "corrected"
        for low in (n_max, n_max // 3):
            rep = residual_report(ops, table=table, low_cutoff=low, m=m, t=t)
            got = [(r.lhs, r.rhs, r.residual, r.exact_zero, r.passed) for r in rep.rows]
            assert got == copying_residuals(expand(ops), realization_table(table), n_max,
                                            low), (n_max, low)
