"""Acceptance gate: one test per contract criterion, one printed line each.

Run with ``pytest -v`` (or ``-s`` to see the printed lines on passes).  Each
test prints ``criterion NN: PASS/FAIL`` before finishing, so the gate reads
as a checklist.  One criterion is knowingly red: the pinned two-dimensional
extension space for the planar algebra; the computation (confirmed by an
independent engine in test_oracles.py) finds three independent classes, and
the assertion states the pinned value rather than the computed one.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from galkappa.algfile import load_bundled
from galkappa.cocycle import central_extensions, classes_independent, is_cocycle
from galkappa.exactscalar import Scalar
from galkappa.fieldcheck import (
    CHI,
    PHI,
    EomRules,
    FieldPoly,
    boost_transform,
    build_wave_operator,
    check_boost_covariance,
    check_conservation,
    check_rotation_covariance,
    load_current_terms,
    multispinor_equations,
    reduce_on_shell,
)
from galkappa.galrealize import (
    GENERATOR_NAMES,
    extend_lambda,
    extract_kappa,
    kappa_shift,
    make_registry,
    realize,
    verify_structure,
)
from galkappa.numtrunc import run_numeric_check, xp_defect
from galkappa.weylop import ScalarDiffOp


@contextmanager
def criterion(num, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {label}")


def all_models():
    yield "schrodinger", realize("schrodinger", 1, 1)
    for s in (1, -1):
        yield f"levyleblond s={s:+d}", realize("levyleblond", s, 1)
    for N in (1, 2, 3, 4):
        for s in (1, -1):
            yield f"multispinor N={N} s={s:+d}", realize("multispinor", s, N)


def test_criterion_01_second_extension_parameter_vanishes():
    with criterion(1, "second extension parameter is exactly zero in every model"):
        for label, g in all_models():
            assert extract_kappa(g).is_zero, label
            lifted = extend_lambda(g, g.registry.symbol("lam"))
            assert extract_kappa(lifted).is_zero, f"{label} after rotation shift"


def test_criterion_02_structure_table_and_mass():
    with criterion(2, "full bracket table verified exactly, extracted mass is m"):
        for label, g in all_models():
            rep = verify_structure(g, "corrected")
            assert rep.overall, f"{label}: {[str(r) for r in rep.failing_rows()]}"
            assert rep.mass is not None, label
            assert (rep.mass - g.registry.symbol("m")).is_zero, label


def test_criterion_03_shift_moves_parameter_and_reverses():
    with criterion(3, "boost redefinition gives kappa = -c and reverses bit-exactly"):
        g = realize("schrodinger", 1, 1)
        c = g.registry.symbol("c")
        shifted = kappa_shift(g, c)
        assert (extract_kappa(shifted) + c).is_zero
        back = kappa_shift(shifted, -c)
        for name in GENERATOR_NAMES:
            assert (back[name] - g[name]).is_zero, name
        # rational instance as well
        val = g.registry.const(Scalar(Fraction(3, 2)))
        assert (extract_kappa(kappa_shift(g, val)) + val).is_zero


def test_criterion_04_planar_extension_space_dimension():
    with criterion(4, "planar central-extension space: pinned dimension 2"):
        spec = load_bundled("planar_galilei")
        ext = central_extensions(spec)
        # cross-check inputs of the claim
        assert central_extensions(load_bundled("abelian4")).h2 == 6
        assert central_extensions(load_bundled("so3")).h2 == 0
        assert central_extensions(load_bundled("galilei_1d")).h2 == 2
        # the two named forms are genuine cocycles, independent mod coboundaries
        mass = {("K1", "P1"): Scalar(1), ("K2", "P2"): Scalar(1)}
        boost = {("K1", "K2"): Scalar(1)}
        assert is_cocycle(spec, mass)
        assert is_cocycle(spec, boost)
        assert classes_independent(spec, [mass, boost])
        # pinned dimension — the computation, cross-checked by an independent
        # engine, finds a third class (supported on the energy-rotation pair)
        assert ext.h2 == 2, (
            f"computed extension space has dimension {ext.h2}; the two named "
            "classes are present and independent, but a third independent "
            "class supported on b(H,J) also survives reduction"
        )


def test_criterion_05_conservation_law_closes():
    with criterion(5, "boost-moment divergence vanishes on shell; every term matters"):
        for i in (1, 2):
            for s in (1, -1):
                assert check_conservation(i, s).is_zero, (i, s)
        data = load_current_terms()
        for section in ("flux", "density"):
            for idx in range(len(data["terms"][section])):
                mutant = check_conservation(1, 1, drop=(section, idx))
                assert not mutant.is_zero, f"dropping {section}[{idx}] unnoticed"


def test_criterion_06_boost_and_rotation_covariance():
    with criterion(6, "boost covariance solvable with identity at v=0; rotation too"):
        for s in (1, -1):
            res = check_boost_covariance(s)
            at0 = res.lam_at_zero()
            assert at0[0][0] == Scalar(1) and at0[1][1] == Scalar(1)
            assert at0[0][1].is_zero and at0[1][0].is_zero
            reg = make_registry()
            G = build_wave_operator(reg, s)
            v = (reg.symbol("v1"), reg.symbol("v2"))
            neg = (-reg.symbol("v1"), -reg.symbol("v2"))
            assert (boost_transform(boost_transform(G, s, v), s, neg) - G).is_zero
            check_rotation_covariance(s)  # raises if unsolvable


def test_criterion_07_multispinor_two_equations():
    with criterion(7, "rank-N system reduces to exactly two distinct equations"):
        for N in (1, 2, 3, 4):
            res = multispinor_equations(N)
            assert res.nullity == N - 1
            assert res.row_scale == Scalar(Fraction(1, N))


def _random_poly(rng, reg):
    total = reg.zero()
    for _ in range(rng.randint(1, 2)):
        coeff = Scalar(
            Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
            Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
        )
        mono = reg.const(coeff)
        for _ in range(rng.randint(0, 2)):
            mono = mono * reg.symbol(rng.choice(("x1", "x2", "t", "m")))
        total = total + mono
    return total


def _random_op(rng, reg):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        midx = [0, 0, 0]
        for _ in range(rng.randint(0, 2)):
            midx[rng.randrange(3)] += 1
        key = tuple(midx)
        acc = terms.get(key, reg.zero()) + _random_poly(rng, reg)
        terms[key] = acc
    return ScalarDiffOp(reg, terms)


def _random_bilinear(rng, reg):
    f = FieldPoly.zero(reg)
    for _ in range(rng.randint(1, 3)):
        dag = rng.choice((PHI, CHI))
        ket = rng.choice((PHI, CHI))
        dm = tuple(rng.randint(0, 1) for _ in range(3))
        km = tuple(rng.randint(0, 1) for _ in range(3))
        f = f + FieldPoly.term(reg, _random_poly(rng, reg), dag, dm, ket, km)
    return f


def test_criterion_08_randomized_property_suites():
    with criterion(8, "randomized associativity, Jacobi, and reduction idempotence"):
        rng = random.Random(20260819)
        reg = make_registry()
        ops = [_random_op(rng, reg) for _ in range(200)]
        for k in range(len(ops) - 2):
            A, B, C = ops[k], ops[k + 1], ops[k + 2]
            assert (A.compose(B).compose(C) - A.compose(B.compose(C))).is_zero, k
            jac = (
                A.bracket(B).bracket(C)
                + B.bracket(C).bracket(A)
                + C.bracket(A).bracket(B)
            )
            assert jac.is_zero, k
        rules = EomRules(reg, 1)
        for k in range(100):
            f = _random_bilinear(rng, reg)
            once = reduce_on_shell(f, rules)
            assert once == reduce_on_shell(once, rules), k


def test_criterion_09_numeric_truncation_residuals():
    with criterion(9, "projected residuals within 1e-10 at the stated settings"):
        rep = run_numeric_check(model="schrodinger", m=1.0, t=0.5, n_max=24, low=8)
        assert (rep.n_max, rep.low_cutoff, rep.m, rep.t) == (24, 8, 1.0, 0.5)
        assert rep.overall
        rows = {(r.lhs, r.rhs): r for r in rep.rows}
        assert rows[("K1", "K2")].exact_zero
        assert max(r.residual for r in rep.rows) <= 1e-10
        # per-axis canonical-pair defect is confined to the top basis state
        d = xp_defect(25)
        assert abs(d[-1, -1] + 25j) < 1e-9
        interior = d.copy()
        interior[-1, :] = 0.0
        interior[:, -1] = 0.0
        assert np.max(np.abs(interior)) < 1e-12


def test_criterion_10_literal_table_mode_flags_discrepancy():
    with criterion(10, "literal-table mode isolates the boost-time rows, flagged"):
        for label, g in all_models():
            rep = verify_structure(g, "literal")
            failing = {(r.lhs, r.rhs) for r in rep.failing_rows()}
            assert failing == {("K1", "H"), ("K2", "H")}, label
            for row in rep.failing_rows():
                assert row.note, f"{label}: discrepancy not flagged"
            for row in rep.rows:
                if (row.lhs, row.rhs) not in failing:
                    assert row.passed, f"{label}: [{row.lhs},{row.rhs}]"
