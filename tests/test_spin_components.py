"""A generator set on d components: the spinless operators times Id_d plus a spin part.

Every spinless generator becomes its operator times Id_d, and three get a
constant d x d spin part: J gets diag((d-1)/2 - k), K1 gets -i f and K2
gets f, where f is the lowering shift (f e_k = e_{k+1}).  The spin parts
satisfy [S_J, S_K1] = i S_K2, [S_J, S_K2] = -i S_K1 and [S_K1, S_K2] = 0 and
commute with every spinless operator, so the set realizes the corrected
table with kappa 0 and mass m at every d.  Most entries of these matrices
are zero.
"""

from fractions import Fraction

import pytest

from galkappa.exactscalar import NEG_I, ONE, Scalar
from galkappa.galrealize import (
    TABLE_CORRECTED, GeneratorSet, spinless_generators, stated_rows, verify_structure)
from galkappa.weylop import DiffOp, ScalarDiffOp
from test_bracket_oracle import _same_matrix, ref_commutator


def spin_components(d: int) -> GeneratorSet:
    base = spinless_generators()
    reg = base.registry
    zero = ScalarDiffOp.zero(reg)
    shift = {"K1": ScalarDiffOp.coeff(reg.const(NEG_I)), "K2": ScalarDiffOp.coeff(reg.const(ONE))}
    gens = {}
    for name, op in base.gens.items():
        rows = [[op.entry(0, 0) if r == c else zero for c in range(d)] for r in range(d)]
        if name == "J":
            for k in range(d):
                rows[k][k] += ScalarDiffOp.coeff(reg.const(Scalar(Fraction(d - 1, 2) - k)))
        if name in shift:
            for k in range(d - 1):
                rows[k + 1][k] = shift[name]
        gens[name] = DiffOp(reg, rows)
    return GeneratorSet(gens)


@pytest.mark.parametrize("d", range(2, 10))
def test_the_corrected_table_holds_on_d_components(d):
    report = verify_structure(spin_components(d), TABLE_CORRECTED)
    assert report.overall and len(report.rows) == 21
    assert (report.kappa_text, report.mass_text) == ("0", "m")


@pytest.mark.parametrize("d", range(2, 5))
def test_each_commutator_matches_the_reference(d):
    g = spin_components(d)
    for lhs, rhs, _ in stated_rows(TABLE_CORRECTED):
        _same_matrix(g[lhs].commutator(g[rhs]), ref_commutator(g[lhs], g[rhs]))
