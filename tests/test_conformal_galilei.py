"""Central extensions of the planar l-conformal Galilei algebras.

The family has sl(2) generators H, D, C (L_-1, L_0, L_1), a rotation J and
one sl(2) multiplet of vector generators M_n^i, n = -l..l, per plane axis:

    [L_m, L_n] = (m - n) L_{m+n},    [L_m, M_n] = (l m - n) M_{m+n},
    [J, M_n^1] = i M_n^2,            [J, M_n^2] = -i M_n^1.

For every l the space of central extensions is one-dimensional.  The class
pairs M_n with M_{-n}: antisymmetrically in the plane index for integer l
(the "exotic" class, which at l = 1 contains the boost-boost slot
b(K1, K2)), symmetrically for half-integer l (the mass).  See Lukierski,
Stichel and Zakrzewski, Phys. Lett. A 357 (2006) 1.  The text is generated
here, independently of the bundled files.
"""

from fractions import Fraction

import pytest

from galkappa.algfile import load_bundled, loads
from galkappa.cocycle import central_extensions
from galkappa.exactscalar import I, ZERO, Scalar

SL2 = {-1: "H", 0: "D", 1: "C"}
LEVELS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3), Fraction(10), Fraction(20),
          Fraction(40)]


def vector(k: int, axis: int) -> str:
    """M_n^axis, numbered by k = n + l from 0."""
    return f"M{k}_{axis}"


def conformal_galilei_text(ell: Fraction) -> str:
    """The .alg text of the planar l-conformal Galilei algebra."""
    top = int(2 * ell)
    names = ["H", "D", "C", "J"] + [vector(k, a) for k in range(top + 1) for a in (1, 2)]
    lines = ["generators: " + " ".join(names)]
    for m in (-1, 0, 1):
        for m2 in range(m + 1, 2):
            lines.append(f"[{SL2[m]}, {SL2[m2]}] = {m - m2}*{SL2[m + m2]}")
    for k in range(top + 1):
        lines.append(f"[J, {vector(k, 1)}] = i*{vector(k, 2)}")
        lines.append(f"[J, {vector(k, 2)}] = -i*{vector(k, 1)}")
        for m in (-1, 0, 1):
            coeff = ell * m - (k - ell)  # zero exactly when M_{m+n} would leave the multiplet
            if coeff:
                for a in (1, 2):
                    lines.append(f"[{SL2[m]}, {vector(k, a)}] = {coeff}*{vector(k + m, a)}")
    return "\n".join(lines) + "\n"


def level_id(ell: Fraction) -> str:
    return f"l={ell}"


@pytest.mark.parametrize("ell", LEVELS, ids=level_id)
def test_one_central_class_at_every_level(ell):
    spec = loads(conformal_galilei_text(ell))
    n = spec.dim
    assert n == 4 + 2 * (int(2 * ell) + 1)
    ext = central_extensions(spec)
    assert (ext.cocycle_dim, ext.coboundary_dim, ext.h2) == (n, n - 1, 1)


@pytest.mark.parametrize("ell", LEVELS, ids=level_id)
def test_class_pairs_opposite_modes_with_the_parity_of_the_level(ell):
    top = int(2 * ell)
    ext = central_extensions(loads(conformal_galilei_text(ell)))
    support = ext.representative_support(0)
    beta = {}
    for (x, y), c in support.items():
        beta[(x, y)], beta[(y, x)] = c, -c
    # only M_n against M_{-n}
    for x, y in support:
        assert x[0] == y[0] == "M"
        assert int(x[1:].split("_")[0]) + int(y[1:].split("_")[0]) == top
    # in the plane index: antisymmetric for integer l, symmetric otherwise
    sign = -1 if ell.denominator == 1 else 1
    for k in range(top + 1):
        for a in (1, 2):
            for b in (1, 2):
                here = beta.get((vector(k, a), vector(top - k, b)), ZERO)
                swapped = beta.get((vector(k, b), vector(top - k, a)), ZERO)
                assert here == swapped * sign
    assert support


def test_level_one_class_contains_the_boost_boost_slot():
    ext = central_extensions(loads(conformal_galilei_text(Fraction(1))))
    # K_i is M_0^i, numbered k = 1
    assert not ext.representative_support(0)[(vector(1, 1), vector(1, 2))].is_zero


def test_bundled_planar_gca_is_the_level_one_member():
    """planar_gca.alg is the l = 1 text with every generator but J scaled by i,
    and with P, K, F for M_-1, M_0, M_1."""
    generated = loads(conformal_galilei_text(Fraction(1)))
    bundled = load_bundled("planar_gca")
    rename = {"H": "H", "D": "D", "C": "C", "J": "J"}
    for k, letter in enumerate("PKF"):
        for a in (1, 2):
            rename[vector(k, a)] = f"{letter}{a}"
    to_bundled = [bundled.index(rename[x]) for x in generated.names]
    for i in range(generated.dim):
        for j in range(generated.dim):
            # [iX, iY] = -[X, Y] = i [X, Y] expressed in the scaled basis
            scale = 1 if "J" in (generated.names[i], generated.names[j]) else I
            expected = {to_bundled[k]: c * scale for k, c in generated.bracket(i, j).items()}
            assert bundled.bracket(to_bundled[i], to_bundled[j]) == expected


def test_bundled_planar_gca_class():
    ext = central_extensions(load_bundled("planar_gca"))
    assert (ext.cocycle_dim, ext.coboundary_dim, ext.h2) == (10, 9, 1)
    assert ext.representative_support(0) == {
        ("P1", "F2"): Scalar(1), ("P2", "F1"): Scalar(-1), ("K1", "K2"): Scalar(Fraction(-1, 2)),
    }
