"""Independent cross-checks of the exact results via a second engine.

Everything here recomputes a claim of the main package with sympy, using a
different representation: explicit plane-wave solutions instead of formal
bilinears, generic-rank linear algebra instead of Gaussian elimination over
exact scalars, and dense tensor products instead of the symmetric-basis
restriction.  Agreement between the two paths is the point of the file.
"""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from galkappa.algfile import load_bundled, loads
from galkappa.cocycle import central_extensions
from galkappa.exactscalar import Scalar
from galkappa.fieldcheck import boost_transform, load_current_terms, multispinor_equations
from galkappa.galrealize import make_registry
from galkappa.weylop import DiffOp, ScalarDiffOp
from test_conformal_galilei import conformal_galilei_text


# -- central-extension dimensions, recomputed by generic rank -------------------


def _sympy_h2(spec):
    n = spec.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pidx = {p: k for k, p in enumerate(pairs)}

    def consts(a, b):
        return {
            k: sp.Rational(c.re) + sp.I * sp.Rational(c.im)
            for k, c in spec.bracket(a, b).items()
        }

    def beta_entry(row, a, b, factor):
        if a == b:
            return
        sign = 1 if a < b else -1
        row[pidx[(min(a, b), max(a, b))]] += sign * factor

    cocycle_rows = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                row = [sp.Integer(0)] * len(pairs)
                for l, f in consts(a, b).items():
                    beta_entry(row, l, c, f)
                for l, f in consts(b, c).items():
                    beta_entry(row, l, a, f)
                for l, f in consts(c, a).items():
                    beta_entry(row, l, b, f)
                cocycle_rows.append(row)

    if cocycle_rows:
        z = len(pairs) - sp.Matrix(cocycle_rows).rank()
    else:
        z = len(pairs)

    cob_rows = []
    for a, b in pairs:
        row = [sp.Integer(0)] * n
        for l, f in consts(a, b).items():
            row[l] += f
        cob_rows.append(row)
    b_dim = sp.Matrix(cob_rows).rank()
    return z, b_dim, z - b_dim


@pytest.mark.parametrize(
    "name,h2",
    [
        ("planar_galilei", 3),
        ("planar_galilei_literal", 5),
        ("planar_galilei_mass", 2),
        ("planar_galilei_central", 2),
        ("planar_galilei_central_literal", 3),
        ("galilei_1d", 2),
        ("so3", 0),
        ("abelian4", 6),
        ("galilei_3p1", 1),
        ("planar_gca", 1),
    ],
)
def test_extension_dimensions_agree(name, h2):
    spec = load_bundled(name)
    z, b, h = _sympy_h2(spec)
    ext = central_extensions(spec)
    assert (z, b, h) == (ext.cocycle_dim, ext.coboundary_dim, ext.h2)
    assert h == h2


@pytest.mark.parametrize("ell", [Fraction(1, 2), Fraction(1), Fraction(3, 2)],
                         ids=lambda ell: f"l={ell}")
def test_conformal_galilei_dimensions_agree(ell):
    spec = loads(conformal_galilei_text(ell))
    ext = central_extensions(spec)
    assert _sympy_h2(spec) == (ext.cocycle_dim, ext.coboundary_dim, ext.h2)


# -- conservation on explicit two-momentum solutions ----------------------------


def _plane_wave_pair(s):
    """On-shell solution and an independent-momentum conjugate solution."""
    x1, x2, t, m = sp.symbols("x1 x2 t m", positive=True)
    p1, p2, q1, q2 = sp.symbols("p1 p2 q1 q2", real=True)
    Ep = (p1**2 + p2**2) / (2 * m)
    Eq = (q1**2 + q2**2) / (2 * m)
    phi = sp.exp(sp.I * (p1 * x1 + p2 * x2 - Ep * t))
    chi = -(p1 + sp.I * s * p2) / (2 * m) * phi
    phid = sp.exp(-sp.I * (q1 * x1 + q2 * x2 - Eq * t))
    chid = -(q1 - sp.I * s * q2) / (2 * m) * phid
    coords = (x1, x2, t, m)
    return (phi, chi), (phid, chid), coords


def _matrix(name, j, s):
    if name == "sigma_j":
        if j == 1:
            return sp.Matrix([[0, 1], [1, 0]])
        return sp.Matrix([[0, -sp.I * s], [sp.I * s, 0]])
    if name == "gamma":
        return sp.Matrix([[1, 0], [0, 0]])
    return sp.Matrix([[2, 0], [0, 0]])


def _bilinear(term, i, j, s, ket, dag, coords):
    x1, x2, t, m = coords
    xi = (x1, x2)[i - 1]
    pref = sp.sympify(term["coeff"].replace("i", "I"))
    pref *= s ** term.get("spin_power", 0)
    if term.get("eps"):
        pref *= {(1, 2): 1, (2, 1): -1}.get((i, j), 0)
    for factor in term.get("factors", ()):
        pref *= {"m": m, "x_i": xi, "t": t}[factor]
    mat = _matrix(term["matrix"], j, s)
    grad = term.get("grad")
    total = sp.Integer(0)
    for a in range(2):
        for b in range(2):
            if mat[a, b] == 0:
                continue
            left = sp.diff(dag[a], xi) if grad == "dagger" else dag[a]
            right = sp.diff(ket[b], xi) if grad == "field" else ket[b]
            total += pref * mat[a, b] * left * right
    return total


def _divergence(variant, i, s):
    data = load_current_terms(variant)
    ket, dag, coords = _plane_wave_pair(s)
    x1, x2, t, _ = coords
    total = sp.Integer(0)
    for j, xj in ((1, x1), (2, x2)):
        flux = sum(
            _bilinear(term, i, j, s, ket, dag, coords)
            for term in data["terms"]["flux"]
        )
        total += sp.diff(flux, xj)
    density = sum(
        _bilinear(term, i, None, s, ket, dag, coords)
        for term in data["terms"]["density"]
    )
    total += sp.diff(density, t)
    # strip the common phase and compare rational functions exactly
    ratio = sp.cancel(sp.expand(total / (ket[0] * dag[0])))
    return sp.simplify(ratio)


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("s", [1, -1])
def test_divergence_vanishes_on_solutions(i, s):
    assert _divergence("corrected", i, s) == 0


def test_divergence_literal_variant_survives():
    assert _divergence("literal", 1, 1) != 0


# -- boost covariance as a map on solutions -------------------------------------


@pytest.mark.parametrize("s", [1, -1])
def test_boosted_solution_still_solves(s):
    (phi, chi), _, coords = _plane_wave_pair(s)
    x1, x2, t, m = coords
    v1, v2 = sp.symbols("v1 v2", real=True)
    vplus = v1 + sp.I * s * v2
    theta = m * (v1 * x1 + v2 * x2) - sp.Rational(1, 2) * m * (v1**2 + v2**2) * t

    def moved(f):
        return f.subs({x1: x1 - v1 * t, x2: x2 - v2 * t}, simultaneous=True)

    psi1 = sp.exp(sp.I * theta) * moved(phi)
    psi2 = sp.exp(sp.I * theta) * (-vplus / 2 * moved(phi) + moved(chi))

    row0 = sp.I * sp.diff(psi1, t) + (-sp.I * sp.diff(psi2, x1) - s * sp.diff(psi2, x2))
    row1 = (-sp.I * sp.diff(psi1, x1) + s * sp.diff(psi1, x2)) + 2 * m * psi2
    assert sp.simplify(row0) == 0
    assert sp.simplify(row1) == 0


def test_unboosted_pair_solves_to_begin_with():
    (phi, chi), _, coords = _plane_wave_pair(1)
    x1, x2, t, m = coords
    row0 = sp.I * sp.diff(phi, t) + (-sp.I * sp.diff(chi, x1) - sp.diff(chi, x2))
    row1 = (-sp.I * sp.diff(phi, x1) + sp.diff(phi, x2)) + 2 * m * chi
    assert sp.simplify(row0) == 0
    assert sp.simplify(row1) == 0


# -- the finite boost of any operator, against the frame shift and phase -------
#
# `boost_transform` sums the series exp(ad X) with X = -i (v1 K1 + v2 K2).
# Here the same map is written as the frame shift x -> x - v t, the phase
# exp(i theta) and the matrix S, on plane waves exp(i (p.x + w t)) with a
# symbolic wave vector; an operator with polynomial coefficients is fixed by
# its action on these (its symbol), so equality on them is operator equality.


def _random_operator(rng, reg):
    """A scalar operator of order <= 2 with polynomial coefficients of degree <= 2."""
    def poly():
        total = reg.zero()
        for _ in range(rng.randint(1, 2)):
            mono = reg.const(Scalar(rng.randint(-3, 3), rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 2)):
                mono = mono * reg.symbol(rng.choice(("x1", "x2", "t", "m")))
            total = total + mono
        return total

    terms = {}
    for _ in range(rng.randint(1, 3)):
        midx = [0, 0, 0]
        for _ in range(rng.randint(0, 2)):
            midx[rng.randrange(3)] += 1
        terms[tuple(midx)] = poly()
    return ScalarDiffOp(reg, terms)


def _apply(A, vec, coords):
    """The 2x2 operator A applied to the column vec of sympy expressions."""
    out = []
    for row in A.rows:
        total = sp.Integer(0)
        for entry, f in zip(row, vec):
            for midx, coeff in entry._terms.items():
                d = f
                for sym, k in zip(coords, midx):
                    d = sp.diff(d, sym, k)
                total += _sympy_poly(coeff) * d
        out.append(total)
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("s", [1, -1])
def test_boost_transform_is_the_frame_shift_and_phase(s, seed):
    rng = random.Random(seed)
    reg = make_registry()
    A = DiffOp(reg, [[_random_operator(rng, reg) for _ in range(2)] for _ in range(2)])
    boosted = boost_transform(A, s, (reg.symbol("v1"), reg.symbol("v2")))

    x1, x2, t, m, v1, v2, p1, p2, w = sp.symbols("x1 x2 t m v1 v2 p1 p2 w")
    coords = (x1, x2, t)
    wave = sp.exp(sp.I * (p1 * x1 + p2 * x2 + w * t))
    theta = m * (v1 * x1 + v2 * x2) - m * (v1**2 + v2**2) * t / 2
    half_vp = (v1 + sp.I * s * v2) / 2
    shift = {x1: x1 - v1 * t, x2: x2 - v2 * t}
    back = {x1: x1 + v1 * t, x2: x2 + v2 * t}
    for col in range(2):
        f = [wave if c == col else sp.Integer(0) for c in range(2)]
        # S^-1 W^-1 A W S f, with (W g)(x, t) = exp(i theta) g(x - v t, t)
        g = [f[0], f[1] - half_vp * f[0]]
        Wg = [sp.exp(sp.I * theta) * e.subs(shift, simultaneous=True) for e in g]
        AWg = _apply(A, Wg, coords)
        back_g = [(sp.exp(-sp.I * theta) * e).subs(back, simultaneous=True) for e in AWg]
        want = [back_g[0], back_g[1] + half_vp * back_g[0]]
        got = _apply(boosted, f, coords)
        for r in range(2):
            assert sp.expand(sp.powsimp(sp.expand((got[r] - want[r]) / wave))) == 0, (r, col)


# -- multispinor reduction via dense tensor products ----------------------------


def _dense_reduction(N):
    E, m, pm, pp = sp.symbols("E m p_minus p_plus")
    G = sp.Matrix([[E, pm], [pp, 2 * m]])
    gam = sp.Matrix([[1, 0], [0, 0]])
    eye = sp.eye(2)

    def embed(slot):
        acc = None
        for k in range(1, N + 1):
            factor = G if k == slot else gam
            acc = factor if acc is None else sp.kronecker_product(acc, factor)
        return acc

    T = sum((embed(slot) for slot in range(1, N + 1)), sp.zeros(2**N))
    T = T / N

    classes = [[] for _ in range(N + 1)]
    for idx in range(2**N):
        classes[bin(idx).count("1")].append(idx)

    reduced = sp.zeros(N + 1, N + 1)
    for k in range(N + 1):
        vec = sp.zeros(2**N, 1)
        for idx in classes[k]:
            vec[idx] = 1
        w = sp.expand(T @ vec)
        for jj, members in enumerate(classes):
            vals = {sp.simplify(w[idx]) for idx in members}
            assert len(vals) == 1, "image leaves the symmetric subspace"
            reduced[jj, k] = vals.pop()
    return reduced, (E, m, pm, pp)


def _sympy_poly(poly):
    """A package polynomial as a sympy expression in its registry's symbols."""
    syms = sp.symbols(poly.registry.names)
    out = sp.Integer(0)
    for key, coeff in poly.items():
        term = sp.Rational(coeff.re) + sp.I * sp.Rational(coeff.im)
        for sym, power in zip(syms, key):
            term *= sym ** power
        out += term
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_dense_reduction_matches_claim(N):
    reduced, (E, m, pm, pp) = _dense_reduction(N)
    got = multispinor_equations(N).matrix
    assert len(got) == N + 1
    for r in range(N + 1):
        for c in range(N + 1):
            assert sp.expand(_sympy_poly(got[r][c]) - reduced[r, c]) == 0, (r, c)
    scale = sp.Rational(1, N)
    assert reduced[0, 0] == E and reduced[0, 1] == pm
    assert sp.simplify(reduced[1, 0] - scale * pp) == 0
    assert sp.simplify(reduced[1, 1] - scale * 2 * m) == 0
    for c in range(2, N + 1):
        assert reduced[0, c] == 0 and reduced[1, c] == 0
    for r in range(2, N + 1):
        for c in range(N + 1):
            assert sp.simplify(reduced[r, c]) == 0
    assert reduced.rank() == 2
    assert (N + 1) - reduced.rank() == N - 1
