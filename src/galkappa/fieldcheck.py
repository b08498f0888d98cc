"""Two-component and multispinor claims: covariance, conservation, redundancy.

Bilinears in the two-component field are reduced on shell (the dependent
component and all time derivatives eliminated) before testing identities,
so every verdict is an exact statement about the independent component.
The boost and rotation checks return one result class, `Covariance`; the
finite boost exp(-i v.K) and the rotation generator read the K and J of
`galrealize.spinless_generators`, built once per process.

The conservation check writes the divergence of the bundled current into
one term map and reduces it on shell.  Every row reads one context made
once per process: the registry of `make_registry`, the parsed current and
one set of on-shell rules per spin, whose table holds each factor's image
once for every row and command at that spin.  Every symbol is a real
parameter, so a dagger factor's image is the conjugate of the plain one and
is kept beside it.  The divergence and its reduction run on every call.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Dict, List, Optional, Tuple

from . import DATA_DIR
from .errors import CovarianceFailure, RedundancyClaimFailure
from .exactscalar import (
    HALF,
    I,
    NEG_I,
    ONE,
    ZERO,
    PolyExpr,
    Scalar,
    SymbolRegistry,
    TermMap,
    _reduced,
    _sum_products,
    parse_scalar,
)
from .galrealize import (
    check_coordinate_free,
    check_rank,
    check_spin,
    make_registry,
    spinless_generators,
)
from .weylop import COORDS, ZERO_IDX, DiffOp, ScalarDiffOp

PHI = "phi"
CHI = "chi"
_COMPS = (PHI, CHI)  # matrix row and column order

# term key: (dagger component, dagger derivative index, plain component, plain index)
TermKey = Tuple[str, Tuple[int, int, int], str, Tuple[int, int, int]]

# derivative coordinate and unit multi-index of each axis (0, 1 space, 2 time)
_AXES = tuple((c, tuple(int(b == a) for b in range(len(COORDS)))) for a, c in enumerate(COORDS))


class FieldPoly(TermMap):
    """Bilinear expression: sum of coeff * (d^a comp)^dagger * (d^b comp)."""

    __slots__ = ()

    def __init__(self, registry: SymbolRegistry, terms: Dict[TermKey, PolyExpr]):
        self.registry = registry
        clean: Dict[TermKey, PolyExpr] = {}
        for key, coeff in terms.items():
            dc, dm, kc, km = key
            if dc not in (PHI, CHI) or kc not in (PHI, CHI):
                raise ValueError(f"unknown field component in {key}")
            if coeff.is_zero:
                continue
            clean[(dc, tuple(dm), kc, tuple(km))] = coeff
        self._terms = clean

    @staticmethod
    def zero(registry: SymbolRegistry) -> "FieldPoly":
        return FieldPoly(registry, {})

    @staticmethod
    def term(registry, coeff: PolyExpr, dag_comp, dag_midx, ket_comp, ket_midx) -> "FieldPoly":
        return FieldPoly(registry, {(dag_comp, tuple(dag_midx), ket_comp, tuple(ket_midx)): coeff})

    def items(self):
        return sorted(self._terms.items())

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for (dc, dm, kc, km), coeff in self.items():
            ctext = str(coeff)
            if " " in ctext:
                ctext = f"({ctext})"
            chunks.append(f"{ctext}*{dc}_dag{list(dm)}*{kc}{list(km)}")
        return " + ".join(chunks)


class EomRules:
    """On-shell rewrite rules for the two-component field at spin label s."""

    def __init__(self, registry: SymbolRegistry, s: int):
        self.registry = registry
        self.s = check_spin(s)
        half_i_over_m = (registry.const(I) * HALF).div_symbol("m")
        half_s_over_m = (registry.const(Scalar(Fraction(s, 2)))).div_symbol("m")
        self.chi_d1 = half_i_over_m          # chi -> (i/2m) d1 phi ...
        self.chi_d2 = -half_s_over_m         # ... + (-s/2m) d2 phi
        self.dt = half_i_over_m              # dt phi -> (i/2m) laplacian phi
        # the on-shell images of each factor, (plain, dagger), filled by
        # reduce_on_shell and shared by every reduction under these rules
        self._images = {}
        self._unit = [((0,) * len(registry.names), ONE)]


@lru_cache(maxsize=None)
def _eom_rules(s: int) -> EomRules:
    """The rules at spin label s over `make_registry()`, made once per process."""
    return EomRules(make_registry(), s)


def _side_image(rules: EomRules, comp: str, midx) -> tuple:
    """On-shell images of one field factor as (plain, dagger).

    Each image is [(phi multi-index, [(exponent key, Scalar)])].  chi becomes
    chi_d1 d1 phi + chi_d2 d2 phi; a time derivative of phi becomes
    dt (d1^2 + d2^2) phi; phi under space derivatives only is its own image,
    with the coefficient list `rules._unit` (1 on the constant key).  The
    dagger image is the plain one with every coefficient conjugated, since
    every symbol is real.  Each (component, multi-index) is worked out once
    per `rules`, and its coefficients are summed once per monomial.
    """
    images = rules._images
    found = images.get((comp, midx))
    if found is not None:
        return found
    x, y, t = midx
    if comp == CHI:
        steps = ((rules.chi_d1, (x + 1, y, t)), (rules.chi_d2, (x, y + 1, t)))
    elif t:
        steps = ((rules.dt, (x + 2, y, t - 1)), (rules.dt, (x, y + 2, t - 1)))
    else:
        plain = [(midx, rules._unit)]
        found = images[(comp, midx)] = (plain, plain)
        return found
    sums: Dict[Tuple[int, int, int], dict] = {}
    for rule, sub in steps:
        for out_midx, coeffs in _side_image(rules, PHI, sub)[0]:
            monomials = sums.setdefault(out_midx, {})
            for k1, c1 in rule._terms.items():
                for k2, c2 in coeffs:
                    monomials.setdefault(tuple(map(add, k1, k2)), []).append((c1, c2))
    plain = [(m, list(terms.items())) for m, terms in _collect(sums)]
    dagger = [(m, [(k, c.conj()) for k, c in terms]) for m, terms in plain]
    found = images[(comp, midx)] = (plain, dagger)
    return found


def _collect(sums: dict) -> list:
    """[(key, {exponent key: Scalar})] for each key whose monomials do not all cancel.

    sums maps each key to {exponent key: [(y, z), ...]} of Scalars; each
    monomial's coefficient is the sum of its products y*z over their
    triples, reduced once.
    """
    out = []
    for key, monomials in sums.items():
        terms = {}
        for k, pairs in monomials.items():
            a, b, d = _sum_products((y._abd, z._abd) for y, z in pairs)
            if a or b:
                terms[k] = _reduced(a, b, d)
        if terms:
            out.append((key, terms))
    return out


def reduce_on_shell(f: FieldPoly, rules: EomRules) -> FieldPoly:
    """Eliminate the dependent component and all time derivatives; exact.

    The rules rewrite each factor of a bilinear on its own: chi into space
    derivatives of phi, and each time derivative of phi into the Laplacian.
    Every rewrite removes a chi or lowers the time-derivative count, so each
    factor has a unique image.  It is worked out once per (component,
    multi-index), with its conjugate for the dagger factor, and kept in the
    table of `rules`, so every reduction under the same rules reads it from
    there.  A term's image is its coefficient times the product of its two
    factors' images.  The coefficient of each output monomial is summed once
    over all its products, and each output polynomial is formed once, so the
    result is the unique normal form.
    """
    f._coerce(rules)  # RegistryMismatch unless the rules are over f's registry
    reg = f.registry
    unit = rules._unit
    sums: Dict[TermKey, dict] = {}
    for (dc, dm, kc, km), coeff in f._terms.items():
        ket = _side_image(rules, kc, km)[0]
        for a, dag_coeffs in _side_image(rules, dc, dm)[1]:
            # the coefficient times the dagger image; a factor already on
            # shell leaves it as it is
            left = coeff._terms.items()
            if dag_coeffs is not unit:
                left = [(tuple(map(add, k1, k2)), c1 * c2)
                        for k1, c1 in left for k2, c2 in dag_coeffs]
            for b, ket_coeffs in ket:
                monomials = sums.setdefault((PHI, a, PHI, b), {})
                if ket_coeffs is unit:
                    for k, c in left:
                        monomials.setdefault(k, []).append((c, ONE))
                    continue
                for k12, c12 in left:
                    for k3, c3 in ket_coeffs:
                        monomials.setdefault(tuple(map(add, k12, k3)), []).append((c12, c3))
    zero = reg.zero()
    return f._make({key: zero._make(terms) for key, terms in _collect(sums)})


# -- conservation law ---------------------------------------------------------


@lru_cache(maxsize=None)
def _matrix_value(name: str, j: Optional[int], s: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """The constant 2x2 matrix of a current term, built once per (name, j, s)."""
    i = I
    if name == "sigma_j":
        if j == 1:
            return ((ZERO, ONE), (ONE, ZERO))
        if j == 2:
            si = Scalar.of(s)
            return ((ZERO, -i * si), (i * si, ZERO))
        raise ValueError("sigma_j needs a flux index")
    if name == "gamma":
        return ((ONE, ZERO), (ZERO, ZERO))
    if name == "one_plus_sigma3":
        return ((Scalar.of(2), ZERO), (ZERO, ZERO))
    raise ValueError(f"unknown matrix name {name!r}")


_EPS = {(1, 2): 1, (2, 1): -1, (1, 1): 0, (2, 2): 0}


def load_current_terms(variant: str = "corrected") -> dict:
    """The bundled current of `variant`, read from the package's data directory.

    The file is read and parsed on every call, so each caller gets a dict of
    its own.  A plain path is used rather than importlib.resources, which a
    run would otherwise have to load for this one file.
    """
    import json

    fname = {
        "corrected": "boost_current.json",
        "literal": "boost_current_literal.json",
    }.get(variant)
    if fname is None:
        raise ValueError(f"unknown conservation variant {variant!r}")
    with open(os.path.join(DATA_DIR, fname), encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _parsed_current(variant: str) -> Tuple[tuple, tuple]:
    """The flux and density terms of `variant`, parsed once per process.

    Each term is (scalar, spin power, eps, factors, matrix name, grad); the
    tuples are shared between calls, which only read them.
    """
    data = load_current_terms(variant)["terms"]
    return tuple(
        tuple((parse_scalar(term["coeff"]), term.get("spin_power", 0), bool(term.get("eps")),
               tuple(term.get("factors", ())), term["matrix"], term.get("grad"))
              for term in data[section])
        for section in ("flux", "density"))


def _divergence(reg: SymbolRegistry, flux, density, i: int, s: int) -> FieldPoly:
    """div(flux) + d/dt(density) at free index i and spin s, built in one map.

    Each nonzero matrix entry of a current term is one bilinear whose
    coefficient is a single monomial c*x^k: the term's scalar (coefficient,
    spin power, eps and the entry) on the exponent key k of its factors.  Its
    derivative along the section's axis is written straight in as its three
    Leibniz pieces: the coefficient's derivative (exponent e lowered by one,
    times e), the dagger index raised and the field index raised.  The
    coefficient of each output monomial is summed once, zero sums are
    dropped, and each coefficient map becomes a polynomial once.
    """
    width = len(reg.names)
    positions = reg.positions(tuple(coord for coord, _ in _AXES))
    x_i = reg.index(f"x{i}")
    e_i = _AXES[i - 1][1]
    sums: Dict[TermKey, dict] = {}
    for j, terms in ((1, flux), (2, flux), (None, density)):
        axis = 2 if j is None else j - 1
        pos, step = positions[axis], _AXES[axis][1]
        for scalar, spin_power, eps, factors, matrix_name, grad in terms:
            c = scalar * s ** spin_power
            if eps:
                if j is None:
                    raise ValueError("eps factor outside a flux term")
                c = c * _EPS[(i, j)]
            if c.is_zero:
                continue
            key = [0] * width
            for factor in factors:
                key[x_i if factor == "x_i" else reg.index(factor)] += 1
            key = tuple(key)
            e = key[pos]
            if e:
                lowered, c_e = key[:pos] + (e - 1,) + key[pos + 1:], c * e
            dag_midx = e_i if grad == "dagger" else ZERO_IDX
            ket_midx = e_i if grad == "field" else ZERO_IDX
            dag_up = tuple(map(add, dag_midx, step))
            ket_up = tuple(map(add, ket_midx, step))
            for dc, row in zip(_COMPS, _matrix_value(matrix_name, j, s)):
                for kc, entry in zip(_COMPS, row):
                    if not entry:
                        continue
                    if e:
                        sums.setdefault((dc, dag_midx, kc, ket_midx), {}).setdefault(
                            lowered, []).append((c_e, entry))
                    sums.setdefault((dc, dag_up, kc, ket_midx), {}).setdefault(
                        key, []).append((c, entry))
                    sums.setdefault((dc, dag_midx, kc, ket_up), {}).setdefault(
                        key, []).append((c, entry))
    zero = reg.zero()
    return FieldPoly.zero(reg)._make({key: zero._make(terms) for key, terms in _collect(sums)})


def conservation_rows(indices, spins, variant: str = "corrected",
                      drop: Optional[Tuple[str, int]] = None) -> List[tuple]:
    """[(i, s, residual)] for each free index i in `indices` and spin s in `spins`.

    All rows share one context made once per process: one registry, the
    parsed current, and one EomRules per spin, whose on-shell image table
    serves every row at that spin.
    """
    for i in indices:
        if i not in (1, 2):
            raise ValueError("free index must be 1 or 2")
    spins = [check_spin(s) for s in spins]
    reg = make_registry()
    flux, density = _parsed_current(variant)
    if drop is not None:
        # copies, so that `drop` leaves the shared term tuples whole
        sections = {"flux": list(flux), "density": list(density)}
        section, idx = drop
        terms = sections.get(section)
        if terms is None:
            raise ValueError(f"drop section must be 'flux' or 'density', not {section!r}")
        if not (isinstance(idx, int) and -len(terms) <= idx < len(terms)):
            raise ValueError(f"drop index {idx!r} is outside {section}'s "
                             f"{-len(terms)}..{len(terms) - 1}")
        del terms[idx]
        flux, density = sections["flux"], sections["density"]
    rules = {s: _eom_rules(s) for s in spins}
    return [(i, s, reduce_on_shell(_divergence(reg, flux, density, i, s), rules[s]))
            for i in indices for s in spins]


def check_conservation(
    i: int,
    s: int,
    variant: str = "corrected",
    drop: Optional[Tuple[str, int]] = None,
) -> FieldPoly:
    """Residual of div(flux) + d/dt(density) after on-shell reduction.

    The divergence is written into one term map (three Leibniz pieces per
    matrix entry of a current term) and reduced on shell once.  A zero
    result is the conservation law; `drop` deletes one transcribed term
    (section, index) to confirm the check is sensitive.  The CLI runs all
    its rows through one shared context; this is that path for one row.
    """
    ((_, _, residual),) = conservation_rows((i,), (s,), variant, drop)
    return residual


# -- covariance ----------------------------------------------------------------


def build_wave_operator(reg: SymbolRegistry, s: int) -> DiffOp:
    """Two-component first-order wave operator for spin label s."""
    s = check_spin(s)
    E = ScalarDiffOp.deriv(reg, (0, 0, 1), reg.const(I))
    p_minus = ScalarDiffOp(
        reg, {(1, 0, 0): reg.const(NEG_I), (0, 1, 0): reg.const(Scalar.of(-s))}
    )
    p_plus = ScalarDiffOp(
        reg, {(1, 0, 0): reg.const(NEG_I), (0, 1, 0): reg.const(Scalar.of(s))}
    )
    two_m = ScalarDiffOp.coeff(reg.symbol("m") * Scalar.of(2))
    return DiffOp(reg, [[E, p_minus], [p_plus, two_m]])


def boost_transform(G: DiffOp, s: int, v: Tuple[PolyExpr, PolyExpr]) -> DiffOp:
    """Finite boost action on the wave operator: S^-1 exp(X) G exp(-X) S.

    X = -i (v1 K1 + v2 K2), from the spinless boosts of `galrealize`.  Each
    entry e of G becomes sum_n ad_X^n(e)/n!, which ends, since for a
    coordinate-free v each ad_X lowers 2*(dt order) + (d order) + (x degree).
    It is the frame shift x -> x - v t (shift sign -1) with a phase; S
    carries v1 + i*s*v2 (v+ sign +1).  Of the four sign choices this is the
    only one with a constant intertwining matrix, for either spin.
    """
    reg = G.registry
    vx, vy = v
    boosts = spinless_generators()
    X = boosts["K1"].entry(0, 0).scale(vx * NEG_I) + boosts["K2"].entry(0, 0).scale(vy * NEG_I)
    for part in v:  # v's registry is checked above
        check_coordinate_free(part, "boost velocity")

    def boosted(entry: ScalarDiffOp) -> ScalarDiffOp:
        term, n = entry, 0
        while not term.is_zero:
            n += 1
            term = X.bracket(term).scale(Fraction(1, n))
            entry = entry + term
        return entry

    core = DiffOp(reg, [[boosted(e) for e in row] for row in G.rows])
    half_vp = (vx + reg.const(I * Scalar.of(s)) * vy) * HALF
    one, zero = reg.const(ONE), reg.zero()
    S = DiffOp(reg, [[one, zero], [-half_vp, one]])
    S_inv = DiffOp(reg, [[one, zero], [half_vp, one]])
    return S_inv @ (core @ S)


def solve_constant_matrix(lhs: DiffOp, G: DiffOp) -> List[List[PolyExpr]]:
    """Solve lhs = Lambda o G for a constant 2x2 matrix over the parameters.

    Column 0 of Lambda o G is Lambda_r0 (i dt) + Lambda_r1 p_plus, so row r
    of Lambda is read from the dt and d1 coefficients of lhs in column 0.
    The claim is then one exact identity: Lambda is free of the coordinates
    and lhs equals Lambda o G.  A failure raises CovarianceFailure naming the
    first nonzero entry of lhs - Lambda o G.
    """
    lam = [[col0.coefficient((0, 0, 1)) * NEG_I, col0.coefficient((1, 0, 0)) * I]
           for col0, _ in lhs.rows]
    if any(e.uses_symbols(COORDS) for row in lam for e in row):
        raise CovarianceFailure("solution is not coordinate-free")
    residual = lhs - DiffOp(lhs.registry, lam) @ G
    for r, row in enumerate(residual.rows):
        for c, entry in enumerate(row):
            if not entry.is_zero:
                raise CovarianceFailure(f"residual entry ({r}, {c}) is nonzero: {entry}")
    return lam


class Covariance:
    """The spin, the intertwining matrix and, for the boost, its sign convention."""

    def __init__(self, s: int, lam: List[List[PolyExpr]], convention: Optional[dict] = None):
        self.s = s
        self.lam = lam
        self.convention = convention

    def lam_at_zero(self) -> List[List[Scalar]]:
        # Lambda at v = 0 is its constant term: every other term carries a symbol
        return [[e.constant_term() for e in row] for row in self.lam]

    def to_dict(self):
        out = {
            "spin": self.s,
            "matrix": [[str(e) for e in row] for row in self.lam],
        }
        if self.convention is not None:
            out["convention"] = self.convention
        return out


def check_boost_covariance(s: int) -> Covariance:
    """Find a constant matrix intertwining the boosted and original operators."""
    reg = make_registry()
    G = build_wave_operator(reg, s)
    v = (reg.symbol("v1"), reg.symbol("v2"))
    try:
        lam = solve_constant_matrix(boost_transform(G, s, v), G)
    except CovarianceFailure as exc:
        raise CovarianceFailure(
            f"no constant intertwining matrix (convention shift -1, vplus +1): {exc}"
        ) from None
    return Covariance(s, lam, {"shift_sign": -1, "vplus_sign": 1})


def rotation_generator(registry: SymbolRegistry, s: int) -> DiffOp:
    """Two-component rotation generator: the spinless J of `galrealize` plus (s/2) sigma_3."""
    orbital = spinless_generators()["J"].entry(0, 0)
    half_s = ScalarDiffOp.coeff(registry.const(Scalar(Fraction(s, 2))))
    z = ScalarDiffOp.zero(registry)
    return DiffOp(registry, [[orbital + half_s, z], [z, orbital - half_s]])


def check_rotation_covariance(s: int) -> Covariance:
    """Infinitesimal rotation covariance: [G, J] must equal Lambda_J * G."""
    reg = make_registry()
    G = build_wave_operator(reg, s)
    J = rotation_generator(reg, s)
    lam = solve_constant_matrix(G.commutator(J), G)
    return Covariance(s, lam)


# -- multispinor redundancy -----------------------------------------------------


MOMENTUM_SYMBOLS = ("E", "m", "p_minus", "p_plus")


def momentum_registry() -> SymbolRegistry:
    return SymbolRegistry(MOMENTUM_SYMBOLS, invertible={"m"})


def _poly_scalar_ratio(p: PolyExpr, q: PolyExpr) -> Optional[Scalar]:
    """If p == sigma * q for a scalar sigma (q nonzero), return sigma."""
    if q.is_zero:
        return None
    q_items = q.items()
    key0, c0 = q_items[0]
    p0 = p.coefficient(key0)
    sigma = p0 / c0
    if (p - q * sigma).is_zero:
        return sigma
    return None


def _symmetric_slot_sum(reg: SymbolRegistry, A, F, N: int) -> List[List[PolyExpr]]:
    """Matrix of sum_s A_(s) (x) F^(x)(N-1) on the symmetric basis v_0..v_N.

    A and F are 2x2 nested lists of PolyExpr; A_(s) acts on slot s and F on
    every other slot.  v_k is the unnormalised sum of the product states with
    k lowered slots, so sum_k y^k v_k = (e_0 + y e_1)^(x)N, and F maps e_0 + y e_1
    to f_0(y) e_0 + f_1(y) e_1 with f_r(y) = F[r][0] + F[r][1] y (a_r likewise).
    Entry (j, k) is therefore the y^k coefficient of
    j a_1 f_1^(j-1) f_0^(N-j) + (N-j) a_0 f_1^j f_0^(N-j-1), exact for any A, F.
    """
    zero = reg.zero()

    def times(p, q):  # product of coefficient lists in y
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if not a.is_zero:
                for j, b in enumerate(q):
                    out[i + j] = out[i + j] + a * b
        return out

    # f0[e], f1[e] = f_0(y)^e, f_1(y)^e for e = 0..N-1
    f0, f1 = [[reg.const(ONE)]], [[reg.const(ONE)]]
    for _ in range(N - 1):
        f0.append(times(f0[-1], F[0]))
        f1.append(times(f1[-1], F[1]))
    rows = []
    for j in range(N + 1):
        acc = [zero] * (N + 1)
        if j > 0:
            for k, e in enumerate(times(times(A[1], f1[j - 1]), f0[N - j])):
                acc[k] = acc[k] + e * j
        if j < N:
            for k, e in enumerate(times(times(A[0], f1[j]), f0[N - j - 1])):
                acc[k] = acc[k] + e * (N - j)
        rows.append(acc)
    return rows


class MultispinorReduction:
    def __init__(self, rank: int, s: int, matrix: Tuple[Tuple[PolyExpr, ...], ...],
                 row_scale: Scalar, nullity: int):
        self.rank = rank
        self.s = s
        self.matrix = matrix
        self.row_scale = row_scale
        self.nullity = nullity

    def to_dict(self):
        return {
            "rank": self.rank,
            "spin": self.s,
            "matrix": [[str(e) for e in row] for row in self.matrix],
            "row_scale": str(self.row_scale),
            "nullity": self.nullity,
        }


def multispinor_equations(N: int, s: int = 1) -> MultispinorReduction:
    """Restrict the averaged rank-N wave operator to the symmetric subspace.

    Confirms the reduced system consists of exactly the two first-order
    equations (top row exactly; second row up to one nonzero rational scale,
    read from its first entry) with every remaining row zero, so N-1
    symmetric components are unconstrained.  The reduced matrix is compared
    entry by entry with that expected one; a failure raises
    RedundancyClaimFailure naming the first differing row and column.
    """
    N = check_rank(N)
    s = check_spin(s)
    reg = momentum_registry()
    E, m = reg.symbol("E"), reg.symbol("m")
    p_minus, p_plus = reg.symbol("p_minus"), reg.symbol("p_plus")
    G = [[E, p_minus], [p_plus, m * Scalar.of(2)]]
    zero = reg.zero()
    gamma = [[reg.const(ONE), zero], [zero, zero]]
    # the slot sum commutes with every slot permutation: it keeps the symmetric span
    inv_N = Scalar(Fraction(1, N))
    reduced = tuple(tuple(e * inv_N for e in row)
                    for row in _symmetric_slot_sum(reg, G, gamma, N))

    n = N + 1
    scale = _poly_scalar_ratio(reduced[1][0], p_plus)
    if scale is None or scale.is_zero:
        raise RedundancyClaimFailure(
            f"row 1, column 0: {reduced[1][0]} is not a nonzero multiple of p_plus")
    pad = [zero] * (n - 2)
    expected = [G[0] + pad, [e * scale for e in G[1]] + pad] + [[zero] * n] * (n - 2)
    for r, (got_row, want_row) in enumerate(zip(reduced, expected)):
        for c, (got, want) in enumerate(zip(got_row, want_row)):
            if got != want:
                raise RedundancyClaimFailure(f"row {r}, column {c}: {got}, expected {want}")
    return MultispinorReduction(N, s, reduced, scale, nullity=n - 2)
