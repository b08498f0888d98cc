"""Differential-operator algebra in the plane with an explicit time symbol.

Operators live in coordinates (x1, x2, t) with derivative directions
(d1, d2, dt).  The canonical normal form keeps every derivative to the right
of every coefficient; two operators are equal exactly when their normal
forms coincide.  Composition uses the generalized Leibniz rule with exact
integer binomials.  The bracket [A, B] is one Leibniz pass over the
derivative cross terms only: the zero-order products f g d^(alpha+beta) of
A o B and B o A are equal, because coefficients commute, and are never formed.

Degree guards: coefficient polynomials may not exceed total coordinate
degree 8 and derivative monomials may not exceed order 6.  Everything needed
here stays far below both bounds, so hitting one indicates a runaway
computation rather than a legitimate workload.  Coordinates are never
invertible, so a derivative lowers both the order and the coordinate degree
of a term.  The top parts of A o B are then products of the nonzero top
parts of A and B, over an integral domain, so A o B is over a guard exactly
when ord A + ord B or deg A + deg B is; the bracket raises in exactly those
cases too.  Every term of a bracket is a term of A o B or of B o A, so a
bracket that passes this check on its operands is within both guards, and
it is built without running the guards again.

Work done once per operand: an operator keeps, filled on first use, the
derivatives of its coefficients that compositions with it on the right
have needed (once per operand, nonzero derivatives only), and the order
and degree its bracket check reads.  Neither changes its value.

Trusted results: besides the bracket, `ScalarDiffOp.scale` by a nonzero
factor free of the coordinates (a product of nonzero polynomials is
nonzero, and the coordinate degree cannot grow), and the product,
commutator and `scale` of `DiffOp` (square, one registry, entries already
checked) build their results without the constructors' checks.  Any other
factor goes through the constructor, with its guards and errors.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence, Tuple

from .errors import BadParameter, DegreeOverflow, MalformedPhase, ShapeError
from .exactscalar import (
    ONE,
    I,
    PolyExpr,
    Scalar,
    SquareMatrix,
    SymbolRegistry,
    TermMap,
    accumulate,
)

COORDS = ("x1", "x2", "t")
MAX_COEFF_DEGREE = 8
MAX_DERIV_ORDER = 6

MultiIndex = Tuple[int, int, int]
ZERO_IDX: MultiIndex = (0, 0, 0)


def _nonzero_derivatives(g: PolyExpr, reach: MultiIndex, known: dict) -> list:
    """[(gamma, d^gamma g), ...] for every gamma <= reach with d^gamma g nonzero.

    gamma runs in lexicographic order.  d^gamma g is read from `known`, which
    holds nonzero derivatives only, or else taken from the order one lower
    (along t, else x2, else x1); a derivative of zero is zero, so each axis
    stops at its first zero.
    """
    out = []
    d1 = g
    for g1 in range(reach[0] + 1):
        if g1:
            d1 = known.get((g1, 0, 0)) or d1.diff("x1")
            if d1.is_zero:
                break
        d2 = d1
        for g2 in range(reach[1] + 1):
            if g2:
                d2 = known.get((g1, g2, 0)) or d2.diff("x2")
                if d2.is_zero:
                    break
            dt = d2
            for gt in range(reach[2] + 1):
                if gt:
                    dt = known.get((g1, g2, gt)) or dt.diff("t")
                    if dt.is_zero:
                        break
                out.append(((g1, g2, gt), dt))
    return out


class ScalarDiffOp(TermMap):
    """One scalar operator: sum of coefficient * d1^a1 d2^a2 dt^at terms.

    Two slots are filled on first use and never change the operator's value,
    so equality, hashing, printing and pickling ignore them: `_derivs`, the
    nonzero derivatives of each coefficient (see `_derivatives`), and
    `_ext`, the (order, degree) pair of the bracket's guard check.
    """

    __slots__ = ("_derivs", "_ext")

    def __init__(self, registry: SymbolRegistry, terms: Mapping[MultiIndex, PolyExpr]):
        for c in COORDS:
            if c not in registry:
                raise ValueError(f"registry lacks coordinate symbol {c!r}")
            if registry.is_invertible(c):
                raise ValueError(f"coordinate symbol {c!r} must not be invertible")
        self.registry = registry
        clean: Dict[MultiIndex, PolyExpr] = {}
        for midx, coeff in terms.items():
            midx = tuple(midx)
            if len(midx) != 3 or any(a < 0 for a in midx):
                raise ValueError(f"bad derivative multi-index {midx}")
            if coeff.is_zero:
                continue
            if sum(midx) > MAX_DERIV_ORDER:
                raise DegreeOverflow(f"derivative order {sum(midx)} exceeds guard")
            if coeff.max_degree(COORDS) > MAX_COEFF_DEGREE:
                raise DegreeOverflow("coefficient coordinate degree exceeds guard")
            clean[midx] = coeff
        self._terms = clean

    def __getstate__(self):
        # the memo slots are left out: a copy takes its derivatives anew
        return None, {"registry": self.registry, "_terms": self._terms}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def coeff(poly: PolyExpr) -> "ScalarDiffOp":
        return ScalarDiffOp(poly.registry, {ZERO_IDX: poly})

    @staticmethod
    def deriv(registry: SymbolRegistry, midx: MultiIndex, coeff=None) -> "ScalarDiffOp":
        c = coeff if coeff is not None else registry.const(ONE)
        return ScalarDiffOp(registry, {tuple(midx): c})

    @staticmethod
    def zero(registry: SymbolRegistry) -> "ScalarDiffOp":
        return ScalarDiffOp(registry, {})

    # -- inspection ------------------------------------------------------------

    def coefficient(self, midx: MultiIndex) -> PolyExpr:
        return self._terms.get(tuple(midx), self.registry.zero())

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        if self.registry != other.registry:
            raise ShapeError("operators over different registries")
        return other

    def scale(self, factor) -> "ScalarDiffOp":
        """Left-multiply by a polynomial or scalar (commutes as a coefficient).

        A nonzero factor free of the coordinates, over this registry, keeps
        every coefficient nonzero (Gaussian rationals form a field, and the
        polynomials an integral domain) and its coordinate degree unchanged,
        so that result is built without the constructor's checks; a scalar
        multiplies each coefficient's terms directly.  Any other factor goes
        through the constructor's checks.
        """
        if not isinstance(factor, PolyExpr):
            s = Scalar.of(factor)
            if s.is_zero:
                return self._make({})
            return self._make({m: c._make({k: s * v for k, v in c._terms.items()})
                               for m, c in self._terms.items()})
        terms = {m: factor * c for m, c in self._terms.items()}
        if (factor.is_zero or factor.registry != self.registry
                or factor.uses_symbols(COORDS)):
            return ScalarDiffOp(self.registry, terms)
        return self._make(terms)

    def _derivatives(self, reach: MultiIndex) -> Dict[MultiIndex, list]:
        """{beta: [(gamma, d^gamma g), ...]} for each coefficient g d^beta of this operator.

        Lists every nonzero derivative with gamma <= reach on each axis, in
        lexicographic order of gamma, so gamma (0, 0, 0) comes first.  The
        table is built on first use and kept on the operand; a later call
        that reaches further on some axis extends it and reuses every
        derivative already taken.
        """
        derivs = getattr(self, "_derivs", None)
        table = {}
        if derivs is not None:
            have, table = derivs
            if reach[0] <= have[0] and reach[1] <= have[1] and reach[2] <= have[2]:
                return table
            reach = tuple(map(max, reach, have))
        table = {beta: _nonzero_derivatives(g, reach, dict(table.get(beta, ())))
                 for beta, g in self._terms.items()}
        self._derivs = (reach, table)
        return table

    def _leibniz(self, other: "ScalarDiffOp", terms: dict, sign: int, start: int) -> None:
        """Accumulate sign * C(alpha, gamma) f * (d^gamma g) d^(alpha - gamma + beta).

        One term for every f d^alpha of self, g d^beta of other and gamma <=
        alpha with |gamma| >= start and d^gamma g nonzero: start 0 gives the
        whole product self o other, start 1 only its derivative cross terms.
        The derivatives come from other's table, in lexicographic order of
        gamma, which fixes the order in which the terms are met.
        """
        if not self._terms:
            return
        derivatives = other._derivatives(tuple(map(max, zip(*self._terms))))
        for alpha, f in self._terms.items():
            a1, a2, at = alpha
            for beta, by_order in derivatives.items():
                for (g1, g2, gt), dg in by_order:
                    if g1 > a1 or g2 > a2 or gt > at or g1 + g2 + gt < start:
                        continue
                    term = f * dg
                    w = sign * math.comb(a1, g1) * math.comb(a2, g2) * math.comb(at, gt)
                    if w != 1:  # a nonzero integer keeps every coefficient nonzero
                        term = term._make({k: c * w for k, c in term._terms.items()})
                    accumulate(terms, (a1 - g1 + beta[0], a2 - g2 + beta[1],
                                       at - gt + beta[2]), term)

    def compose(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        """Normal-form product: derivatives act through coefficients (Leibniz)."""
        self._coerce(other)
        terms: Dict[MultiIndex, PolyExpr] = {}
        self._leibniz(other, terms, 1, 0)
        # the constructor applies the degree guards to the result
        return ScalarDiffOp(self.registry, terms)

    def _extent(self) -> Tuple[int, int]:
        """(derivative order, coefficient coordinate degree) of a nonzero operator.

        Computed once per operand and kept in its `_ext` slot.
        """
        ext = getattr(self, "_ext", None)
        if ext is None:
            ext = self._ext = (
                max(map(sum, self._terms)),
                max(c.max_degree(COORDS) for c in self._terms.values()),
            )
        return ext

    def bracket(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        """The commutator self o other - other o self, from its cross terms only.

        The zero-order products f g d^(alpha+beta) of the two compositions
        are equal, since coefficients commute, so they are never formed.
        A o B and B o A each raise DegreeOverflow exactly when the order sum
        or the coordinate-degree sum of the operands is over its guard (see
        the module docstring), and so does the bracket.
        """
        self._coerce(other)
        if self._terms and other._terms:
            (order_a, degree_a), (order_b, degree_b) = self._extent(), other._extent()
            if order_a + order_b > MAX_DERIV_ORDER:
                raise DegreeOverflow(
                    f"derivative order {order_a + order_b} exceeds guard"
                )
            if degree_a + degree_b > MAX_COEFF_DEGREE:
                raise DegreeOverflow("coefficient coordinate degree exceeds guard")
        terms: Dict[MultiIndex, PolyExpr] = {}
        self._leibniz(other, terms, 1, 1)
        other._leibniz(self, terms, -1, 1)
        # accumulate dropped every zero, and the check above bounds every term
        return self._make(terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for midx, coeff in self.items():
            ds = []
            for name, power in zip(("d1", "d2", "dt"), midx):
                if power == 1:
                    ds.append(name)
                elif power > 1:
                    ds.append(f"{name}^{power}")
            ctext = str(coeff)
            if ds and ctext == "1":
                body = "*".join(ds)
            elif ds and ctext == "-1":
                body = "-" + "*".join(ds)
            else:
                if " " in ctext:
                    ctext = f"({ctext})"
                body = "*".join([ctext] + ds)
            chunks.append(body)
        return " + ".join(chunks).replace("+ -", "- ")


class DiffOp(SquareMatrix):
    """Square matrix of scalar operators; the home of every generator.

    PolyExpr entries are lifted to multiplication operators.  The matrix
    product composes entries, and the commutator takes its diagonal
    summands from the entry bracket.  The product, the commutator and
    `scale` combine the entries of checked operands of one registry and
    dimension into operators of that registry, so they build their results
    with `_make`, without checking each entry again.
    """

    __slots__ = ()

    def _entry(self, e) -> ScalarDiffOp:
        if isinstance(e, PolyExpr):
            e = ScalarDiffOp.coeff(e)
        return super()._entry(e)

    def _make(self, rows) -> "DiffOp":
        """A result over this registry, taking square rows of its operators as they are."""
        out = object.__new__(type(self))
        out.registry = self.registry
        out.rows = tuple(map(tuple, rows))
        return out

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        n = self.dim
        out = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = self.rows[r][0].compose(other.rows[0][c])
                for k in range(1, n):
                    acc = acc + self.rows[r][k].compose(other.rows[k][c])
                row.append(acc)
            out.append(row)
        return self._make(out)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """self @ other - other @ self, entry by entry.

        Entry (r, c) sums A_rk B_kc - B_rk A_kc over k; the summand with
        r = k = c is the entry bracket [A_rr, B_rr].
        """
        self._check(other)
        A, B, n = self.rows, other.rows, self.dim
        out = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = A[r][r].bracket(B[r][r]) if r == c else None
                for k in range(n):
                    if k == r == c:
                        continue
                    term = A[r][k].compose(B[k][c]) - B[r][k].compose(A[k][c])
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        return self._make(out)

    @staticmethod
    def scalar(op: ScalarDiffOp) -> "DiffOp":
        return DiffOp(op.registry, [[op]])

    def scale(self, factor) -> "DiffOp":
        return self._make([[e.scale(factor) for e in row] for row in self.rows])


def compose(A: DiffOp, B: DiffOp) -> DiffOp:
    return A @ B


def bracket(A: DiffOp, B: DiffOp) -> DiffOp:
    return A.commutator(B)


def _as_phase_poly(theta) -> PolyExpr:
    if isinstance(theta, PolyExpr):
        return theta
    if isinstance(theta, ScalarDiffOp):
        for midx in theta._terms:
            if midx != ZERO_IDX:
                raise MalformedPhase("phase contains derivative terms")
        return theta.coefficient(ZERO_IDX)
    raise MalformedPhase(f"cannot interpret {theta!r} as a phase")


def _map_terms(A: DiffOp, d_ops: Sequence[ScalarDiffOp], coeff_map) -> DiffOp:
    """Rebuild A with each coefficient mapped and each dK replaced by d_ops[K].

    The substituted derivative power of a multi-index is composed once per
    call, and each entry's pieces are summed in one map.
    """
    reg = A.registry
    unit = ScalarDiffOp.coeff(reg.const(ONE))
    powers: Dict[MultiIndex, ScalarDiffOp] = {}
    out_rows = []
    for row in A.rows:
        out_row = []
        for entry in row:
            terms: Dict[MultiIndex, PolyExpr] = {}
            for midx, coeff in entry._terms.items():
                power = powers.get(midx)
                if power is None:
                    power = unit
                    for axis in range(3):
                        for _ in range(midx[axis]):
                            power = power.compose(d_ops[axis])
                    powers[midx] = power
                piece = ScalarDiffOp.coeff(coeff_map(coeff)).compose(power)
                for key, c in piece._terms.items():
                    accumulate(terms, key, c)
            # a sum of checked operators is within the guards
            out_row.append(unit._make(terms))
        out_rows.append(out_row)
    return DiffOp(reg, out_rows)


def conjugate_phase(A: DiffOp, theta) -> DiffOp:
    """Conjugation by a polynomial phase: dJ -> dJ + i*(dJ theta).

    Exact because the phase is polynomial, so the adjoint series terminates.
    Multiplication operators are untouched.
    """
    poly = _as_phase_poly(theta)
    if poly.registry != A.registry:
        raise ShapeError("phase registry mismatch")
    reg = A.registry
    grads = [poly.diff(c) for c in COORDS]
    d_ops = [
        ScalarDiffOp(
            reg,
            {
                tuple(1 if k == axis else 0 for k in range(3)): reg.const(ONE),
                ZERO_IDX: I * grads[axis],
            },
        )
        for axis in range(3)
    ]
    return _map_terms(A, d_ops, lambda c: c)


def conjugate_shift(A: DiffOp, v) -> DiffOp:
    """Conjugation by the moving-frame substitution x -> x + v t.

    Closed-form rules: x_i -> x_i + v_i t (in coefficients), d_i -> d_i,
    dt -> dt + v1 d1 + v2 d2.  The velocity components must be free of the
    coordinates for these rules to be consistent.
    """
    vx, vy = v
    reg = A.registry
    for comp in (vx, vy):
        if not isinstance(comp, PolyExpr) or comp.registry != reg:
            raise ShapeError("shift velocity must be PolyExpr over the same registry")
        if comp.uses_symbols(COORDS):
            raise BadParameter("shift velocity must be coordinate-free")
    t = reg.symbol("t")
    subs_map = {
        "x1": reg.symbol("x1") + vx * t,
        "x2": reg.symbol("x2") + vy * t,
    }
    d1 = ScalarDiffOp.deriv(reg, (1, 0, 0))
    d2 = ScalarDiffOp.deriv(reg, (0, 1, 0))
    dt = ScalarDiffOp(
        reg,
        {(0, 0, 1): reg.const(ONE), (1, 0, 0): vx, (0, 1, 0): vy},
    )
    return _map_terms(A, [d1, d2, dt], lambda c: c.subs(subs_map))
