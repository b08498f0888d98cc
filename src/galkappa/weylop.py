"""Differential-operator algebra in the plane with an explicit time symbol.

Operators live in coordinates (x1, x2, t) with derivative directions
(d1, d2, dt).  The canonical normal form keeps every derivative to the right
of every coefficient; two operators are equal exactly when their normal
forms coincide.  Composition and the bracket share one kernel, the
generalized Leibniz rule on monomials: d^gamma of x^q is the falling
factorial q!/(q - gamma)! times x^(q - gamma), weighted by exact integer
binomials, and each output coefficient is summed as integer triples and
reduced once.  The bracket [A, B] takes only the derivative cross terms:
the zero-order products f g d^(alpha+beta) of A o B and B o A are equal,
because coefficients commute, and are never formed.

Degree guards: coefficient polynomials may not exceed total coordinate
degree 8 and derivative monomials may not exceed order 6.  Everything needed
here stays far below both bounds, so hitting one indicates a runaway
computation rather than a legitimate workload.  Coordinates are never
invertible, so a derivative lowers both the order and the coordinate degree
of a term.  The top parts of A o B are then products of the nonzero top
parts of A and B, over an integral domain, so A o B is over a guard exactly
when ord A + ord B or deg A + deg B is; the bracket raises in exactly those
cases too.  Every term of a bracket is a term of A o B or of B o A, so a
product or bracket that passes this check on its operands is within both
guards, and it is built without running the guards again.

Work done once per operand: an operator keeps, filled on first use, the
monomials of its coefficients that the kernel reads (derivative
multi-index, coordinate exponents, exponent key and integer triple of
each), the order and degree its guard check reads, the axes on which its
terms differentiate and on which its coefficients reach, and the weighted
derivatives of its coefficients that the kernel has formed with it as the
right operand, keyed by term, left multi-index and sign (which fix every
gamma and binomial weight).  None changes its value, and equality, hashing
and pickling ignore them all.  A generator that is the right operand of
several brackets forms each derivative list once, and a bracket in which
no derivative of one operand meets a coordinate of the other is zero
without entering the kernel.

`DiffOp` is the one square-matrix class.  Mixing two registries raises
RegistryMismatch, through `TermMap._coerce`; mismatched dimensions raise
ShapeError; an operand of a foreign type raises TypeError.  The finite
boost is the series exp(ad X) of brackets (`fieldcheck.boost_transform`).

Operands of one registry and dimension, the case of nearly every call,
are recognized before any other check, and the sum, `scale`, commutator
and text of 1 x 1 operators, the size of every realized generator, are
formed on their one entry.  `DiffOp.zero_text` gives the zero operator's
text from its dimension alone.

Trusted results: `compose` and the bracket (checked on their operands'
extents, above), `ScalarDiffOp.scale` by a nonzero factor free of the
coordinates (a product of nonzero polynomials is nonzero, and the
coordinate degree cannot grow), and the sum, difference, negation,
product, commutator and `scale` of `DiffOp` (square, one registry, entries
already checked) build their results without the constructors' checks.
Any other factor goes through the constructor, with its guards and errors.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Dict, Mapping, Sequence, Tuple

from .errors import DegreeOverflow, ShapeError
from .exactscalar import (
    ONE,
    PolyExpr,
    Scalar,
    SymbolRegistry,
    TermMap,
    _reduced,
)

COORDS = ("x1", "x2", "t")
MAX_COEFF_DEGREE = 8
MAX_DERIV_ORDER = 6

MultiIndex = Tuple[int, int, int]
ZERO_IDX: MultiIndex = (0, 0, 0)


def _add_triples(terms: dict, items) -> None:
    """Add each (key, (a, b, d)), the value (a + b*i)/d, into terms in order.

    The values of terms are unreduced triples too; a sum that is zero
    removes its key, so a key met again is added at the end.
    """
    for key, (a, b, d) in items:
        old = terms.get(key)
        if old is not None:
            oa, ob, od = old
            if od == d:
                a += oa
                b += ob
            else:
                a, b, d = oa * d + a * od, ob * d + b * od, od * d
            if not (a or b):
                del terms[key]
                continue
        terms[key] = (a, b, d)


def _cross_derivatives(pairs: list, alpha: MultiIndex, reach: MultiIndex, sign: int,
                       positions: Tuple[int, int, int]) -> list:
    """[(g1, g2, gt, w * d^gamma g), ...] for each gamma != 0 with gamma <= alpha and d^gamma g != 0.

    g is the coefficient with terms `pairs` and largest exponents `reach`,
    w = sign * C(alpha, gamma), and each derivative is listed as (key,
    unreduced triple) pairs.  d^gamma of a monomial x^q is the falling
    factorial q!/(q - gamma)! times x^(q - gamma), and zero unless
    gamma <= q, so gamma stops at the reach of g on each axis; lowering the
    exponents keeps distinct keys distinct, so no two terms meet.  The
    gammas are listed in lexicographic order.
    """
    i1, i2, it = positions
    (a1, a2, at), (r1, r2, rt) = alpha, reach
    steps = []
    for g1, g2, gt in itertools.product(range(min(a1, r1) + 1), range(min(a2, r2) + 1),
                                        range(min(at, rt) + 1)):
        if not (g1 or g2 or gt):
            continue
        w = sign * math.comb(a1, g1) * math.comb(a2, g2) * math.comb(at, gt)
        dg = []
        for key, (c, e, f) in pairs:
            q1, q2, qt = key[i1], key[i2], key[it]
            if q1 >= g1 and q2 >= g2 and qt >= gt:
                k = list(key)
                k[i1], k[i2], k[it] = q1 - g1, q2 - g2, qt - gt
                v = w * math.perm(q1, g1) * math.perm(q2, g2) * math.perm(qt, gt)
                dg.append((tuple(k), (c * v, e * v, f)))
        if dg:
            steps.append((g1, g2, gt, dg))
    return steps


def _leibniz(left: list, right: list, derivs: dict, positions: Tuple[int, int, int],
             out: dict, sign: int, start: int) -> None:
    """Add sign * C(alpha, gamma) f * (d^gamma g) d^(alpha - gamma + beta) into out.

    left and right are the `_monomials` of two operators A and B, derivs
    B's derivative memo and positions the places of x1, x2, t in their
    registry's keys.  One term for every f d^alpha of A, g d^beta of B and
    gamma <= alpha with |gamma| >= start and d^gamma g nonzero: start 0,
    with sign 1, gives the whole product A o B, start 1 only its derivative
    cross terms.  d^gamma g is zero past the reach of g on an axis, so a
    pair of terms with no axis where both alpha and the reach of g are
    positive has no cross term and is skipped before any arithmetic.  The
    weighted derivatives of the j-th term g of B that a term d^alpha of A
    reads depend only on (j, alpha, sign); `_cross_derivatives` forms them
    once per such key, and derivs keeps them.

    out maps each multi-index to {key: (a, b, d)}, unreduced integer
    triples that `_finish` reduces once.  Terms are met in the order
    alpha, beta, gamma (lexicographic), keys of f, keys of g, and each
    product f * d^gamma g is added as a whole, pruning zeros, so out
    holds its keys in the order of the sum `old + f * d^gamma g`.
    """
    for alpha, alpha_axes, _, _, fm in left:
        a1, a2, at = alpha
        single = len(fm) == 1
        for j, ((b1, b2, bt), _, reach, reach_axes, gm) in enumerate(right):
            if alpha_axes & reach_axes:
                memo_key = (j, alpha, sign)
                steps = derivs.get(memo_key)
                if steps is None:
                    steps = derivs[memo_key] = _cross_derivatives(gm, alpha, reach, sign,
                                                                  positions)
                if not start:
                    steps = [(0, 0, 0, gm), *steps]
            elif start:
                continue
            else:
                steps = ((0, 0, 0, gm),)  # gamma 0 is met only in the whole product, at sign 1
            for g1, g2, gt, dg in steps:
                midx = (a1 - g1 + b1, a2 - g2 + b2, at - gt + bt)
                terms = out.get(midx)
                if terms is None:
                    terms = out[midx] = {}
                product = [(tuple(map(operator.add, k1, k2)),
                            (a * c - b * e, a * e + b * c, d * f))
                           for k1, (a, b, d) in fm for k2, (c, e, f) in dg]
                if not (single or len(dg) == 1):
                    # two keys of the product may meet: sum it first, so it
                    # is added whole; by a one-term factor its keys are distinct
                    whole = {}
                    _add_triples(whole, product)
                    product = whole.items()
                _add_triples(terms, product)
                if not terms:
                    del out[midx]


def _has_two_terms(text: str) -> bool:
    """Whether a coefficient polynomial's text has more than one term; an operator parenthesizes it."""
    return " " in text


class ScalarDiffOp(TermMap):
    """One scalar operator: sum of coefficient * d1^a1 d2^a2 dt^at terms.

    Four slots are filled on first use and never change the operator's
    value, so equality, hashing, printing and pickling ignore them: `_mono`,
    the monomials of every coefficient that the Leibniz kernel reads (see
    `_monomials`), `_ext`, the (order, degree) pair of the guard check of
    `compose` and `bracket`, `_axes`, the union of the axis masks of its
    terms' derivatives and of their reach, which `bracket` reads, and
    `_deriv`, the weighted derivatives of its terms that the kernel has
    formed with this operator on the right (see `_leibniz`).
    """

    __slots__ = ("_mono", "_ext", "_axes", "_deriv")

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
        # the memo slots are left out: a copy lists its monomials and derivatives anew
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

    def scale(self, factor) -> "ScalarDiffOp":
        """Left-multiply by a polynomial or scalar (commutes as a coefficient).

        A nonzero factor free of the coordinates keeps every coefficient
        nonzero (Gaussian rationals form a field, and the polynomials an
        integral domain) and its coordinate degree unchanged, so that result
        is built without the constructor's checks; a scalar multiplies each
        coefficient's terms directly.  Any other factor goes through the
        constructor's checks.  A factor over another registry raises
        RegistryMismatch in its first product with a coefficient.
        """
        if not isinstance(factor, PolyExpr):
            s = factor if type(factor) is Scalar else Scalar.of(factor)
            if not s:
                return self._make({})
            return self._make({m: c._make({k: s * v for k, v in c._terms.items()})
                               for m, c in self._terms.items()})
        terms = {m: factor * c for m, c in self._terms.items()}
        if factor.is_zero or factor.uses_symbols(COORDS):
            return ScalarDiffOp(self.registry, terms)
        return self._make(terms)

    def _monomials(self) -> list:
        """[(alpha, alpha_axes, reach, reach_axes, pairs), ...], one per term f d^alpha.

        `pairs` lists the terms of f as (key, abd), the exponent tuple and
        the integer triple of the coefficient; `reach` is the largest
        exponent of each of x1, x2, t in f.  The axis masks have bit 1, 2 or
        4 set where alpha or reach is positive on x1, x2 or t.  Built on
        first use and kept in the `_mono` slot, together with the operand's
        (derivative order, coefficient coordinate degree) in `_ext`, the
        unions of the two axis masks in `_axes` and an empty derivative memo
        in `_deriv`, which the kernel fills.
        """
        try:
            return self._mono
        except AttributeError:
            i1, i2, it = self.registry.positions(COORDS)
            mono = []
            order = degree = axes = reach_axes = 0
            for alpha, coeff in self._terms.items():
                r1 = r2 = rt = 0
                pairs = []
                for key, c in coeff._terms.items():
                    q1, q2, qt = key[i1], key[i2], key[it]
                    if q1 > r1:
                        r1 = q1
                    if q2 > r2:
                        r2 = q2
                    if qt > rt:
                        rt = qt
                    if q1 + q2 + qt > degree:
                        degree = q1 + q2 + qt
                    pairs.append((key, c._abd))
                a1, a2, at = alpha
                if a1 + a2 + at > order:
                    order = a1 + a2 + at
                alpha_axes = (a1 > 0) | (a2 > 0) << 1 | (at > 0) << 2
                term_reach = (r1 > 0) | (r2 > 0) << 1 | (rt > 0) << 2
                axes |= alpha_axes
                reach_axes |= term_reach
                mono.append((alpha, alpha_axes, (r1, r2, rt), term_reach, pairs))
            self._mono = mono
            self._ext = (order, degree)
            self._axes = (axes, reach_axes)
            self._deriv = {}
        return mono

    def _guarded(self, other: "ScalarDiffOp") -> Tuple[list, list]:
        """The monomials of two nonzero operands, checked against the guards.

        Raises DegreeOverflow exactly when self o other is over a guard: by
        the module docstring's top-part argument, when the order sum or the
        coordinate-degree sum of the operands is over its guard.
        """
        left, right = self._monomials(), other._monomials()
        (order_a, degree_a), (order_b, degree_b) = self._ext, other._ext
        if order_a + order_b > MAX_DERIV_ORDER:
            raise DegreeOverflow(f"derivative order {order_a + order_b} exceeds guard")
        if degree_a + degree_b > MAX_COEFF_DEGREE:
            raise DegreeOverflow("coefficient coordinate degree exceeds guard")
        return left, right

    def _finish(self, out: dict) -> "ScalarDiffOp":
        """The operator of a `_leibniz` map, each coefficient reduced once.

        `_leibniz` keeps no zero, and `_guarded` has bounded every term.
        """
        poly = next(iter(self._terms.values()))  # makes polynomials over this registry
        return self._make({
            midx: poly._make({key: _reduced(a, b, d) for key, (a, b, d) in terms.items()})
            for midx, terms in out.items()
        })

    def compose(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        """Normal-form product: derivatives act through coefficients (Leibniz)."""
        self._coerce(other)
        if not (self._terms and other._terms):
            return self._make({})
        left, right = self._guarded(other)
        out: Dict[MultiIndex, dict] = {}
        _leibniz(left, right, other._deriv, self.registry.positions(COORDS), out, 1, 0)
        return self._finish(out)

    def bracket(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        """The commutator self o other - other o self, from its cross terms only.

        The zero-order products f g d^(alpha+beta) of the two compositions
        are equal, since coefficients commute, so they are never formed.
        A o B and B o A each raise DegreeOverflow exactly when the order sum
        or the coordinate-degree sum of the operands is over its guard (see
        the module docstring), and so does the bracket.  When no axis on
        which one operand differentiates is an axis on which the other's
        coefficients reach, there is no cross term, and the bracket is zero
        without entering the kernel.
        """
        if other.registry is not self.registry:  # one registry is the case of nearly every call
            self._coerce(other)
        if not (self._terms and other._terms):
            return self._make({})
        left, right = self._guarded(other)
        (axes, reach), (other_axes, other_reach) = self._axes, other._axes
        if not (axes & other_reach or other_axes & reach):
            return self._make({})
        positions = self.registry.positions(COORDS)
        out: Dict[MultiIndex, dict] = {}
        _leibniz(left, right, other._deriv, positions, out, 1, 1)
        _leibniz(right, left, self._deriv, positions, out, -1, 1)
        return self._finish(out) if out else self._make({})

    def __str__(self) -> str:
        return self._render_terms(("d1", "d2", "dt"), _has_two_terms)


class DiffOp:
    """Square matrix of scalar operators; the home of every generator.

    The constructor lifts PolyExpr entries to multiplication operators and
    checks that the rows are square (ShapeError) and that every entry is
    over `registry` (RegistryMismatch).  The matrix product composes
    entries, and the commutator takes its diagonal summands from the entry
    bracket.  Sums, differences, negations, the product, the commutator and
    `scale` combine the entries of checked operands of one registry and
    dimension into operators of that registry, so they build their results
    with `_make`, without checking each entry again.
    """

    __slots__ = ("registry", "rows")

    def __init__(self, registry: SymbolRegistry, rows: Sequence[Sequence]):
        self.registry = registry
        dim = len(rows)
        checked = []
        for row in rows:
            if len(row) != dim:
                raise ShapeError("matrix must be square")
            for e in row:
                TermMap._coerce(self, e)
            checked.append(tuple(ScalarDiffOp.coeff(e) if isinstance(e, PolyExpr) else e
                                 for e in row))
        self.rows: Tuple[Tuple[ScalarDiffOp, ...], ...] = tuple(checked)

    @classmethod
    def identity(cls, registry: SymbolRegistry, dim: int, factor=None) -> "DiffOp":
        one = factor if factor is not None else registry.const(ONE)
        zero = registry.zero()
        return cls(
            registry, [[one if r == c else zero for c in range(dim)] for r in range(dim)]
        )

    @classmethod
    def zeros(cls, registry: SymbolRegistry, dim: int) -> "DiffOp":
        return cls(registry, [[registry.zero()] * dim for _ in range(dim)])

    @staticmethod
    def scalar(op: ScalarDiffOp) -> "DiffOp":
        return DiffOp(op.registry, [[op]])

    def _make(self, rows) -> "DiffOp":
        """A result over this registry, taking square rows of its operators as they are.

        A tuple of row tuples is kept as it is; any other rows are copied into one.
        """
        out = object.__new__(type(self))
        out.registry = self.registry
        out.rows = rows if type(rows) is tuple else tuple(map(tuple, rows))
        return out

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> ScalarDiffOp:
        return self.rows[r][c]

    @property
    def is_zero(self) -> bool:
        return not any([e._terms for row in self.rows for e in row])

    def _check(self, other: "DiffOp") -> bool:
        """False for an operand of a foreign type; ShapeError or RegistryMismatch if unfit."""
        if type(other) is type(self) and other.registry is self.registry \
                and len(other.rows) == len(self.rows):
            return True  # the case of nearly every call: one registry, one dimension
        if not isinstance(other, type(self)):
            return False
        if self.dim != other.dim:
            raise ShapeError("matrix dimensions do not match")
        TermMap._coerce(self, other)
        return True

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if not self._check(other):
            return NotImplemented
        A, B = self.rows, other.rows
        if len(A) == 1:
            return self._make(((A[0][0] + B[0][0],),))
        return self._make(tuple([tuple([a + b for a, b in zip(r1, r2)]) for r1, r2 in zip(A, B)]))

    def __neg__(self) -> "DiffOp":
        return self._make(tuple([tuple([-e for e in row]) for row in self.rows]))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + -other if self._check(other) else NotImplemented

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        if not self._check(other):
            return NotImplemented
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
        if not self._check(other):
            raise TypeError(f"expected a {type(self).__name__}")
        A, B, n = self.rows, other.rows, self.dim
        if n == 1:  # a scalar operator: the entry bracket alone
            return self._make(((A[0][0].bracket(B[0][0]),),))
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

    def scale(self, factor) -> "DiffOp":
        rows = self.rows
        if len(rows) == 1:
            return self._make(((rows[0][0].scale(factor),),))
        return self._make(tuple([tuple([e.scale(factor) for e in row]) for row in rows]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and (self.registry is other.registry or self.registry == other.registry)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.registry, self.rows))

    def __str__(self) -> str:
        rows = self.rows
        if len(rows) == 1:
            return f"[{rows[0][0]}]"
        return "[" + "; ".join([", ".join([str(e) for e in row]) for row in rows]) + "]"

    @staticmethod
    def zero_text(dim: int) -> str:
        """The text of the zero operator of a dimension, formed from the dimension alone."""
        return "[" + "; ".join([", ".join(["0"] * dim)] * dim) + "]"

    def __repr__(self):
        return f"{type(self).__name__}({self})"
