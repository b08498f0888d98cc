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
monomials of its coefficients, with the axes each term differentiates on
and its coefficient reaches, and the order and degree its guard check
reads.  Neither changes its value, and equality, hashing and pickling
ignore both.  The weighted derivatives of a coefficient are formed in the
kernel call that reads them (see `_leibniz`).

`DiffOp` is the one square-matrix class.  It stores each row as a map
from column to its nonzero entries, so every operation visits only the
stored entries, in one loop for every dimension.  Mixing two registries
raises RegistryMismatch, through `TermMap._coerce`; mismatched dimensions
and a dimension below 1 raise ShapeError; an operand or an entry of a
foreign type raises TypeError.  The finite boost is the series exp(ad X)
of brackets (`fieldcheck.boost_transform`).

Trusted results: `compose` and the bracket (checked on their operands'
extents, above), `ScalarDiffOp.scale` by a nonzero factor free of the
coordinates (a product of nonzero polynomials is nonzero, and the
coordinate degree cannot grow), `ScalarDiffOp.coeff` of a polynomial free
of the coordinates (one constant term, on a registry checked as the
constructor checks it), and the sum, difference, negation, product,
commutator and `scale` of `DiffOp` (square, one registry, entries already
checked) build their results without the constructors' checks.  So
`DiffOp.identity` puts such a factor on the diagonal unchecked, and
`DiffOp.identity_factor` reads q * Id back off the rows.  Any other factor
goes through the constructor, with its guards and errors.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import DegreeOverflow, ShapeError
from .exactscalar import (
    ONE,
    PolyExpr,
    Scalar,
    SymbolRegistry,
    TermMap,
    _reduced,
    accumulate,
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


def _leibniz(left: list, right: list, positions: Tuple[int, int, int], out: dict,
             sign: int, start: int) -> None:
    """Add sign * C(alpha, gamma) f * (d^gamma g) d^(alpha - gamma + beta) into out.

    left and right are the `_monomials` of two operators A and B and
    positions the places of x1, x2, t in their registry's keys.  One term
    for every f d^alpha of A, g d^beta of B and gamma <= alpha with
    |gamma| >= start and d^gamma g nonzero: start 0, with sign 1, gives the
    whole product A o B, start 1 only its derivative cross terms.  d^gamma g
    is zero past the reach of g on an axis, so a pair of terms with no axis
    where both alpha and the reach of g are positive has no cross term and
    is skipped before any arithmetic; any other pair forms its
    `_cross_derivatives` in the call.

    out maps each multi-index to {key: (a, b, d)}, unreduced integer
    triples that `_finish` reduces once.  Terms are met in the order
    alpha, beta, gamma (lexicographic), keys of f, keys of g, and each
    product f * d^gamma g is added as a whole, pruning zeros, so out
    holds its keys in the order of the sum `old + f * d^gamma g`.
    """
    for alpha, alpha_axes, _, _, fm in left:
        a1, a2, at = alpha
        single = len(fm) == 1
        for (b1, b2, bt), _, reach, reach_axes, gm in right:
            if alpha_axes & reach_axes:
                steps = _cross_derivatives(gm, alpha, reach, sign, positions)
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


def _check_coordinates(registry: SymbolRegistry) -> None:
    """ValueError unless registry holds x1, x2 and t, none of them invertible."""
    for c in COORDS:
        if c not in registry:
            raise ValueError(f"registry lacks coordinate symbol {c!r}")
        if registry.is_invertible(c):
            raise ValueError(f"coordinate symbol {c!r} must not be invertible")


def _has_two_terms(text: str) -> bool:
    """Whether a coefficient polynomial's text has more than one term; an operator parenthesizes it."""
    return " " in text


class ScalarDiffOp(TermMap):
    """One scalar operator: sum of coefficient * d1^a1 d2^a2 dt^at terms.

    The two slots hold the work done once per operand (module docstring);
    `_monomials` fills them on first use, and equality, hashing, printing
    and pickling ignore them.
    """

    __slots__ = ("_mono", "_ext")

    def __init__(self, registry: SymbolRegistry, terms: Mapping[MultiIndex, PolyExpr]):
        _check_coordinates(registry)
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
        # the memo slots are left out: a copy lists its monomials anew
        return None, {"registry": self.registry, "_terms": self._terms}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def coeff(poly: PolyExpr) -> "ScalarDiffOp":
        """Multiplication by poly, unchecked when poly is coordinate-free (one constant term)."""
        registry = poly.registry
        _check_coordinates(registry)
        if poly.uses_symbols(COORDS):
            return ScalarDiffOp(registry, {ZERO_IDX: poly})
        out = object.__new__(ScalarDiffOp)
        out.registry = registry
        out._terms = {ZERO_IDX: poly} if poly._terms else {}
        return out

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

        A polynomial over another registry raises RegistryMismatch before
        any term is read; a nonzero factor free of the coordinates and a
        scalar build unchecked (module docstring), any other factor through
        the constructor.
        """
        if not isinstance(factor, PolyExpr):
            s = factor if type(factor) is Scalar else Scalar.of(factor)
            if not s:
                return self._make({})
            return self._make({m: c._make({k: s * v for k, v in c._terms.items()})
                               for m, c in self._terms.items()})
        if factor.registry is not self.registry:
            self._coerce(factor)
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
        (derivative order, coefficient coordinate degree) in `_ext`.
        """
        try:
            return self._mono
        except AttributeError:
            i1, i2, it = self.registry.positions(COORDS)
            mono = []
            order = degree = 0
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
                reach_axes = (r1 > 0) | (r2 > 0) << 1 | (rt > 0) << 2
                mono.append((alpha, alpha_axes, (r1, r2, rt), reach_axes, pairs))
            self._mono = mono
            self._ext = (order, degree)
        return mono

    def _guarded(self, other: "ScalarDiffOp") -> Tuple[list, list]:
        """The monomials of two operands, checked against the guards.

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
        poly = self.registry.zero()  # makes polynomials over this registry
        return self._make({
            midx: poly._make({key: _reduced(a, b, d) for key, (a, b, d) in terms.items()})
            for midx, terms in out.items()
        })

    def compose(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        """Normal-form product: derivatives act through coefficients (Leibniz)."""
        self._coerce(other)
        left, right = self._guarded(other)
        out: Dict[MultiIndex, dict] = {}
        _leibniz(left, right, self.registry.positions(COORDS), out, 1, 0)
        return self._finish(out)

    def bracket(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        """The commutator self o other - other o self, from its cross terms only.

        The zero-order products f g d^(alpha+beta) of the two compositions
        are equal, since coefficients commute, so they are never formed.
        A o B and B o A each raise DegreeOverflow exactly when the order sum
        or the coordinate-degree sum of the operands is over its guard (see
        the module docstring), and so does the bracket.
        """
        if other.registry is not self.registry:  # one registry is the case of nearly every call
            self._coerce(other)
        left, right = self._guarded(other)
        positions = self.registry.positions(COORDS)
        out: Dict[MultiIndex, dict] = {}
        _leibniz(left, right, positions, out, 1, 1)
        _leibniz(right, left, positions, out, -1, 1)
        return self._finish(out)

    def __str__(self) -> str:
        return self._render_terms(("d1", "d2", "dt"), _has_two_terms)


class DiffOp:
    """Square matrix of scalar operators; the home of every generator.

    Each row maps a column to its entry, and only nonzero entries are
    stored, so a missing entry is the zero operator.  The constructor takes
    dense rows, lifts PolyExpr entries to multiplication operators and
    checks that the rows are square (ShapeError) and that every entry is a
    PolyExpr or ScalarDiffOp (TypeError) over `registry` (RegistryMismatch).
    Sums, the product and the commutator (its diagonal summands from the
    entry bracket) run one loop for every dimension; `identity_factor`
    reads q * Id off the rows.  `entry`, `rows`, `dim` and the text read
    as for dense rows.
    """

    __slots__ = ("registry", "_rows")

    def __init__(self, registry: SymbolRegistry, rows: Sequence[Sequence]):
        self.registry = registry
        if not rows:
            raise ShapeError("matrix dimension must be at least 1")
        sparse = []
        for row in rows:
            if len(row) != len(rows):
                raise ShapeError("matrix must be square")
            sparse.append({c: e for c, e in enumerate(map(self._entry, row)) if e._terms})
        self._rows: Tuple[Dict[int, ScalarDiffOp], ...] = tuple(sparse)

    @classmethod
    def identity(cls, registry: SymbolRegistry, dim: int, factor=None) -> "DiffOp":
        """factor (1 by default) times the identity; the factor is checked once, as one entry."""
        if dim < 1:
            raise ShapeError("matrix dimension must be at least 1")
        out = object.__new__(cls)
        out.registry = registry
        e = out._entry(registry.const(ONE) if factor is None else factor)
        out._rows = tuple([{r: e} if e._terms else {} for r in range(dim)])
        return out

    def identity_factor(self) -> Optional[PolyExpr]:
        """q if every row r is {r: e}, e the one constant term q, coordinate-free; 0 if zero; else None."""
        rows = self._rows
        e = rows[0].get(0)
        if e is None:
            return None if any(rows) else self.registry.zero()
        q = e._terms.get(ZERO_IDX)
        if q is None or len(e._terms) != 1 or q.uses_symbols(COORDS) \
                or any(row != {r: e} for r, row in enumerate(rows)):
            return None
        return q

    @classmethod
    def zeros(cls, registry: SymbolRegistry, dim: int) -> "DiffOp":
        return cls.identity(registry, dim, registry.zero())

    def _entry(self, e) -> ScalarDiffOp:
        """e as an entry over this registry: a ScalarDiffOp as it is, a PolyExpr lifted to one."""
        if not isinstance(e, (PolyExpr, ScalarDiffOp)):
            raise TypeError(f"a DiffOp entry must be a PolyExpr or a ScalarDiffOp, "
                            f"not {type(e).__name__}")
        if e.registry is not self.registry:
            TermMap._coerce(self, e)
        return ScalarDiffOp.coeff(e) if isinstance(e, PolyExpr) else e

    @staticmethod
    def scalar(op: ScalarDiffOp) -> "DiffOp":
        return DiffOp(op.registry, [[op]])

    def _make(self, rows: tuple) -> "DiffOp":
        """A result over this registry, taking a tuple of sparse rows of its nonzero operators."""
        out = object.__new__(DiffOp)
        out.registry = self.registry
        out._rows = rows
        return out

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Tuple[Tuple[ScalarDiffOp, ...], ...]:
        """Every entry, row by row, the missing ones as the zero operator."""
        zero, cols = ScalarDiffOp.zero(self.registry), range(len(self._rows))
        return tuple([tuple([row.get(c, zero) for c in cols]) for row in self._rows])

    def entry(self, r: int, c: int) -> ScalarDiffOp:
        row, c = self._rows[r], range(len(self._rows))[c]  # IndexError out of range
        return row[c] if c in row else ScalarDiffOp.zero(self.registry)

    @property
    def is_zero(self) -> bool:
        return not any(self._rows)

    def _check(self, other: "DiffOp") -> bool:
        """False for an operand of a foreign type; ShapeError or RegistryMismatch if unfit."""
        if not isinstance(other, DiffOp):
            return False
        if len(other._rows) != len(self._rows):
            raise ShapeError("matrix dimensions do not match")
        if other.registry is not self.registry:  # one registry is the case of nearly every call
            TermMap._coerce(self, other)
        return True

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if not self._check(other):
            return NotImplemented
        out = []
        for a_row, b_row in zip(self._rows, other._rows):
            row = dict(a_row)
            for c, b in b_row.items():
                accumulate(row, c, b)
            out.append(row)
        return self._make(tuple(out))

    def __neg__(self) -> "DiffOp":
        return self._make(tuple([{c: -e for c, e in row.items()} for row in self._rows]))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + -other if self._check(other) else NotImplemented

    def __matmul__(self, other: "DiffOp") -> "DiffOp":
        """Entry (r, c) sums A_rk B_kc over the stored A_rk and B_kc, in the order of A's row."""
        if not self._check(other):
            return NotImplemented
        B = other._rows
        out = []
        for a_row in self._rows:
            row = {}
            for k, a in a_row.items():
                for c, b in B[k].items():
                    accumulate(row, c, a.compose(b))
            out.append(row)
        return self._make(tuple(out))

    def commutator(self, other: "DiffOp") -> "DiffOp":
        """self @ other - other @ self, over the stored entries.

        Entry (r, c) sums A_rk B_kc - B_rk A_kc over k; the summand with
        r = k = c is the entry bracket [A_rr, B_rr].
        """
        if not self._check(other):
            raise TypeError(f"expected a {type(self).__name__}")
        A, B = self._rows, other._rows
        out = []
        for r, a_row in enumerate(A):
            row = {}
            for k, a in a_row.items():
                for c, b in B[k].items():
                    accumulate(row, c, a.bracket(b) if k == c == r else a.compose(b))
            for k, b in B[r].items():
                for c, a in A[k].items():
                    if k != r or c != r:
                        accumulate(row, c, -b.compose(a))
            out.append(row)
        return self._make(tuple(out))

    def scale(self, factor) -> "DiffOp":
        if isinstance(factor, PolyExpr) and factor.registry is not self.registry:
            TermMap._coerce(self, factor)
        return self._make(tuple([{c: s for c, e in row.items() if (s := e.scale(factor))._terms}
                                 for row in self._rows]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffOp)
            and (self.registry is other.registry or self.registry == other.registry)
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.registry, tuple([frozenset(row.items()) for row in self._rows])))

    def __str__(self) -> str:
        n, text = len(self._rows), "["
        for r, row in enumerate(self._rows):
            if r:
                text += "; "
            for c in range(n):
                if c:
                    text += ", "
                text += str(row[c]) if c in row else "0"
        return text + "]"

    def __repr__(self):
        return f"{type(self).__name__}({self})"
