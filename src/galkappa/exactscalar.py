"""Exact arithmetic foundation: Gaussian rationals, Laurent polynomials, and
the shared sparse-map container.

Every coefficient in this package is a complex number with rational real and
imaginary parts (a Gaussian rational), so all verification is equality of
canonical forms -- there are no tolerances anywhere in the symbolic layer.
A `Scalar` is one reduced integer triple (a, b, d) for (a + b*i)/d, so its
arithmetic is integer arithmetic plus one gcd per result; Fractions appear
only at the public edges (the constructor and the `re`/`im` parts).  The one
grammar of an exact literal is here, read by `parse_scalar` and `algfile`.

Polynomials are multivariate over a fixed registry of named symbols.  A
symbol registered as invertible may carry negative exponents (Laurent terms);
anything else is restricted to ordinary polynomial exponents so that
construction bugs surface as errors instead of silently growing 1/x terms.

`TermMap` is the canonical sparse map (key -> nonzero coefficient) behind
polynomials, scalar differential operators and field bilinears.  It owns
the one registry rule: operands over two registries raise RegistryMismatch.
The one square-matrix class, `weylop.DiffOp`, checks its entries by it.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import NotInvertible, RegistryMismatch


class Scalar:
    """A Gaussian rational (a + b*i)/d, stored as one triple of ints.

    The triple is canonical: d > 0 and gcd(a, b, d) == 1, so equal values
    have equal triples and equal hashes.  `re` and `im` give the two parts as
    Fractions.  The public constructor accepts only ints and Fractions;
    arithmetic works on the integers alone and builds its results with
    `_reduced`, which divides out gcd(a, b, d) (skipped when d == 1), or with
    `_canonical` when the result is canonical by construction.  Instances
    are immutable: assignment raises `dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        # ints and Fractions are already in lowest terms; text goes through parse_scalar
        if not (isinstance(re, _RATIONALS) and isinstance(im, _RATIONALS)):
            raise TypeError(f"Scalar parts must be ints or Fractions, got {re!r}, {im!r}")
        dr, di = re.denominator, im.denominator
        # over the lcm of two reduced denominators, gcd(a, b, d) is already 1
        d = dr if dr == di else lcm(dr, di)
        _SET(self, (re.numerator * (d // dr), im.numerator * (d // di), d))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded only to raise it

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default restores the slot through __setattr__, which refuses
        return (Scalar, (self.re, self.im))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, _RATIONALS):
            return Scalar(value)
        raise TypeError(f"cannot build Scalar from {value!r}")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # -- arithmetic --------------------------------------------------------
    # Each operator tests first for an operand that is exactly a Scalar, the
    # case of nearly every call; ints and Fractions are lifted by `_operand`,
    # and any other operand gives NotImplemented.  No operator calls another,
    # so each counts as one operation wherever the operators are counted.

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        a, b, d = self._abd
        return _canonical(-a, -b, d)

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        return _reduced(c * d - a * f, e * d - b * f, d * f)

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if type(other) is int:
                # derivatives and binomial weights multiply by ints; no
                # operand Scalar is built for them
                a, b, d = self._abd
                return _reduced(a * other, b * other, d)
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _quotient(self, other)

    def __rtruediv__(self, other) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _quotient(other, self)

    def conj(self) -> "Scalar":
        a, b, d = self._abd
        return _canonical(a, -b, d)

    @property
    def is_zero(self) -> bool:
        abd = self._abd
        return not (abd[0] or abd[1])

    def __bool__(self) -> bool:
        abd = self._abd
        return bool(abd[0] or abd[1])

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            return NotImplemented
        return self._abd == other._abd

    def __hash__(self) -> int:
        return hash(self._abd)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self._abd
        if not (a or b):
            return "0"
        # over d = 1 each part is its integer (the triple is canonical)
        text = ("" if not a else str(a) if d == 1 else _ratio(a, d))
        if b:
            if b == d:
                imtxt = "i"
            elif b == -d:
                imtxt = "-i"
            else:
                imtxt = (str(b) if d == 1 else _ratio(b, d)) + "*i"
            if text and imtxt[0] != "-":
                text += "+"
            text += imtxt
        return text

    def __repr__(self) -> str:
        return f"Scalar({self})"


_RATIONALS = (int, Fraction)
_new = object.__new__
_SET = Scalar._abd.__set__


def _canonical(a: int, b: int, d: int) -> Scalar:
    """Private constructor for a triple that is already canonical."""
    value = _new(Scalar)
    _SET(value, (a, b, d))
    return value


def _reduced(a: int, b: int, d: int) -> Scalar:
    """Private constructor for (a + b*i)/d with d > 0, in lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    value = _new(Scalar)
    _SET(value, (a, b, d))
    return value


def _operand(value):
    """An int or Fraction operand as a Scalar; None for any other type."""
    if isinstance(value, _RATIONALS):
        return _canonical(value.numerator, 0, value.denominator)
    return None


def _quotient(x: Scalar, y: Scalar) -> Scalar:
    """x / y = x * conj(y) * f / (c^2 + e^2), for y = (c + e*i)/f."""
    c, e, f = y._abd
    norm = c * c + e * e
    if not norm:
        raise ZeroDivisionError("division by zero Scalar")
    a, b, d = x._abd
    return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * norm)


# Fused kernels for exact updates: each forms its integer result over one
# denominator and takes one gcd at the end, where the operator chain would
# build and reduce a Scalar per step.  The result is the same canonical triple.


def _sub_mul(x: Scalar, y: Scalar, z: Scalar) -> Scalar:
    """x - y*z, reduced once."""
    a, b, d = x._abd
    c, e, f = y._abd
    g, h, k = z._abd
    p = c * g - e * h
    q = c * h + e * g
    m = f * k
    if m == d:
        return _reduced(a - p, b - q, d)
    return _reduced(a * m - p * d, b * m - q * d, d * m)


def _sum_products(pairs: Iterable[Tuple[Scalar, Scalar]]) -> Scalar:
    """The sum of y*z over (y, z) pairs, reduced once (ZERO for no pairs)."""
    a = b = 0
    d = 1
    for y, z in pairs:
        c, e, f = y._abd
        g, h, k = z._abd
        p = c * g - e * h
        q = c * h + e * g
        m = f * k
        if m == d:
            a += p
            b += q
        else:
            a = a * m + p * d
            b = b * m + q * d
            d *= m
    return _reduced(a, b, d)


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, printed as a Fraction prints."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


ZERO = Scalar()
ONE = Scalar(1)
I = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))
NEG_I = Scalar(0, -1)

# The exact literal `n`, `n/d`, `n*i`, `n/d*i` or `i`, with whitespace allowed
# around `*` and ASCII digits only (`\d` and int() take any decimal digit).
# algfile's term pattern embeds it; `_literal_value` reads its groups.
_LITERAL = r"(?:(?P<num>[0-9]+)(?:/(?P<den>[0-9]+))?(?:\s*\*\s*(?P<imag>i))?|(?P<unit>i))"
_SCALAR_TOKEN = re.compile(r"\s*(?P<sign>[+-])?\s*" + _LITERAL + r"\s*")


def _literal_value(sign, num, den, imag) -> Optional[Scalar]:
    """A `_LITERAL` after `sign` from its groups (num None for `i`); None for a zero denominator."""
    if num is None:
        return NEG_I if sign == "-" else I
    n = -int(num) if sign == "-" else int(num)
    if den is None:
        return _canonical(0, n, 1) if imag else _canonical(n, 0, 1)
    d = int(den)
    if not d:
        return None
    return _reduced(0, n, d) if imag else _reduced(n, 0, d)


def parse_scalar(text: str) -> Scalar:
    """Parse one scalar token: '3', '-1/2', 'i', '-i', '2*i', '3/4*i'."""
    m = _SCALAR_TOKEN.fullmatch(text)
    if not m:
        raise ValueError(f"malformed scalar literal: {text!r}")
    sign, num, den, imag, _ = m.groups()
    value = _literal_value(sign, num, den, imag)
    if value is None:
        raise ValueError(f"zero denominator in scalar literal: {text!r}")
    return value


class SymbolRegistry:
    """Fixed, ordered set of symbol names with an invertibility flag each.

    Polynomials over two distinct registries never mix; this catches the
    common bug of building an operator against the wrong model context.
    """

    def __init__(self, names: Iterable[str], invertible: Iterable[str] = ()):
        names = tuple(sorted(names))
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        invertible = frozenset(invertible)
        unknown = invertible - set(names)
        if unknown:
            raise ValueError(f"invertible symbols not registered: {sorted(unknown)}")
        self.names: Tuple[str, ...] = names
        self.invertible: frozenset = invertible
        self._index = {n: k for k, n in enumerate(names)}
        self._positions: Dict[Tuple[str, ...], Tuple[int, ...]] = {}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def positions(self, names: Iterable[str]) -> Tuple[int, ...]:
        """The indices of several names, looked up once per registry."""
        if type(names) is not tuple:
            names = tuple(names)
        found = self._positions.get(names)
        if found is None:
            found = self._positions[names] = tuple(self.index(n) for n in names)
        return found

    def is_invertible(self, name: str) -> bool:
        return name in self.invertible

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, SymbolRegistry)
            and self.names == other.names
            and self.invertible == other.invertible
        )

    def __hash__(self):
        return hash((self.names, self.invertible))

    def __repr__(self):
        return f"SymbolRegistry({self.names}, invertible={sorted(self.invertible)})"

    # convenience constructors

    def zero(self) -> "PolyExpr":
        """The zero polynomial; it has no term to check, so it skips the checks."""
        out = _new(PolyExpr)
        out.registry = self
        out._terms = {}
        return out

    def const(self, value) -> "PolyExpr":
        """value as a polynomial; the constant key is valid, so it skips the checks."""
        s = Scalar.of(value)
        out = _new(PolyExpr)
        out.registry = self
        out._terms = {} if s.is_zero else {(0,) * len(self.names): s}
        return out

    def symbol(self, name: str, power: int = 1) -> "PolyExpr":
        """name**power; the key is valid by construction, so it skips the checks."""
        idx = self.index(name)
        if power < 0 and name not in self.invertible:
            raise NotInvertible(f"symbol {name!r} does not permit negative powers")
        key = [0] * len(self.names)
        key[idx] = power
        out = _new(PolyExpr)
        out.registry = self
        out._terms = {tuple(key): ONE}
        return out


def accumulate(terms: dict, key, coeff) -> None:
    """Add coeff into terms[key] in place, keeping the map free of zeros.

    A new key stores coeff itself; a sum (or a new coefficient) that is zero
    removes the key.
    """
    old = terms.get(key)
    if old is not None:
        coeff = old + coeff
    if coeff.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = coeff


class TermMap:
    """Canonical sparse map from keys to nonzero coefficients over one registry.

    The map never stores a zero, so equal objects have equal maps and
    equality and zero tests are exact dictionary comparisons.  A map equals
    only a map of its own type over its registry, never a number, so equal
    objects hash equally.  A difference is the sum with the negation.
    Subclasses validate keys and coefficients in their constructor and supply
    their own calculus and printing (`_render_terms` prints polynomials and
    operators); `_coerce` checks the other operand's registry.
    Results whose invariants hold by construction (sums, negations, the
    polynomial product, derivative and `div_symbol` shift, and the operator
    product and bracket) are built with `_make`, which skips that
    validation; every other result passes through the constructor.
    """

    __slots__ = ("registry", "_terms")

    def _coerce(self, other):
        """other, if it is over this registry; RegistryMismatch if not.

        It reads only the two `registry` attributes, so `DiffOp` and the
        other holders of a registry check theirs by calling it unbound.
        """
        if self.registry != other.registry:
            raise RegistryMismatch("operands built over different symbol registries")
        return other

    def _operand(self, other):
        """other, checked by `_coerce`, if of this type; None (so NotImplemented) if not."""
        return self._coerce(other) if isinstance(other, type(self)) else None

    def _make(self, terms: dict):
        """A result of this type over this registry, taking terms as they are.

        terms must already be canonical for the subclass: nonzero
        coefficients, valid keys, and within every guard its constructor
        enforces.
        """
        out = object.__new__(type(self))
        out.registry = self.registry
        out._terms = terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """Terms in canonical order: graded, then lexicographic on keys."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            accumulate(terms, key, coeff)
        return self._make(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._make({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other - self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and (self.registry is other.registry or self.registry == other.registry)
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.registry, frozenset(self._terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def _render_terms(self, names: Tuple[str, ...], wrap) -> str:
        """The terms in canonical order as text, "0" for none.

        Each term prints as its coefficient times name^e for each nonzero
        exponent e of its key (name for e = 1), joined by `*`; a unit
        coefficient before factors prints as its sign alone, and a
        coefficient text for which `wrap` holds is parenthesized.  Terms
        are joined by " + ", and "+ -" prints as "- ".  One term needs no
        sort.
        """
        terms = self._terms
        if not terms:
            return "0"
        chunks = []
        for key, coeff in self.items() if len(terms) > 1 else terms.items():
            ctext = str(coeff)
            if not any(key):
                chunks.append(f"({ctext})" if wrap(ctext) else ctext)
                continue
            factors = "*".join([name if e == 1 else f"{name}^{e}"
                                for name, e in zip(names, key) if e])
            if ctext == "1" or ctext == "-1":
                chunks.append(ctext[:-1] + factors)  # "" or "-" before the factors
            else:
                chunks.append((f"({ctext})*" if wrap(ctext) else ctext + "*") + factors)
        return " + ".join(chunks).replace("+ -", "- ")


def _has_two_parts(text: str) -> bool:
    """Whether a Gaussian rational's text, such as 1-i, has a real and an imaginary part.

    A polynomial parenthesizes such a coefficient.  Only the sign of a
    negative real part, or of a lone imaginary part, comes first.
    """
    return "+" in text or "-" in text[1:]


class PolyExpr(TermMap):
    """Multivariate Laurent-capable polynomial with Scalar coefficients.

    Terms map exponent tuples (aligned with the registry's sorted names) to
    nonzero Scalars.
    """

    __slots__ = ()

    def __init__(self, registry: SymbolRegistry, terms: Mapping[Tuple[int, ...], Scalar]):
        self.registry = registry
        width = len(registry.names)
        clean: Dict[Tuple[int, ...], Scalar] = {}
        for key, coeff in terms.items():
            coeff = Scalar.of(coeff)
            if coeff.is_zero:
                continue
            if len(key) != width:
                raise ValueError(f"exponent tuple {key} has wrong width for registry")
            for name, e in zip(registry.names, key):
                if e < 0 and not registry.is_invertible(name):
                    raise NotInvertible(
                        f"negative exponent on non-invertible symbol {name!r}"
                    )
            clean[key] = coeff
        self._terms = clean

    # -- inspection --------------------------------------------------------

    def constant_term(self) -> Scalar:
        return self._terms.get((0,) * len(self.registry.names), ZERO)

    def coefficient(self, key: Tuple[int, ...]) -> Scalar:
        return self._terms.get(tuple(key), ZERO)

    def uses_symbols(self, names: Iterable[str]) -> bool:
        idxs = self.registry.positions(names)
        for key in self._terms:
            for i in idxs:
                if key[i]:
                    return True
        return False

    def max_degree(self, names: Iterable[str]) -> int:
        """Largest total degree over the given symbols (0 for the zero poly)."""
        idxs = self.registry.positions(names)
        best = 0
        for key in self._terms:
            degree = 0
            for i in idxs:
                degree += abs(key[i])
            if degree > best:
                best = degree
        return best

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other) -> Optional["PolyExpr"]:
        """As `TermMap._operand`, but an int, Fraction or Scalar is lifted to a constant."""
        if isinstance(other, PolyExpr):  # first: a Fraction test is a slow ABC check
            return self._coerce(other)
        if isinstance(other, (int, Fraction, Scalar)):
            return self.registry.const(other)
        return None

    def __mul__(self, other) -> "PolyExpr":
        if type(other) is Scalar:
            # a constant multiplies each coefficient, as a one-term operand would
            return self._make({k: c * other for k, c in self._terms.items()} if other else {})
        other = self._operand(other)
        if other is None:
            return NotImplemented
        mine, theirs = self._terms, other._terms
        # by a one-term operand the product shifts every key by the same
        # exponent tuple: distinct keys stay distinct, in the same order, and
        # a product of nonzero Gaussian rationals is nonzero, so no term meets
        # another and none is dropped
        if len(theirs) == 1:
            ((k2, c2),) = theirs.items()
            return self._make({tuple(map(operator.add, k1, k2)): c1 * c2
                               for k1, c1 in mine.items()})
        if len(mine) == 1:
            ((k1, c1),) = mine.items()
            return self._make({tuple(map(operator.add, k1, k2)): c1 * c2
                               for k2, c2 in theirs.items()})
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for k1, c1 in mine.items():
            for k2, c2 in theirs.items():
                accumulate(terms, tuple(map(operator.add, k1, k2)), c1 * c2)
        return self._make(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolyExpr":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = self.registry.const(ONE)
        for _ in range(n):
            out = out * self
        return out

    def div_symbol(self, name: str, k: int = 1) -> "PolyExpr":
        """Exact division by name**k (Laurent shift); requires invertibility.

        Lowering one exponent of an invertible symbol keeps every key valid
        and distinct keys distinct, and leaves the coefficients nonzero, so
        the result is built without the constructor's checks.
        """
        if k <= 0:
            raise ValueError("division power must be positive")
        if not self.registry.is_invertible(name):
            raise NotInvertible(f"symbol {name!r} is not invertible")
        idx = self.registry.index(name)
        return self._make({key[:idx] + (key[idx] - k,) + key[idx + 1:]: coeff
                           for key, coeff in self._terms.items()})

    def diff(self, name: str) -> "PolyExpr":
        """Formal partial derivative with respect to one symbol."""
        idx = self.registry.index(name)
        terms: Dict[Tuple[int, ...], Scalar] = {}
        # lowering one exponent maps distinct keys to distinct keys, so no
        # two terms meet and every coefficient stays nonzero
        for key, coeff in self._terms.items():
            e = key[idx]
            if e:
                terms[key[:idx] + (e - 1,) + key[idx + 1:]] = coeff * e
        return self._make(terms)

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every symbol appearing must get a value."""
        total = 0j
        for key, coeff in self._terms.items():
            term = complex(coeff.re) + 1j * complex(coeff.im)
            for name, e in zip(self.registry.names, key):
                if e == 0:
                    continue
                if name not in values:
                    raise KeyError(f"no value supplied for symbol {name!r}")
                term *= complex(values[name]) ** e
            total += term
        return total

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return self._render_terms(self.registry.names, _has_two_parts)
