"""Exact arithmetic foundation: Gaussian rationals, Laurent polynomials, and
the shared sparse-map and square-matrix containers.

Every coefficient in this package is a complex number with rational real and
imaginary parts (a Gaussian rational), so all verification is equality of
canonical forms -- there are no tolerances anywhere in the symbolic layer.

Polynomials are multivariate over a fixed registry of named symbols.  A
symbol registered as invertible may carry negative exponents (Laurent terms);
anything else is restricted to ordinary polynomial exponents so that
construction bugs surface as errors instead of silently growing 1/x terms.

`TermMap` is the canonical sparse map (key -> nonzero coefficient) behind
polynomials, scalar differential operators and field bilinears;
`SquareMatrix` is the square matrix over such a ring behind spin matrices
and matrix differential operators.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import NotInvertible, RegistryMismatch, ShapeError


@dataclass(frozen=True, slots=True)
class Scalar:
    """A Gaussian rational: re + im*i with both parts exact fractions.

    The public constructor accepts ints and Fractions and normalizes them;
    arithmetic builds its results with `_from_fractions`, which skips that
    step because Fraction arithmetic already yields Fractions in lowest terms.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        # normalize ints and reduce; Fraction already keeps lowest terms
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(Fraction(value))
        raise TypeError(f"cannot build Scalar from {value!r}")

    # -- arithmetic --------------------------------------------------------
    # Each operator tests first for an operand that is exactly a Scalar, the
    # case of nearly every call; ints and Fractions are lifted through `of`.

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = Scalar.of(other)
        if not other.im:
            return _from_fractions(self.re + other.re, self.im)
        return _from_fractions(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _from_fractions(-self.re, -self.im)

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = Scalar.of(other)
        if not other.im:
            return _from_fractions(self.re - other.re, self.im)
        return _from_fractions(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "Scalar":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = Scalar.of(other)
        return _from_fractions(other.re - self.re, other.im - self.im)

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if type(other) is int:
                # Fraction * int is already in lowest terms; no Scalar is built
                return _from_fractions(self.re * other, self.im * other)
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = Scalar.of(other)
        # a part known to be zero is reused as the zero part of the product
        if not (self.im or other.im):
            return _from_fractions(self.re * other.re, self.im)
        if not (self.re or other.re):
            return _from_fractions(-(self.im * other.im), self.re)
        if not (self.im or other.re):
            return _from_fractions(self.im, self.re * other.im)
        if not (self.re or other.im):
            return _from_fractions(other.im, self.im * other.re)
        return _from_fractions(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.of(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return _from_fractions(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conj(self) -> "Scalar":
        return _from_fractions(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.re != 0:
            parts.append(str(self.re))
        if self.im != 0:
            if self.im == 1:
                imtxt = "i"
            elif self.im == -1:
                imtxt = "-i"
            else:
                imtxt = f"{self.im}*i"
            if parts and not imtxt.startswith("-"):
                parts.append("+" + imtxt)
            else:
                parts.append(imtxt)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"


_OPERANDS = (Scalar, int, Fraction)
_SET_RE = Scalar.re.__set__
_SET_IM = Scalar.im.__set__


def _from_fractions(re: Fraction, im: Fraction) -> Scalar:
    """Private constructor for parts that are already Fractions."""
    value = object.__new__(Scalar)
    _SET_RE(value, re)
    _SET_IM(value, im)
    return value


ZERO = Scalar()
ONE = Scalar(Fraction(1))
I = Scalar(Fraction(0), Fraction(1))
HALF = Scalar(Fraction(1, 2))
NEG_I = Scalar(Fraction(0), Fraction(-1))

_SCALAR_TOKEN = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?:
            (?P<imag_only>i)
          | (?P<num>\d+)(?:/(?P<den>\d+))?\s*(?:\*\s*(?P<imag>i))?
        )\s*$""",
    re.VERBOSE,
)


def parse_scalar(text: str) -> Scalar:
    """Parse one scalar token: '3', '-1/2', 'i', '-i', '2*i', '3/4*i'."""
    m = _SCALAR_TOKEN.match(text)
    if not m:
        raise ValueError(f"malformed scalar literal: {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("imag_only"):
        return Scalar(0, Fraction(sign))
    num = int(m.group("num"))
    den = int(m.group("den") or 1)
    if den == 0:
        raise ValueError(f"zero denominator in scalar literal: {text!r}")
    q = Fraction(sign * num, den)
    if m.group("imag"):
        return Scalar(0, q)
    return Scalar(q)


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

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def is_invertible(self, name: str) -> bool:
        return name in self.invertible

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
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
        return PolyExpr(self, {})

    def const(self, value) -> "PolyExpr":
        s = Scalar.of(value)
        return PolyExpr(self, {} if s.is_zero else {(0,) * len(self.names): s})

    def symbol(self, name: str, power: int = 1) -> "PolyExpr":
        idx = self.index(name)
        if power < 0 and not self.is_invertible(name):
            raise NotInvertible(f"symbol {name!r} does not permit negative powers")
        key = tuple(power if k == idx else 0 for k in range(len(self.names)))
        return PolyExpr(self, {key: ONE})


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
    equality and zero tests are exact dictionary comparisons.  Subclasses
    validate keys and coefficients in their constructor, check or coerce the
    other operand in `_coerce`, and supply their own calculus and printing.
    Results whose invariants hold by construction (sums, negations, and the
    polynomial product and derivative) are built with `_make`, which skips
    that validation; every other result passes through the constructor.
    """

    __slots__ = ("registry", "_terms")

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
        other = self._coerce(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            accumulate(terms, key, coeff)
        return self._make(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._make({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            old = terms.get(key)
            coeff = -coeff if old is None else old - coeff
            if coeff.is_zero:
                del terms[key]
            else:
                terms[key] = coeff
        return self._make(terms)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.registry == other.registry
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.registry, frozenset(self._terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


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
        idxs = [self.registry.index(n) for n in names]
        return any(any(key[i] != 0 for i in idxs) for key in self._terms)

    def max_degree(self, names: Iterable[str]) -> int:
        """Largest total degree over the given symbols (0 for the zero poly)."""
        idxs = [self.registry.index(n) for n in names]
        best = 0
        for key in self._terms:
            best = max(best, sum(abs(key[i]) for i in idxs))
        return best

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "PolyExpr"):
        if self.registry != other.registry:
            raise RegistryMismatch("operands built over different symbol registries")

    def _coerce(self, other) -> "PolyExpr":
        if isinstance(other, PolyExpr):
            self._check(other)
            return other
        return self.registry.const(Scalar.of(other))

    def __mul__(self, other) -> "PolyExpr":
        other = self._coerce(other)
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
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

    def conj(self) -> "PolyExpr":
        # declared symbols are real parameters; only coefficients conjugate
        return PolyExpr(self.registry, {k: c.conj() for k, c in self._terms.items()})

    def div_symbol(self, name: str, k: int = 1) -> "PolyExpr":
        """Exact division by name**k (Laurent shift); requires invertibility."""
        if k <= 0:
            raise ValueError("division power must be positive")
        if not self.registry.is_invertible(name):
            raise NotInvertible(f"symbol {name!r} is not invertible")
        idx = self.registry.index(name)
        terms = {
            tuple(e - k if j == idx else e for j, e in enumerate(key)): coeff
            for key, coeff in self._terms.items()
        }
        return PolyExpr(self.registry, terms)

    def subs(self, assignments: Mapping[str, "PolyExpr"]) -> "PolyExpr":
        """Substitute polynomials for symbols (nonnegative exponents only)."""
        for target in assignments.values():
            self._check(target)
        idx_map = {self.registry.index(n): p for n, p in assignments.items()}
        out = self.registry.zero()
        for key, coeff in self._terms.items():
            factor = self.registry.const(coeff)
            rest = list(key)
            for i, repl in idx_map.items():
                e = key[i]
                if e < 0:
                    raise NotInvertible(
                        "cannot substitute into a negative power of "
                        f"{self.registry.names[i]!r}"
                    )
                if e:
                    factor = factor * repl ** e
                rest[i] = 0
            monomial = PolyExpr(self.registry, {tuple(rest): ONE})
            out = out + factor * monomial
        return out

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

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.registry.const(Scalar.of(other))
        return super().__eq__(other)

    __hash__ = TermMap.__hash__  # defining __eq__ clears the inherited hash

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for key, coeff in self.items():
            syms = []
            for name, e in zip(self.registry.names, key):
                if e == 0:
                    continue
                syms.append(name if e == 1 else f"{name}^{e}")
            ctext = str(coeff)
            if syms and ctext == "1":
                body = "*".join(syms)
            elif syms and ctext == "-1":
                body = "-" + "*".join(syms)
            else:
                if ("+" in ctext[1:]) or ("-" in ctext[1:]):
                    ctext = f"({ctext})"
                body = "*".join([ctext] + syms)
            chunks.append(body)
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")


class SquareMatrix:
    """Square matrix over a ring of registry-bound entries.

    Subclasses fix the entry ring through three hooks: `_entry` checks (and
    may coerce) one entry, `_times` multiplies two entries for the matrix
    product, and `_bracket` gives the commutator of two entries.  `identity`
    and `zeros` pass PolyExpr constants through `_entry`.
    """

    __slots__ = ("registry", "rows")

    def __init__(self, registry: SymbolRegistry, rows: Sequence[Sequence]):
        self.registry = registry
        dim = len(rows)
        coerced = []
        for row in rows:
            if len(row) != dim:
                raise ShapeError("matrix must be square")
            coerced.append(tuple(self._entry(e) for e in row))
        self.rows: Tuple[tuple, ...] = tuple(coerced)

    def _entry(self, e):
        if e.registry != self.registry:
            raise ShapeError("entry built over a different registry")
        return e

    @staticmethod
    def _times(a, b):
        return a * b

    @staticmethod
    def _bracket(a, b):
        return a._make({})  # entries of the default ring (polynomials) commute

    @classmethod
    def identity(cls, registry: SymbolRegistry, dim: int, factor=None):
        one = factor if factor is not None else registry.const(ONE)
        zero = registry.zero()
        return cls(
            registry, [[one if r == c else zero for c in range(dim)] for r in range(dim)]
        )

    @classmethod
    def zeros(cls, registry: SymbolRegistry, dim: int):
        return cls(registry, [[registry.zero()] * dim for _ in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int):
        return self.rows[r][c]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    def _check(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if self.dim != other.dim or self.registry != other.registry:
            raise ShapeError("matrix dimensions or registries do not match")

    def __add__(self, other):
        self._check(other)
        return type(self)(
            self.registry,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return type(self)(self.registry, [[-e for e in row] for row in self.rows])

    def __sub__(self, other):
        self._check(other)
        return type(self)(
            self.registry,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __matmul__(self, other):
        self._check(other)
        n = self.dim
        out = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = self._times(self.rows[r][0], other.rows[0][c])
                for k in range(1, n):
                    acc = acc + self._times(self.rows[r][k], other.rows[k][c])
                row.append(acc)
            out.append(row)
        return type(self)(self.registry, out)

    def commutator(self, other):
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
                acc = self._bracket(A[r][r], B[r][r]) if r == c else None
                for k in range(n):
                    if k == r == c:
                        continue
                    term = self._times(A[r][k], B[k][c]) - self._times(B[r][k], A[k][c])
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        return type(self)(self.registry, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.registry == other.registry
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.registry, self.rows))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"

    def __repr__(self):
        return f"{type(self).__name__}({self})"
