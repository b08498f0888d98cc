"""Free-field generator sets, their check against a bundled bracket table, and kappa.

`realize(model, s, N)` alone builds generators.  Every model is the free
field on its single independent component, where the Hamiltonian is the
free quadratic operator; spin enters only as the constant in the rotation
generator J: 0 (schrodinger), s/2 (levyleblond) or N*s/2 (multispinor).
The boosts carry the explicit time symbol, and every bracket must hold
identically in t.

Three objects depend on no input, so each is built on first use and then
shared for the rest of the process: the one symbol registry, the seven
spinless generators (a `realize` call adds only its spin constant to J)
and each bracket table's stated rows.  Every bracket is still computed on
every call; callers only read the shared objects.

The generator updates build trusted results: J's spin constant and
lambda enter as a coordinate-free multiple of the identity, which needs
none of the constructors' checks, and `kappa_shift` scales P2 by c/2m and
P1 by its negation, one `scale` per boost, after `_parameter`'s mass and
coordinate-free checks.  `verify_structure` forms, for a passing row, its
bracket and that bracket's text only (see there).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from . import MODELS
from .algfile import load_bundled
from .cocycle import LieAlgebraSpec
from .errors import BadMass, BadParameter, BadRank, BadSpin, GalkappaError, NotCentral
from .exactscalar import HALF, I, NEG_I, PolyExpr, Scalar, SymbolRegistry
from .weylop import COORDS, ZERO_IDX, DiffOp, ScalarDiffOp

GENERATOR_NAMES = ("P1", "P2", "H", "J", "K1", "K2", "M")
CENTRAL_NAME = "kappa"

REALIZE_SYMBOLS = ("c", "lam", "m", "t", "v1", "v2", "x1", "x2")

TABLE_CORRECTED = "corrected"
TABLE_LITERAL = "literal"


def check_spin(s: int) -> int:
    if s not in (1, -1):
        raise BadSpin(f"spin label must be +1 or -1, got {s!r}")
    return s


def check_rank(N: int) -> int:
    if not isinstance(N, int) or not 1 <= N <= 4:
        raise BadRank(f"rank must be an integer in 1..4, got {N!r}")
    return N


def check_coordinate_free(value: PolyExpr, what: str) -> PolyExpr:
    if value.uses_symbols(COORDS):
        raise BadParameter(f"{what} must be coordinate-free")
    return value


@lru_cache(maxsize=None)
def make_registry() -> SymbolRegistry:
    """The symbol registry of every realization, made once per process; only m is invertible."""
    return SymbolRegistry(REALIZE_SYMBOLS, invertible={"m"})


class GeneratorSet:
    """Named generators, all of one dimension."""

    def __init__(self, gens: Dict[str, DiffOp]):
        if len({op.dim for op in gens.values()}) != 1:
            raise GalkappaError("generators must share one dimension")
        self.gens = dict(gens)

    def __getitem__(self, name: str) -> DiffOp:
        return self.gens[name]

    @property
    def registry(self) -> SymbolRegistry:
        return next(iter(self.gens.values())).registry

    @property
    def dim(self) -> int:
        return next(iter(self.gens.values())).dim

    def replaced(self, updates: Dict[str, DiffOp]) -> "GeneratorSet":
        return GeneratorSet({**self.gens, **updates})


@lru_cache(maxsize=None)
def spinless_generators() -> GeneratorSet:
    """The seven generators with no spin constant in J, built once per process.

    `realize` and the fieldcheck boost and rotation read them; none changes them.
    """
    reg = make_registry()
    x1, x2, t, m = (reg.symbol(n) for n in ("x1", "x2", "t", "m"))
    neg_i = reg.const(NEG_I)
    P1 = DiffOp.scalar(ScalarDiffOp.deriv(reg, (1, 0, 0), neg_i))
    P2 = DiffOp.scalar(ScalarDiffOp.deriv(reg, (0, 1, 0), neg_i))
    half_inv_m = reg.const(HALF).div_symbol("m")
    H = DiffOp.scalar(ScalarDiffOp(reg, {(2, 0, 0): -half_inv_m, (0, 2, 0): -half_inv_m}))
    J = DiffOp.scalar(ScalarDiffOp(reg, {(0, 1, 0): NEG_I * x1, (1, 0, 0): I * x2}))
    it = reg.const(I) * t
    K1 = DiffOp.scalar(ScalarDiffOp(reg, {ZERO_IDX: m * x1, (1, 0, 0): it}))
    K2 = DiffOp.scalar(ScalarDiffOp(reg, {(0, 1, 0): it, ZERO_IDX: m * x2}))
    M = DiffOp.scalar(ScalarDiffOp.coeff(m))
    return GeneratorSet({"P1": P1, "P2": P2, "H": H, "J": J, "K1": K1, "K2": K2, "M": M})


def realize(model: str, s: int, N: int) -> GeneratorSet:
    """The generators of a named model; model, spin and rank are checked for every model.

    All models share the spinless one-component operators; the spin label s
    and the rank N enter only as the constant added to J.
    """
    if model not in MODELS:
        raise BadParameter(f"unknown model {model!r}; choose from {MODELS}")
    check_spin(s)
    check_rank(N)
    spin = HALF * {"schrodinger": 0, "levyleblond": s, "multispinor": N * s}[model]
    base = spinless_generators()
    J = base["J"]
    return base.replaced({"J": J + _times_identity(J, base.registry.const(spin))})


def _parameter(g: GeneratorSet, value, what: str) -> PolyExpr:
    """value over g's registry; BadMass unless M is m * Id, BadParameter if it has a coordinate."""
    if central_scalar(g["M"]) != g.registry.symbol("m"):
        raise BadMass("mass generator is not m times the identity")
    return check_coordinate_free(g.registry.zero() + value, what)


def extend_lambda(g: GeneratorSet, lam) -> GeneratorSet:
    """Shift the rotation generator by a constant: J -> J + lam * Id."""
    lam = _parameter(g, lam, "lambda")
    J = g["J"]
    return g.replaced({"J": J + _times_identity(J, lam)})


def kappa_shift(g: GeneratorSet, c) -> GeneratorSet:
    """Redefine the boosts: K1 += (c/2m) P2, K2 -= (c/2m) P1."""
    factor = (_parameter(g, c, "shift parameter") * HALF).div_symbol("m")
    return g.replaced({"K1": g["K1"] + g["P2"].scale(factor),
                       "K2": g["K2"] + g["P1"].scale(-factor)})


def _times_identity(like: DiffOp, q: PolyExpr) -> DiffOp:
    """q * Id in like's registry and dimension, for a coordinate-free q over that registry.

    Such a q is within every guard, so the entries and the matrix are built
    without the constructors' checks.
    """
    corner, n = like.entry(0, 0), like.dim
    diag, zero = corner._make({ZERO_IDX: q} if q._terms else {}), corner._make({})
    return like._make(tuple([tuple([diag if r == c else zero for c in range(n)])
                             for r in range(n)]))


def central_scalar(op: DiffOp) -> Optional[PolyExpr]:
    """If op == q*Id with q coordinate-free, return q; otherwise None.

    q is the constant term of the corner entry; op equals q*Id exactly
    when every entry's term map is {0: q} on the diagonal (empty for q = 0)
    and empty off it.
    """
    q = op.entry(0, 0).coefficient(ZERO_IDX)
    if q.uses_symbols(COORDS):
        return None
    diag = {ZERO_IDX: q} if q._terms else {}
    for r, row in enumerate(op.rows):
        for c, e in enumerate(row):
            if (e._terms != diag) if r == c else e._terms:
                return None
    return q


def _central_over_i(op: DiffOp) -> Optional[PolyExpr]:
    """q when op == i * q * Id with q coordinate-free; otherwise None."""
    q = central_scalar(op)
    return None if q is None else q * NEG_I


def extract_kappa(g: GeneratorSet) -> PolyExpr:
    """The second extension parameter, read off [K1, K2] = i * kappa * Id."""
    kappa = _central_over_i(g["K1"].commutator(g["K2"]))
    if kappa is None:
        raise NotCentral("[K1, K2] is not a constant multiple of the identity")
    return kappa


# each table name -> the bundled algebra file that states its rows
_TABLE_FILES = {
    TABLE_CORRECTED: "planar_galilei_central",
    TABLE_LITERAL: "planar_galilei_central_literal",
}

_LITERAL_NOTE = (
    "literal variant pins this bracket to zero; every bundled realization "
    "produces the momentum row here"
)
# the note a report prints with a row, keyed by table name and stated pair
_ROW_NOTES = {
    (TABLE_LITERAL, "K1", "H"): _LITERAL_NOTE,
    (TABLE_LITERAL, "K2", "H"): _LITERAL_NOTE,
}


def realization_table(name: str) -> LieAlgebraSpec:
    """The bundled bracket table named `name` ("corrected" or "literal"), parsed anew."""
    if name not in _TABLE_FILES:
        raise ValueError(f"unknown table variant {name!r}")
    return load_bundled(_TABLE_FILES[name])


@lru_cache(maxsize=None)
def stated_rows(name: str) -> Tuple[Tuple[str, str, Tuple[Tuple[str, Scalar], ...]], ...]:
    """Each row table `name` states, as (lhs, rhs, ((generator, coefficient), ...)).

    The rows are read off `realization_table(name)` once per process, in its
    stated order with each bracket's terms in table order.
    """
    spec = realization_table(name)
    names = spec.names
    return tuple((names[i], names[j], tuple((names[k], c) for k, c in spec.bracket(i, j).items()))
                 for i, j in spec.stated)


class RowResult:
    __slots__ = ("lhs", "rhs", "computed", "expected", "residual", "passed", "note")

    def __init__(self, lhs: str, rhs: str, computed: str, expected: str, residual: str,
                 passed: bool, note: Optional[str] = None):
        self.lhs = lhs
        self.rhs = rhs
        self.computed = computed
        self.expected = expected
        self.residual = residual
        self.passed = passed
        self.note = note

    def to_dict(self):
        out = {
            "pair": f"[{self.lhs},{self.rhs}]",
            "computed": self.computed,
            "expected": self.expected,
            "residual": self.residual,
            "passed": self.passed,
        }
        if self.note:
            out["note"] = self.note
        return out


class StructureReport:
    """The rows of one table check, and the kappa and mass read off them.

    `kappa_text` and `mass_text` are the two values as printed (None for no
    value), rendered once here for the report, its checks and stdout.  The
    values and their texts are read-only, so they cannot disagree.
    """

    __slots__ = ("table", "rows", "_kappa", "_mass", "_kappa_text", "_mass_text")

    def __init__(self, table: str, rows: Optional[List[RowResult]] = None,
                 kappa: Optional[PolyExpr] = None, mass: Optional[PolyExpr] = None):
        self.table = table
        self.rows = [] if rows is None else rows
        self._kappa = kappa
        self._mass = mass
        self._kappa_text = None if kappa is None else str(kappa)
        self._mass_text = None if mass is None else str(mass)

    @property
    def kappa(self) -> Optional[PolyExpr]:
        return self._kappa

    @property
    def mass(self) -> Optional[PolyExpr]:
        return self._mass

    @property
    def kappa_text(self) -> Optional[str]:
        return self._kappa_text

    @property
    def mass_text(self) -> Optional[str]:
        return self._mass_text

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.rows)

    def failing_rows(self) -> List[RowResult]:
        return [r for r in self.rows if not r.passed]

    def to_dict(self):
        return {
            "table": self.table,
            "overall": self.overall,
            "kappa": self.kappa_text,
            "mass": self.mass_text,
            "rows": [r.to_dict() for r in self.rows],
        }


def _right_hand_side(gens: Dict[str, DiffOp], row_expected, kappa: Optional[PolyExpr],
                     like: DiffOp) -> DiffOp:
    """A stated row's right-hand side: its generators scaled by their coefficients, and
    kappa times the identity, summed in table order without the constructors' checks."""
    expected = None
    for name, coeff in row_expected:
        term = (_times_identity(like, kappa * coeff) if name == CENTRAL_NAME
                else gens[name].scale(coeff))
        expected = term if expected is None else expected + term
    return expected


def verify_structure(g: GeneratorSet, table: str = TABLE_CORRECTED) -> StructureReport:
    """Check every row the named table states against the realized generators.

    A row is decided by canonical equality: it passes exactly when the
    computed bracket and the table's right-hand side have equal term maps.
    A failing row in the report is a statement about the realization (or
    about the table variant), never a silently skipped check.  Both tables
    are bundled algebra files, Jacobi-checked by the test suite, and both
    state the [K1,K2] and [K1,P1] rows that kappa and the mass are read from.

    One pass over the rows forms, for a passing row, only its bracket's
    text: a row stated zero passes exactly when its bracket is zero, whose
    text, like the zero residual's, follows from the dimension alone
    (`DiffOp.zero_text`).  Every other row is decided by `==` against its
    right-hand side, a sum of generators scaled by table coefficients and
    of kappa times the identity, built without the constructors' checks;
    the expected text and the residual are formed only for a failing row.
    """
    rows = stated_rows(table)
    gens = g.gens
    # each row's bracket is computed once; kappa and the mass are read off
    # the [K1,K2] and [K1,P1] rows, which both tables state
    computed_by_pair = {(lhs, rhs): gens[lhs].commutator(gens[rhs]) for lhs, rhs, _ in rows}
    kappa = _central_over_i(computed_by_pair[("K1", "K2")])
    mass = _central_over_i(computed_by_pair[("K1", "P1")])

    zero_text = DiffOp.zero_text(g.dim)
    results = []
    for lhs, rhs, row_expected in rows:
        computed = computed_by_pair[(lhs, rhs)]
        note = _ROW_NOTES.get((table, lhs, rhs))
        if not row_expected:
            expected = None
            passed = computed.is_zero
        elif kappa is None and any(name == CENTRAL_NAME for name, _ in row_expected):
            text = str(computed)
            results.append(RowResult(lhs, rhs, text, "central multiple of Id", text, False,
                                     "bracket is not central; no kappa value exists"))
            continue
        else:
            expected = _right_hand_side(gens, row_expected, kappa, computed)
            passed = computed == expected
        if passed:
            text = str(computed) if row_expected else zero_text
            results.append(RowResult(lhs, rhs, text, text, zero_text, True, note))
        elif expected is None:
            text = str(computed)
            results.append(RowResult(lhs, rhs, text, zero_text, text, False, note))
        else:
            results.append(RowResult(lhs, rhs, str(computed), str(expected),
                                     str(computed - expected), False, note))
    return StructureReport(table, results, kappa, mass)
