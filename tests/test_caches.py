"""The per-process caches: what each may be keyed by, and that use never changes them.

Every `lru_cache` under `src/galkappa` holds an object that no user input
reaches: the symbol registry, the spinless generators, a bracket table's
stated rows, a parsed current, a constant matrix, the on-shell rules of
a spin label.  An `ast` walk lists them and checks that each takes only a
table or variant name, a spin label, or (name, j, s), so no cache is keyed
by a user number, an operator or a verdict, and none grows with its input.
`clear_caches` empties every listed cache, for the tests that count the
work of a command's first run.
"""

import ast
import importlib
import io
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import galkappa
from galkappa import MODELS, galrealize
from galkappa.algfile import load_bundled
from galkappa.cli import main
from galkappa.exactscalar import HALF, I, NEG_I, SymbolRegistry
from galkappa.galrealize import (
    REALIZE_SYMBOLS,
    make_registry,
    realize,
    spinless_generators,
    stated_rows,
)
from galkappa.weylop import ZERO_IDX, DiffOp, ScalarDiffOp

PACKAGE_DIR = os.path.dirname(galkappa.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))

# the parameter lists a cached function may have: none (one object per
# process), a table or variant name, a spin label, or a current term's
# matrix name, flux index and spin label
ALLOWED_PARAMETERS = {(), ("name",), ("variant",), ("s",), ("name", "j", "s")}
CACHE_DECORATORS = {"lru_cache", "cache"}


def _decorator_name(node):
    """The name a decorator or its call refers to: `lru_cache`, `functools.cache`, ..."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def cached_functions(source):
    """([(function, parameters)], [line of every other use of a cache decorator])."""
    tree = ast.parse(source)
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if _decorator_name(deco) in CACHE_DECORATORS:
                    decorators.add(id(deco.func if isinstance(deco, ast.Call) else deco))
                    args = node.args
                    params = tuple(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs)
                    if args.vararg or args.kwarg:
                        params += ("*",)  # a call may pass any further key
                    found.append((node.name, params))
    other = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute))
                    and _decorator_name(node) in CACHE_DECORATORS
                    and id(node) not in decorators
                    and not isinstance(getattr(node, "ctx", None), ast.Store)})
    return found, other


def _read(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
        return fh.read()


def package_caches():
    """{(module, function): parameters} of every cached function in the package."""
    return {(module[:-3], name): params
            for module in MODULES for name, params in cached_functions(_read(module))[0]}


def clear_caches():
    """Empty every per-process cache, so the next command builds its objects anew."""
    for module, name in package_caches():
        getattr(importlib.import_module(f"galkappa.{module}"), name).cache_clear()


@pytest.mark.parametrize("module", MODULES)
def test_every_cache_is_keyed_by_a_name_or_spin_only(module):
    found, other = cached_functions(_read(module))
    bad = {name: params for name, params in found if params not in ALLOWED_PARAMETERS}
    assert not bad, f"{module} caches functions of other inputs: {bad}"
    # a cache applied other than as a decorator escapes the check above
    assert not other, f"{module} uses a cache decorator outside a decorator list: {other}"


def test_the_package_caches_are_listed():
    assert package_caches() == {
        ("galrealize", "make_registry"): (),
        ("galrealize", "spinless_generators"): (),
        ("galrealize", "stated_rows"): ("name",),
        ("fieldcheck", "_eom_rules"): ("s",),
        ("fieldcheck", "_matrix_value"): ("name", "j", "s"),
        ("fieldcheck", "_parsed_current"): ("variant",),
    }


def test_the_check_sees_a_cache_of_another_input():
    source = ("import functools\nfrom functools import lru_cache, cache\n"
              "@lru_cache(maxsize=None)\ndef table(name): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef value(m, t): pass\n"
              "@cache\ndef spin(s, *rest): pass\n"
              "@lru_cache\ndef pick(*, name, **more): pass\n"
              "def f(op): pass\nwrapped = lru_cache(maxsize=None)(f)\n")
    found, other = cached_functions(source)
    assert found == [("table", ("name",)), ("value", ("m", "t")), ("spin", ("s", "*")),
                     ("pick", ("name", "*"))]
    assert other == [12]


# -- the shared objects are never changed by use ---------------------------------


def _expected_generators(model, s, N):
    """The generators of `realize(model, s, N)`, built here over a registry of their own."""
    reg = SymbolRegistry(REALIZE_SYMBOLS, invertible={"m"})
    x1, x2, t, m = (reg.symbol(n) for n in ("x1", "x2", "t", "m"))
    spin = {"schrodinger": 0, "levyleblond": Fraction(s, 2),
            "multispinor": Fraction(N * s, 2)}[model]
    half_inv_m = reg.const(HALF).div_symbol("m")
    it = reg.const(I) * t
    ops = {
        "P1": ScalarDiffOp.deriv(reg, (1, 0, 0), reg.const(NEG_I)),
        "P2": ScalarDiffOp.deriv(reg, (0, 1, 0), reg.const(NEG_I)),
        "H": ScalarDiffOp(reg, {(2, 0, 0): -half_inv_m, (0, 2, 0): -half_inv_m}),
        "J": ScalarDiffOp(reg, {(0, 1, 0): NEG_I * x1, (1, 0, 0): I * x2,
                                ZERO_IDX: reg.const(spin)}),
        "K1": ScalarDiffOp(reg, {ZERO_IDX: m * x1, (1, 0, 0): it}),
        "K2": ScalarDiffOp(reg, {(0, 1, 0): it, ZERO_IDX: m * x2}),
        "M": ScalarDiffOp.coeff(m),
    }
    return {name: DiffOp.scalar(op) for name, op in ops.items()}


COMMANDS = [
    ["realize", "schrodinger"],
    ["realize", "levyleblond", "--spin-s", "-1", "--lambda", "lam", "--shift", "c"],
    ["realize", "multispinor", "--rank", "3", "--lambda", "2/3", "--shift=-1/4"],
    ["realize", "levyleblond", "--strict-literal-table", "--shift", "c"],
    ["fieldcheck", "conservation"],
    ["fieldcheck", "conservation", "--variant", "literal", "--index", "2"],
    ["fieldcheck", "boost"],
    ["fieldcheck", "rotation"],
    ["fieldcheck", "multispinor-eqs", "--rank", "4"],
    ["numcheck", "--model", "multispinor", "--rank", "2", "--nmax", "8", "--low", "3"],
]


def test_use_leaves_the_shared_objects_as_built():
    clear_caches()
    with redirect_stdout(io.StringIO()):
        for argv in COMMANDS:
            assert main(argv) in (0, 1), argv
    assert make_registry() is make_registry()
    for name, want in _expected_generators("schrodinger", 1, 1).items():
        got = spinless_generators()[name]
        assert got == want and hash(got) == hash(want) and str(got) == str(want), name
    for model in MODELS:
        for s in (1, -1):
            for N in (1, 2, 3, 4):
                g = realize(model, s, N)
                assert g.registry is make_registry()
                want = _expected_generators(model, s, N)
                assert list(g.gens) == list(want)
                for name, op in want.items():
                    got = g[name]
                    assert got == op and hash(got) == hash(op) and str(got) == str(op), (
                        model, s, N, name)
    for table, fname in galrealize._TABLE_FILES.items():
        spec = load_bundled(fname)
        names = spec.names
        assert stated_rows(table) == tuple(
            (names[i], names[j], tuple((names[k], c) for k, c in spec.bracket(i, j).items()))
            for i, j in spec.stated)


def test_realize_returns_a_generator_set_of_its_own():
    g = realize("schrodinger", 1, 1)
    g.gens["J"] = g["H"]
    assert realize("schrodinger", 1, 1)["J"] == spinless_generators()["J"]
    assert spinless_generators()["J"] != g["H"]
