"""Parsing and rendering of plain-text structure-constant files."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galkappa import algfile
from galkappa.algfile import bundled_names, dumps, load, load_bundled, loads
from galkappa.cocycle import LieAlgebraSpec
from galkappa.errors import AlgebraFileError
from galkappa.exactscalar import Scalar

GOOD = """\
# rotation acting on a planar doublet
generators: J P1 P2

[J, P1] = i*P2   # trailing comment
[J, P2] = -i*P1
[P1, P2] = 0
"""


def test_loads_basic():
    spec = loads(GOOD)
    assert spec.names == ("J", "P1", "P2")
    i = Scalar(0, 1)
    assert spec.brackets == {(0, 1): {2: i}, (0, 2): {1: -i}}


def test_reversed_pair_flips_sign():
    forward = loads("generators: J P1 P2\n[J, P1] = i*P2\n")
    reverse = loads("generators: J P1 P2\n[P1, J] = -i*P2\n")
    assert forward.brackets == reverse.brackets


def test_stated_pairs_keep_file_order_orientation_and_zero_rows():
    text = (
        "generators: A B C D\n"
        "[C, A] = B\n"
        "[A, B] = 0\n"
        "# a comment claims nothing\n"
        "[B, D] = i*A\n"
        "[D, C] = 0\n"
    )
    spec = loads(text)
    i = Scalar(0, 1)
    assert spec.stated == ((2, 0), (0, 1), (1, 3), (3, 2))
    assert spec.brackets == {(0, 2): {1: Scalar(-1)}, (1, 3): {0: i}}
    assert spec.bracket(2, 0) == {1: Scalar(1)}  # the stated orientation reads back
    # a spec built in code states its nonzero pairs i < j, sorted
    built = LieAlgebraSpec(("A", "B", "C", "D"),
                           {(1, 3): {0: i}, (0, 2): {1: Scalar(-1)}, (0, 1): {}})
    assert built.stated == ((0, 2), (1, 3))
    # restating a pair still errors with both line numbers
    with pytest.raises(AlgebraFileError) as err:
        loads(text + "[A, C] = B\n")
    assert err.value.line == 7 and "already given on line 2" in str(err.value)
    # dumps is unchanged: canonical pair order, nonzero pairs only
    assert dumps(spec) == "generators: A B C D\n[A, C] = -B\n[B, D] = i*A\n"
    assert dumps(spec) == dumps(built)


def test_terms_accumulate_and_cancel():
    spec = loads("generators: A B C\n[A, B] = i*C + 2*C\n[A, C] = B - B\n")
    assert spec.brackets == {(0, 1): {2: Scalar(2, 1)}}


def test_coefficient_literals():
    spec = loads("generators: A B C\n[A, B] = -1/2*C + 3/4*i*B\n")
    assert spec.brackets[(0, 1)] == {
        1: Scalar(0, Fraction(3, 4)),
        2: Scalar(Fraction(-1, 2)),
    }


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("[J, P1] = i*P2\n", 1, "generators"),
        ("generators: J 3x\n", 1, "bad generator name"),
        ("generators: J i\n", 1, "reserved"),
        ("generators: J J\n", 1, "duplicate generator"),
        ("generators:\n", 1, "empty generator list"),
        ("generators: A B\nnot a bracket\n", 2, "unrecognized line"),
        ("generators: A B\n[A, Q] = 0\n", 2, "unknown generator 'Q'"),
        ("generators: A B\n[A, B] = Q\n", 2, "unknown generator 'Q'"),
        ("generators: A B\n[A, A] = 0\n", 2, "self-bracket"),
        ("generators: A B\n[A, B] = B\n[B, A] = -B\n", 3, "already given on line 2"),
        ("generators: A B\n[A, B] = 2**B\n", 2, "malformed term"),
        ("generators: A B\n[A, B] = q*B\n", 2, "q"),
        # a sign that precedes no term
        ("generators: A B C\n[A, B] = +\n", 2, "malformed term"),
        ("generators: A B C\n[A, B] = -\n", 2, "malformed term"),
        ("generators: A B C\n[A, B] = C +\n", 2, "malformed term"),
        ("generators: A B C\n[A, B] = C+\n", 2, "malformed term"),
        ("generators: A B C\n[A, B] = +-C\n", 2, "malformed term"),
        ("generators: A B C\n[A, B] = --B\n", 2, "malformed term"),
        # digits are ASCII
        ("generators: A B\n[A, B] = \u0661*A\n", 2, "malformed scalar literal"),
        ("generators: A B\n[A, B] = 1/\u0662*A\n", 2, "malformed scalar literal"),
        ("generators: A B\n[A, B] = 1/0*A\n", 2, "zero denominator"),
    ],
)
def test_error_reports_carry_line_numbers(text, line, fragment):
    with pytest.raises(AlgebraFileError) as err:
        loads(text)
    assert err.value.line == line
    assert fragment in str(err.value)
    assert f"line {line}:" in str(err.value)


def test_empty_file_rejected():
    with pytest.raises(AlgebraFileError) as err:
        loads("# nothing here\n\n")
    assert "no 'generators:'" in str(err.value)


def test_dumps_round_trip():
    text = (
        "generators: A B C D\n"
        "[A, B] = C\n"
        "[A, C] = -D\n"
        "[B, C] = 2*i*A - 1/2*D\n"
    )
    spec = loads(text)
    again = loads(dumps(spec))
    assert again.names == spec.names
    assert again.brackets == spec.brackets
    # canonical rendering is stable under a second pass
    assert dumps(again) == dumps(spec)


def test_dumps_writes_complex_coefficients_as_two_terms():
    spec = LieAlgebraSpec(("A", "B", "C"), {(0, 1): {2: Scalar(Fraction(-1, 2), 3)}})
    text = dumps(spec)
    assert text.splitlines()[1] == "[A, B] = -1/2*C + 3*i*C"
    assert loads(text).brackets == spec.brackets


_letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghjklmnopqrstuvwxyz"
_names = st.lists(
    st.builds(str.__add__, st.sampled_from(_letters),
              st.text(_letters + "0123456789_i", max_size=3)),
    min_size=1, max_size=6, unique=True,
)
_parts = st.fractions(min_value=-20, max_value=20, max_denominator=9)
_coeffs = st.builds(Scalar, _parts, _parts).filter(lambda c: not c.is_zero)


@st.composite
def _specs(draw):
    names = draw(_names)
    n = len(names)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    rhs = st.dictionaries(st.integers(0, n - 1), _coeffs, min_size=1, max_size=3)
    brackets = draw(st.dictionaries(pairs, rhs, max_size=n * (n - 1) // 2))
    return LieAlgebraSpec(names, brackets)


@settings(max_examples=100, deadline=None)
@given(_specs())
def test_dumps_loads_round_trip_on_random_specs(spec):
    again = loads(dumps(spec))
    assert again.names == spec.names
    assert again.brackets == spec.brackets
    assert again.stated == spec.stated


def test_load_from_disk(tmp_path):
    path = tmp_path / "toy.alg"
    path.write_text(GOOD)
    spec = load(path)
    assert spec.names == ("J", "P1", "P2")


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_files_are_utf8_with_an_optional_byte_order_mark(bom, tmp_path, monkeypatch):
    (tmp_path / "toy.alg").write_bytes(bom + ("# \u00e9\n" + GOOD).encode("utf-8"))
    monkeypatch.setattr(algfile, "_DATA", tmp_path)
    for spec in (load(tmp_path / "toy.alg"), load_bundled("toy")):
        assert spec.names == ("J", "P1", "P2")
        assert spec.brackets == loads(GOOD).brackets


def test_bundled_inventory():
    names = bundled_names()
    for expected in (
        "abelian4",
        "galilei_1d",
        "galilei_3p1",
        "planar_galilei",
        "planar_galilei_central",
        "planar_galilei_central_literal",
        "planar_galilei_literal",
        "planar_galilei_mass",
        "planar_gca",
        "so3",
    ):
        assert expected in names


def test_load_bundled_accepts_suffix():
    bare = load_bundled("planar_galilei")
    suffixed = load_bundled("planar_galilei.alg")
    assert bare.names == suffixed.names
    assert bare.brackets == suffixed.brackets
    assert set(bare.names) == {"H", "J", "K1", "K2", "P1", "P2"}


def test_load_bundled_unknown_lists_choices():
    with pytest.raises(AlgebraFileError) as err:
        load_bundled("euclidean_affine")
    msg = str(err.value)
    assert "available" in msg and "planar_galilei" in msg


# -- the one-match term reader against the piece-by-piece checks ---------------

_space = st.sampled_from(["", " ", "  ", "\t"])
_digits = st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(0, 10**6))
_positive = st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(1, 999))
_rational = st.one_of(_digits, st.builds(lambda n, d: f"{n}/{d}", _digits, _positive))


@st.composite
def _terms(draw):
    """A term of the grammar: optional coefficient, then a name, spaced freely."""
    star = draw(_space) + "*" + draw(_space)
    coeff = draw(st.one_of(
        st.just(""),
        _rational.map(lambda r: r + star),
        _rational.map(lambda r: r + star + "i" + star),
        st.just("i" + star),
    ))
    name = draw(st.one_of(
        st.builds(str.__add__, st.sampled_from(_letters + "i"),
                  st.text(_letters + "0123456789_i", max_size=3)),
        st.sampled_from(["i2", "iX", "i_", "X"]),
    ))
    return draw(_space) + coeff + name + draw(_space)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "+", "-"]), _terms())
def test_one_match_term_reader_agrees_with_the_checks(sign, body):
    assert algfile._TERM.fullmatch(body) is not None
    coeff, name = algfile._parse_term(sign, body, 1)
    expected = algfile._checked_term(sign, body, 1)
    assert (coeff, name) == expected
    assert coeff._abd == expected[0]._abd and hash(coeff) == hash(expected[0])


@pytest.mark.parametrize("body, coeff, name", [
    ("007*C", Scalar(7), "C"),
    ("3/04*C", Scalar(Fraction(3, 4)), "C"),
    ("2*i*C", Scalar(0, 2), "C"),
    ("i*C", Scalar(0, 1), "C"),
    ("i2", Scalar(1), "i2"),
    ("0*X", Scalar(0), "X"),
    (" 2 * C ", Scalar(2), "C"),
    ("1/2 * i * C", Scalar(0, Fraction(1, 2)), "C"),
])
def test_term_reader_examples(body, coeff, name):
    assert algfile._parse_term("", body, 1) == (coeff, name)
    assert algfile._parse_term("-", body, 1) == (-coeff, name)


def test_spaced_terms_load():
    spec = loads("generators: A B C\n[A, B] = 2 * C - 1/2 *i* A\n")
    assert spec.brackets == {(0, 1): {2: Scalar(2), 0: Scalar(0, Fraction(-1, 2))}}
