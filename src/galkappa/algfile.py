"""Plain-text algebra files: generator list plus exact structure constants.

Format of a UTF-8 file (a byte-order mark is skipped), line by line (``#``
starts a comment, blank lines are skipped):

    generators: P1 P2 H J K1 K2
    [J, P1] = i*P2
    [K1, H] = i*P1
    [P1, P2] = 0

The first significant line declares the generator names (identifiers; the
name ``i`` is reserved for the imaginary unit).  Each following line fixes
one bracket.  Coefficients are exact scalar literals (``3``, ``-1/2``,
``i``, ``2*i``, ``3/4*i``, ASCII digits only), the one grammar `exactscalar`
defines; a bare name means coefficient 1.  Every sign must precede a term.
Unstated brackets vanish.
Restating a pair in either order is an error, as is a self-bracket or an
unknown name; errors carry the offending line number.
The pairs as the file states them, in its order and orientation and with
its ``= 0`` lines, are kept in the spec's ``stated``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple

from . import DATA_DIR, bundled_names
from .cocycle import LieAlgebraSpec
from .errors import AlgebraFileError
from .exactscalar import ONE, Scalar, _LITERAL, _literal_value, accumulate, parse_scalar

_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_BRACKET = re.compile(r"^\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*=\s*(.+)$")
_SIGN = re.compile(r"([+-])")
# A well-formed term body: an optional exact literal followed by `*`, then a
# name; names are ASCII, and whitespace may surround the body and each `*`,
# as str.strip() allows.
_TERM = re.compile(r"\s*(?:" + _LITERAL + r"\s*\*\s*)?(?P<name>[A-Za-z][A-Za-z0-9_]*)\s*")
# The bundled files ship as plain files in the package directory.  A path is
# used rather than importlib.resources, whose reader for this namespace
# package lists the directory on every lookup; `load_bundled` reads its file
# on every call (`realize` keeps the two tables it checks against cached).
# `bundled_names` is defined with the package, so that listing the files
# loads no parser.
_DATA = Path(DATA_DIR)
_MINUS_ONE = -ONE


def _split_terms(rhs: str) -> List[Tuple[str, str]]:
    """Split a stripped bracket right-hand side into (sign, body) chunks.

    Every sign opens a chunk, so a sign with no term after it leaves an
    empty body, which `_parse_term` rejects.
    """
    parts = _SIGN.split(rhs)
    head = parts[0]
    terms = [("", head)] if head else []
    terms += zip(parts[1::2], parts[2::2])
    return terms


def _parse_term(sign: str, body: str, line_no: int) -> Tuple[Scalar, str]:
    """The signed coefficient and generator name of one term.

    A well-formed term is read by one match; any other term (and a zero
    denominator) goes through `_checked_term`, which says what is wrong.
    """
    m = _TERM.fullmatch(body)
    if m is not None:
        num, den, imag, unit, name = m.groups()
        if num is None and unit is None:  # a bare name: coefficient 1
            return (_MINUS_ONE if sign == "-" else ONE), name
        coeff = _literal_value(sign, num, den, imag)
        if coeff is not None:
            return coeff, name
    return _checked_term(sign, body, line_no)


def _checked_term(sign: str, body: str, line_no: int) -> Tuple[Scalar, str]:
    """`_parse_term` piece by piece: the error names what is wrong with a term."""
    body = body.strip()
    if not body:
        raise AlgebraFileError(f"malformed term {sign!r}: no term after the sign",
                               line=line_no)
    pieces = [p.strip() for p in body.split("*")]
    if any(not p for p in pieces):
        raise AlgebraFileError(f"malformed term {body!r}", line=line_no)
    name = pieces[-1]
    if len(pieces) == 1:
        coeff = ONE
    else:
        literal = "*".join(pieces[:-1])
        try:
            coeff = parse_scalar(literal)
        except ValueError as exc:
            raise AlgebraFileError(str(exc), line=line_no) from None
    if not _NAME.match(name):
        raise AlgebraFileError(f"bad generator reference {name!r}", line=line_no)
    return (-coeff if sign == "-" else coeff, name)


def loads(text: str) -> LieAlgebraSpec:
    """Parse an algebra file from a string."""
    names: List[str] = []
    index: Dict[str, int] = {}
    brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    # each claimed pair i < j -> (line number, the pair as stated), in file order
    seen_pairs: Dict[Tuple[int, int], Tuple[int, Tuple[int, int]]] = {}
    header_done = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_done:
            if not line.startswith("generators:"):
                raise AlgebraFileError(
                    "expected a 'generators:' declaration first", line=line_no
                )
            for name in line[len("generators:"):].split():
                if not _NAME.match(name):
                    raise AlgebraFileError(
                        f"bad generator name {name!r}", line=line_no
                    )
                if name == "i":
                    raise AlgebraFileError(
                        "generator name 'i' is reserved", line=line_no
                    )
                if name in index:
                    raise AlgebraFileError(
                        f"duplicate generator {name!r}", line=line_no
                    )
                index[name] = len(names)
                names.append(name)
            if not names:
                raise AlgebraFileError("empty generator list", line=line_no)
            header_done = True
            continue

        m = _BRACKET.match(line)
        if not m:
            raise AlgebraFileError(f"unrecognized line {line!r}", line=line_no)
        a_name, b_name, rhs = m.groups()
        for name in (a_name, b_name):
            if name not in index:
                raise AlgebraFileError(f"unknown generator {name!r}", line=line_no)
        a, b = index[a_name], index[b_name]
        if a == b:
            raise AlgebraFileError(
                f"self-bracket [{a_name},{a_name}] is identically zero", line=line_no
            )
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            raise AlgebraFileError(
                f"bracket for ({a_name},{b_name}) already given on line "
                f"{seen_pairs[pair][0]}",
                line=line_no,
            )
        seen_pairs[pair] = (line_no, (a, b))

        flip = a > b  # file states [b-th, a-th]; store the ordered pair
        rhs = rhs.strip()
        acc: Dict[int, Scalar] = {}
        if rhs != "0":
            for sign, body in _split_terms(rhs):
                coeff, name = _parse_term(sign, body, line_no)
                if name not in index:
                    raise AlgebraFileError(
                        f"unknown generator {name!r}", line=line_no
                    )
                accumulate(acc, index[name], -coeff if flip else coeff)
        if acc:
            brackets[pair] = acc

    if not header_done:
        raise AlgebraFileError("file has no 'generators:' declaration", line=1)
    return LieAlgebraSpec(names, brackets, [ab for _, ab in seen_pairs.values()])


def load(path) -> LieAlgebraSpec:
    """Parse an algebra file from disk: UTF-8, with or without a byte-order mark."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc.strerror or exc}") from None
    return loads(text)


def load_bundled(name: str) -> LieAlgebraSpec:
    """Load one of the algebras shipped with the package, by bare name."""
    fname = name if name.endswith(".alg") else f"{name}.alg"
    ref = _DATA / fname
    if not ref.is_file():
        raise AlgebraFileError(
            f"no bundled algebra {name!r}; available: {', '.join(bundled_names())}"
        )
    return load(ref)


def dumps(spec: LieAlgebraSpec) -> str:
    """Render a spec back to the file format (canonical pair order)."""
    lines = ["generators: " + " ".join(spec.names)]
    for (i, j) in spec.pairs():
        rhs = spec.brackets.get((i, j))
        if not rhs:
            continue
        chunks = []
        for k in sorted(rhs):
            # real and imaginary parts are separate terms: a literal has no inner sign
            for c in (Scalar(rhs[k].re), Scalar(0, rhs[k].im)):
                if c.is_zero:
                    continue
                text = str(c)
                if text == "1":
                    term = spec.names[k]
                elif text == "-1":
                    term = f"-{spec.names[k]}"
                else:
                    term = f"{text}*{spec.names[k]}"
                if chunks and not term.startswith("-"):
                    chunks.append("+ " + term)
                elif chunks:
                    chunks.append("- " + term[1:])
                else:
                    chunks.append(term)
        lines.append(f"[{spec.names[i]}, {spec.names[j]}] = " + " ".join(chunks))
    return "\n".join(lines) + "\n"
