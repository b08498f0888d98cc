"""Deterministic JSON reports for the command-line entry points.

Payloads are plain dictionaries of JSON-native values with str keys at every
level, rendered with sorted keys and no timestamps, so identical inputs
produce byte-identical files and ``json.loads(render(p)) == p`` holds.  The
rendered text is, byte for byte, ``json.dumps(p, sort_keys=True, indent=2) +
"\n"``; `render` forms it in one recursive pass, because with an indent the
standard encoder falls back from its C implementation to a much slower
generator-based one.  A key of any other type is a TypeError, where json
would write an int, float, bool or None key as a string.

The module does not import the json package: strings go through the C
escaper `_json.encode_basestring_ascii` that `json.encoder` re-exports, and
numbers follow json's own rule, so importing the CLI loads no json.  The
pieces of the text go onto one list, joined once.  Writing is opt-in via
the GALKAPPA_REPORT_DIR environment variable; without it the CLI only
prints.  A report is written as its ASCII bytes with one `os.open`,
`os.write` and `os.close`, truncating any older file of the name; a write
that takes fewer bytes than it is given is followed by one for the rest.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional

from .errors import BadParameter

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

REPORT_DIR_ENV = "GALKAPPA_REPORT_DIR"
# a report replaces any older file of its name
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def check_record(anchor: str, passed: bool, detail: dict) -> dict:
    """One named check inside a command payload."""
    return {"anchor": anchor, "passed": passed, "detail": detail}


def build_payload(command: str, checks: List[dict]) -> dict:
    from . import __version__

    return {
        "command": command,
        "passed": all(c["passed"] for c in checks),
        "checks": list(checks),
        "tool_version": __version__,
    }


# the text of each constant leaf; looked up only for a bool or None, never an int
_CONSTANTS = {True: "true", False: "false", None: "null"}
# json's spelling of the floats whose repr is not a JSON number
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(value, newline: str, out: list, escape=encode_basestring_ascii,
            constants=_CONSTANTS) -> None:
    """Append value as json.dumps writes it with sorted keys and indent 2, nested at newline.

    Every piece goes onto `out`, which `render` joins once.  A string, true,
    false or null item of a list or dict is written in the container's own
    loop, together with the separator and key before it; only a number or
    a nested container takes a call.  The defaults bind the escaper and the
    constants as locals.
    """
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(value):
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(f"{head}{escape(key)}: {escape(item)}")
            elif kind is bool or item is None:
                out.append(f"{head}{escape(key)}: {constants[item]}")
            else:
                out.append(f"{head}{escape(key)}: ")
                _encode(item, inner, out)
            head = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(head + escape(item))
            elif kind is bool or item is None:
                out.append(head + constants[item])
            else:
                out.append(head)
                _encode(item, inner, out)
            head = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(escape(value))
    elif type(value) is bool or value is None:
        out.append(constants[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(payload: dict) -> str:
    """The report text: json.dumps(payload, sort_keys=True, indent=2) plus a newline.

    Every dict key, at any depth, must be a str; any other key raises
    TypeError.  Numbers are written as json writes them: an int (not a bool)
    by `int.__repr__`, a float by `float.__repr__`, or as NaN, Infinity or
    -Infinity, subclasses included.  Any other leaf raises TypeError.
    """
    out: List[str] = []
    _encode(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def write(name: str, payload: dict) -> Optional[Path]:
    """Write payload under $GALKAPPA_REPORT_DIR/name.json if the var is set.

    The rendered text is ASCII, so its bytes go to the file through
    `os.open(O_WRONLY | O_CREAT | O_TRUNC)`, which replaces any older file
    of the name, in one `os.write` unless the system takes fewer bytes, in
    which case the rest follows in further writes.  The directory is made
    only when the file cannot be opened for lack of it, so a report into an
    existing directory costs one open.  A directory that cannot be made or a file
    that cannot be written is a BadParameter, so the CLI reports an input
    error.
    """
    directory = os.environ.get(REPORT_DIR_ENV)
    if not directory:
        return None
    out = Path(directory, f"{name}.json")
    data = render(payload).encode("ascii")
    try:
        try:
            fd = os.open(out, _WRITE_FLAGS, 0o666)
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
            fd = os.open(out, _WRITE_FLAGS, 0o666)
        try:
            view = memoryview(data)
            while view:  # a write may take fewer bytes than it was given
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
    except OSError as exc:  # a file in the way, or no permission: the setting is at fault
        raise BadParameter(f"cannot write report {out}: {exc}") from None
    return out

