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
numbers follow json's own rule, so importing the CLI loads no json.  Writing
is opt-in via the GALKAPPA_REPORT_DIR environment variable; without it the
CLI only prints.
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


def _encode(value, newline: str) -> str:
    """value as json.dumps writes it with sorted keys and indent 2, nested at newline.

    A string, true, false or null item of a list or dict is written in the
    container's own loop; only a number or a nested container takes a call.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        parts = []
        for item in value:
            kind = type(item)
            parts.append(encode_basestring_ascii(item) if kind is str
                         else _CONSTANTS[item] if kind is bool or item is None
                         else _encode(item, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        parts = []
        for key, item in sorted(value.items()):
            kind = type(item)
            parts.append(encode_basestring_ascii(key) + ": " + (
                encode_basestring_ascii(item) if kind is str
                else _CONSTANTS[item] if kind is bool or item is None
                else _encode(item, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if type(value) is bool or value is None:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render(payload: dict) -> str:
    """The report text: json.dumps(payload, sort_keys=True, indent=2) plus a newline.

    Every dict key, at any depth, must be a str; any other key raises
    TypeError.  Numbers are written as json writes them: an int (not a bool)
    by `int.__repr__`, a float by `float.__repr__`, or as NaN, Infinity or
    -Infinity, subclasses included.  Any other leaf raises TypeError.
    """
    return _encode(payload, "\n") + "\n"


def write(name: str, payload: dict) -> Optional[Path]:
    """Write payload under $GALKAPPA_REPORT_DIR/name.json if the var is set.

    The directory is made only when the file cannot be opened for lack of
    it, so a report into an existing directory costs one open.  A directory
    that cannot be made or a file that cannot be written is a BadParameter,
    so the CLI reports an input error.
    """
    directory = os.environ.get(REPORT_DIR_ENV)
    if not directory:
        return None
    root = Path(directory)
    out = root / f"{name}.json"
    text = render(payload)
    try:
        try:
            out.write_text(text)
        except FileNotFoundError:
            root.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
    except OSError as exc:  # a file in the way, or no permission: the setting is at fault
        raise BadParameter(f"cannot write report {out}: {exc}") from None
    return out
