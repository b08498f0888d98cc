"""Deterministic JSON reports for the command-line entry points.

Payloads are plain dictionaries of JSON-native values rendered with sorted
keys and no timestamps, so identical inputs produce byte-identical files and
``json.loads(render(p)) == p`` holds.  The rendered text is, byte for byte,
``json.dumps(p, sort_keys=True, indent=2) + "\n"``; `render` forms it in one
recursive pass, because with an indent the standard encoder falls back from
its C implementation to a much slower generator-based one.  Writing is
opt-in via the GALKAPPA_REPORT_DIR environment variable; without it the CLI
only prints.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import List, Optional

from .errors import BadParameter

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
    return json.dumps(value)  # int and float; anything else raises TypeError


def render(payload: dict) -> str:
    """The report text: json.dumps(payload, sort_keys=True, indent=2) plus a newline."""
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
