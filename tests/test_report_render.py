"""`report.render` writes exactly the bytes of json.dumps(sort_keys=True, indent=2).

The renderer forms the text in one recursive pass instead of calling the
standard encoder, so it is held to that encoder on random payloads and on
the payload of every golden command and one `numcheck`.
"""

import enum
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_golden_reports
from galkappa import report
from galkappa.cli import main


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "café", " ", "\U0001f600",
                     'a"b\\c\n\t\r\b\f', "</script>", "\ud800"]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 1e16, 0.1, math.nan, math.inf,
                     -math.inf]),
    _texts,
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_texts, children, max_size=4),
    ),
    max_leaves=40,
)
payloads = st.dictionaries(_texts, _values, max_size=6)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_render_matches_json_dumps(payload):
    assert report.render(payload) == reference(payload)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


class _Real(float):
    def __repr__(self):
        return "not this"


def test_render_matches_json_dumps_on_edge_payloads():
    # numbers are written without json, so subclasses and non-finite values are pinned too
    for payload in [
        {},
        {"": [], "a": {}, "b": [[], {}, [[]], {"": {}}]},
        {"é": "é", '"': '"', "\x01": "\x01", "1": 1, "10": 10, "2": 2},
        {"big": 2 ** 186, "neg": -(10 ** 40), "flags": [True, False, None]},
        {"floats": [-0.0, 1e308, math.nan, math.inf, -math.inf, 2.5e-8, 1.0]},
        {"enum": [_Level.LOW, _Level.HIGH], "key": {"level": _Level.HIGH}},
        {"real": [_Real(math.nan), _Real(math.inf), _Real(-math.inf), _Real(-0.0),
                  _Real(0.1)]},
        {"huge": 2 ** 1000, "negative": [-(2 ** 1000)]},
    ]:
        assert report.render(payload) == reference(payload)


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes", 1j, object(), Fraction(1, 3),
                                 Decimal("1")])
def test_render_refuses_what_json_dumps_refuses(bad):
    payload = {"detail": [bad]}
    with pytest.raises(TypeError):
        reference(payload)
    with pytest.raises(TypeError):
        report.render(payload)


@pytest.mark.parametrize("key", [1, None, ("a", "b")])
def test_render_takes_only_str_keys(key):
    # json.dumps would write the int and None keys as strings; reports only have str keys
    for payload in [{key: 2}, {"detail": [{key: "x"}]}]:
        with pytest.raises(TypeError):
            report.render(payload)


COMMANDS = list(test_golden_reports.GOLDEN) + ["numcheck --nmax 8 --low 3"]


@pytest.mark.parametrize("command", COMMANDS)
def test_render_matches_json_dumps_on_command_payloads(command, monkeypatch, capsys):
    payloads = []
    monkeypatch.setattr(report, "write", lambda name, payload: payloads.append(payload))
    main(command.split())
    capsys.readouterr()
    (payload,) = payloads
    assert report.render(payload) == reference(payload)
