"""The CLI's JSON writer against ``json.dumps(sort_keys=True, indent=2)``,
the byte contract of every JSON report (docs/schemas.md)."""

import argparse
import contextlib
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flagsheaf import cli
from flagsheaf.cli import _json_text


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


# strings that need escapes, non-ASCII (beyond the BMP too) and keys
# that sort differently as text
_TEXTS = st.one_of(
    st.text(),
    st.sampled_from(
        ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "—", " ",
         "\ud800", "😀", "10", "9", "-1/2", "%", "%s", "%%"]
    ),
)
# True/False beside 1/0, both signs of zero, nan and the infinities
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([True, 1, False, 0, 1.0, 0.0, -0.0, 10**30]),
    _TEXTS,
)


class _Dict(dict):
    pass


class _List(list):
    pass


class _Carried(dict):
    """A dict that prints its own text at the indent ``pad``, as Novikov
    term listings do; json walks it like any dict, the writer only puts
    the text it returns."""

    def json_text(self, pad):
        return dumps(dict(self)).replace("\n", pad)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_List),
        st.dictionaries(_TEXTS, children, max_size=4),
        st.dictionaries(_TEXTS, children, max_size=4).map(_Dict),
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=24)


@st.composite
def _aliased(draw):
    """One container listed at two different depths, and twice at one:
    a memo keyed by identity alone would indent the deep copy wrongly."""
    shared = draw(_containers(_VALUES).filter(bool))
    return draw(
        st.permutations(
            [shared, [shared, {"deep": [shared]}], draw(_VALUES), shared]
        )
    )


@st.composite
def _reordered(draw):
    """Dicts with one key set in different insertion orders, and other
    values: the writer caches a key order per (key tuple, depth)."""
    first = draw(st.dictionaries(_TEXTS, _VALUES, min_size=2, max_size=5))
    keys = draw(st.permutations(list(first)))
    second = {k: draw(_VALUES) for k in keys}
    return draw(st.permutations([first, second, [second, {"x": first}]]))


@st.composite
def _carried(draw):
    """A carried-text dict nested at depth 0 to 4; a list level lists it
    twice."""
    node = _Carried(draw(st.dictionaries(_TEXTS, _VALUES, max_size=4)))
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            node = [node, draw(_VALUES), node]
        else:
            node = {draw(_TEXTS): node}
    return node


@settings(max_examples=200, deadline=None)
@given(st.one_of(_VALUES, _aliased(), _reordered(), _carried()))
def test_writer_prints_json_dumps_bytes(payload):
    assert _json_text(payload) == dumps(payload)


def test_shared_container_keeps_the_indent_of_each_depth():
    term = {"action": "1/2", "l": ["1", "-1"], "degree": 4}
    payload = {"a": [term, term], "b": {"c": [[term]]}, "empty": [{}, [], ()]}
    assert _json_text(payload) == dumps(payload)


_KEYS = st.one_of(
    st.integers(), st.booleans(), st.none(), st.floats(), _TEXTS
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_KEYS, _SCALARS, max_size=4))
def test_non_str_keys_raise_type_error(payload):
    # json converts int, float, bool and None keys (after sorting the
    # raw keys); the writer refuses them and never prints other bytes
    if all(isinstance(k, str) for k in payload):
        assert _json_text(payload) == dumps(payload)
    else:
        with pytest.raises(TypeError):
            _json_text({"nested": [payload]})


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, b"x", object()])
def test_unserializable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps({"v": value})
    with pytest.raises(TypeError):
        _json_text({"v": value})


class _Recorder:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def _emitted(payload, flush: int) -> list[str]:
    sink = _Recorder()
    args = argparse.Namespace(format="json", out=None)
    with mock.patch.object(cli, "_FLUSH", flush), \
            contextlib.redirect_stdout(sink):
        assert cli._emit(payload, args) == 0
    return sink.writes


@settings(max_examples=100, deadline=None)
@given(st.one_of(_VALUES, _carried()), st.sampled_from([1, 7, 64, 1 << 16]))
def test_emitted_writes_join_to_json_dumps_bytes(payload, flush):
    # every write but the last holds at least flush characters, and the
    # writes join to json's text and a newline
    writes = _emitted(payload, flush)
    assert "".join(writes) == dumps(payload) + "\n"
    assert all(len(w) >= flush for w in writes[:-1])


def test_certificate_reaches_stdout_in_several_writes():
    # N = 4, lambda = 5/2: 1,167,992 bytes, streamed as they are rendered;
    # no write holds the whole report
    sink = _Recorder()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["pipeline", "certificate", "--n", "4",
                         "--lambda", "5/2"]) == 0
    text = "".join(sink.writes)
    assert len(text) == 1167992
    assert text == dumps(json.loads(text)) + "\n"
    assert len(sink.writes) > 1
    assert max(map(len, sink.writes)) < len(text)
