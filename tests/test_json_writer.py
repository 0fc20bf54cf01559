"""The JSON writer writes exactly what the standard library's indented encoder writes.

The report is ``json.dumps(payload, indent=2, sort_keys=True)`` plus a
newline, written in batches; any value a report cannot hold raises
TypeError instead of being written some other way.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bbwkoszul import cli

# keys and strings that the encoder must escape: quotes, backslashes,
# control characters, non-ASCII and astral characters
TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "\u2028", "😀"])
STRINGS = st.lists(st.one_of(TRICKY, st.text(max_size=4)), max_size=4).map("".join)
SCALARS = st.one_of(
    STRINGS,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.booleans(),
    st.none(),
)
# nested values with empty lists, tuples and dicts at any depth
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(STRINGS, inner, max_size=4),
    ),
    max_leaves=24,
)
ROWS = st.dictionaries(STRINGS, VALUES, max_size=6)
REPORTS = st.fixed_dictionaries(
    {
        "version": STRINGS,
        "params": st.dictionaries(STRINGS, VALUES, max_size=4),
        "results": st.one_of(
            st.just([]), st.lists(ROWS, min_size=1, max_size=1), st.lists(ROWS, min_size=2)
        ),
        "summary": st.dictionaries(STRINGS, st.integers(min_value=0), max_size=5),
    },
    optional={"extra": VALUES},
)


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@given(st.one_of(REPORTS, VALUES), st.integers(min_value=1, max_value=64))
def test_batches_join_to_the_standard_encoding(payload, pieces_per_write):
    # a small batch size puts a batch boundary after almost every row
    with mock.patch.object(cli, "JSON_TOKENS_PER_WRITE", pieces_per_write):
        batches = list(cli._json_batches(payload))
    assert all(batches)
    assert "".join(batches) == reference(payload)
    if isinstance(payload, dict) and len(payload.get("results", ())) > 1 and pieces_per_write == 1:
        assert len(batches) >= len(payload["results"])


class Opaque:
    pass


@pytest.mark.parametrize(
    "bad",
    [{1, 2}, frozenset(), Opaque(), b"bytes", 1.5, 0.0, float("nan"), {1: "int key"},
     {"a": 1, 2: "mixed keys"}, {(1, 2): "tuple key"}, {None: "null key"}],
    ids=["set", "frozenset", "object", "bytes", "float", "zero-float", "nan", "int-key",
         "mixed-keys", "tuple-key", "none-key"],
)
@pytest.mark.parametrize(
    "place",
    [
        lambda bad: bad,
        lambda bad: {"results": [{"computed": bad}]},
        lambda bad: {"params": {"checks": [bad]}, "results": []},
        lambda bad: {"results": [{"axioms": ({"x": [bad]},)}]},
    ],
    ids=["top", "row-value", "list-item", "deep"],
)
def test_values_a_report_cannot_hold_raise_type_error(bad, place):
    # the standard library would write floats and int keys; the writer
    # refuses them, as it refuses what no encoder can write
    with pytest.raises(TypeError):
        "".join(cli._json_batches(place(bad)))
