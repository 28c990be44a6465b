"""Hypothesis strategies shared by the input-reader fuzz tests.

Each reader's test mixes values of the right kind for a field with arbitrary
JSON values, so that generated records both pass and fail the field checks.
"""
import json

from hypothesis import strategies as st

# Any code point, lone surrogates included, which JSON can hold as escapes.
any_text = st.text(st.characters(exclude_categories=()), max_size=6)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(any_text, children, max_size=3),
    max_leaves=6,
)

# Lines no reader of JSON Lines may accept, each for its own reason.
bad_json_lines = st.sampled_from(["[" * 5000, "{bad", "[]", "null", '"text"', "1", "{} {}"])


def mostly(values):
    """``values``, or once in ten draws any JSON value instead."""
    return st.integers(0, 9).flatmap(lambda i: json_values if i == 0 else values)


def json_records(fields, required=()):
    """JSON lines of objects holding each key of ``fields``, a map from each
    key to a strategy for values of its kind, which may be absent unless
    ``required``; now and then a value is any JSON value instead."""
    return st.fixed_dictionaries(
        {key: mostly(fields[key]) for key in required},
        optional={key: mostly(values) for key, values in fields.items() if key not in required},
    ).map(json.dumps)


def json_lines(records):
    """Lists of up to four lines: mostly ``records``, sometimes a blank line
    or one of ``bad_json_lines``."""
    pick = {0: bad_json_lines, 1: st.just("")}
    return st.lists(st.integers(0, 7).flatmap(lambda i: pick.get(i, records)), max_size=4)
