"""Edits of a valid JSON input document, for the boundary fuzz tests.

`edited_text(doc)` draws the text of `doc` after 1-3 edits, each at a random
object or array of it:

- a key or an element deleted, or an unknown key or an element added;
- a value swapped for another JSON type, or for NaN, an infinity, 1e400 or
  a 5000-digit integer;
- a value swapped for "", " ", "-", a non-ASCII string or one holding a NUL
  byte, which no command-line argument can hold;
- a key repeated, or a value nested deeper than any JSON reader recurses.

Every input file of the package is read by `model.read_json` (the state
document by `load_state`, which parses the same way), so these edits reach
each reader's checks past its first one. Placeholders stand for the texts
that `json.dumps` cannot write.
"""

from __future__ import annotations

import copy
import json

from hypothesis import strategies as st

HUGE_FLOAT, HUGE_INT, DEEP, DUPLICATE = "@1e400@", "@5000 digits@", "@deep@", "@dup@"
BAD_VALUES = [
    float("nan"), float("inf"), -float("inf"), HUGE_FLOAT, HUGE_INT, DEEP,
    True, False, 0, 7, -3, None, "", " ", "-", "x", "é", "a\u0000b", [], {},
]
_DEPTH = 100_000


def containers(value, path=()):
    """Every (path, dict or list) in a JSON document."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    yield path, value
    for key, child in children:
        yield from containers(child, (*path, key))


@st.composite
def edited_text(draw, doc) -> str:
    """The text of a copy of `doc` after 1-3 edits."""
    doc = copy.deepcopy(doc)

    def bad_value():
        return copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))

    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        _, container = draw(st.sampled_from(list(containers(doc))))
        keys = list(container) if isinstance(container, dict) else list(range(len(container)))
        edit = draw(st.sampled_from(["replace", "delete", "unknown", "duplicate"]))
        if not keys or edit == "unknown":
            if isinstance(container, dict):
                container["surprise"] = bad_value()
            else:
                container.append(bad_value())
            continue
        key = draw(st.sampled_from(keys))
        if edit == "replace":
            container[key] = bad_value()
        elif edit == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[DUPLICATE + key] = container[key]
        else:
            container.append(container[key])
    text = json.dumps(doc, indent=1)
    return (
        text.replace(json.dumps(HUGE_FLOAT), "1e400")
        .replace(json.dumps(HUGE_INT), "9" * 5000)
        .replace(json.dumps(DEEP), "[" * _DEPTH + "]" * _DEPTH)
        .replace('"' + DUPLICATE, '"')
    )
