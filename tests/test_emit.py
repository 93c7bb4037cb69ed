"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``.

``cli._json_text`` must give the same text as json on every document the
CLI can build: dicts with str keys, lists, ints of any size, str, bool and
None, nested and empty at any depth.  Anything else is a ``TypeError``.
``--output`` writes exactly the bytes that stdout gets.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxclusters.cli import _json_text, main

DIGESTS = json.loads((Path(__file__).parent / "golden_digests.json").read_text())

# Quote, backslash, control characters, Latin-1, a BMP character beyond it,
# and an astral character that json writes as a surrogate pair.
SPECIAL = ['"', "\\", "\n", "\t", "\x00", "\x1f", "/", "é", " ", "\U0001d11e"]
TEXT = st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=6)
INTS = st.integers() | st.sampled_from([0, -1, 2**63, 2**64, -(2**64) - 1, 3**90])
SCALARS = INTS | TEXT | st.booleans() | st.none()
EMPTY = st.sampled_from([[], {}])
# Int lists, with a bool or None mixed in now and then: those must not be
# written the way a list of plain ints is.
INT_LISTS = st.lists(INTS, max_size=6) | st.lists(INTS | st.booleans() | st.none(), max_size=6)
# Lists of int lists, as the polygon report's vertex pairs: each item that is
# a non-empty list of plain ints is written in one step.  Empty items, items
# holding a bool or None, and other values are mixed in; the recursion below
# nests these lists at every depth.
INT_LIST_LISTS = st.lists(INT_LISTS | EMPTY | SCALARS, max_size=5)
DOCUMENTS = st.recursive(
    SCALARS | EMPTY | INT_LISTS | INT_LIST_LISTS,
    lambda inner: st.lists(inner | EMPTY, max_size=4)
    | st.dictionaries(TEXT, inner | EMPTY, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(DOCUMENTS)
@example([True, 1, False, 0, None])
@example([1, True])
@example({"b": [1, 2], "a": {"d": [], "c": {}}, "B": "\U0001d11e", "é": [[True]]})
@example([[[]], [{}], [[1]], [[-1, 2**64]]])
@example({"p_plus": [[1, 5], [2, 5]], "p_minus": [], "pair": [[1, 3], [2, 4]]})
@example([[True, 1], [1, True], [[]], [], [[1]]])
@example([[[[0, 1], [], [None, 2]], "x", [3]], {"a": [[4, -5], [True]]}])
def test_json_text_is_json_dumps(document):
    assert _json_text(document) == json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "document",
    [1.0, 0.0, [1, 0.0], (1, 2), {"a": (1,)}, {1, 2}, b"x", {1: 2}, {"a": 1, 2: 3},
     [[1, 2], (3, 4)], [[1, 2], [3, 4.0]]],
    ids=["float", "zero-float", "float-in-int-list", "tuple", "nested-tuple",
         "set", "bytes", "int-key", "mixed-keys", "tuple-beside-int-list",
         "float-in-inner-int-list"],
)
def test_json_text_rejects_what_json_would_change(document):
    with pytest.raises(TypeError):
        _json_text(document)


@pytest.mark.parametrize(
    "command",
    ["typea --n 5", "explore --type A3 --coxeter all", "verify --type A2 --coxeter all"],
)
def test_output_file_is_the_stdout_bytes(command, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(command.split()) == 0
    stdout = capsys.readouterr().out.encode()
    assert main([*command.split(), "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[command]
