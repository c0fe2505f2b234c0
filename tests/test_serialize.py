"""Each fast path of `serialize` against the plain path it stands in for.

A float64 array is written by orjson straight from its buffer (or through
its nested lists when it is not C-contiguous); the same array given as
nested lists is written one Python float at a time. The two must give the
same bytes, and every other array must be written as the float64 values of
its entries. An instance document is read with each flat list parsed by its
own orjson call; the result, or the error, must be json.loads's, and orjson
must see only flat lists.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spurious_lens import serialize
from spurious_lens.serialize import _loads, dumps_canonical, parse_instance

GOLDEN = Path(__file__).resolve().parent / "golden"

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -3.0, 0.5, 0.1,
    1e15 + 0.125, 1e16, -1e16, 1e17, -1e17, 2.0**53, 2.0**53 + 1, 2.0**53 + 2,
    99999999999999990.0, -99999999999999990.0, 1e300, -1e300, 1e-300, -1e-300,
    1.7976931348623157e308,
]


def assert_same_as_lists(a: np.ndarray) -> None:
    assert dumps_canonical(a) == dumps_canonical(a.tolist())


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_edge_value_in_a_row_and_a_matrix(value):
    row = np.array([1.5, value, -2.0])
    assert_same_as_lists(row)
    assert_same_as_lists(np.array([row, row[::-1], [value] * 3]))


def test_edge_values_together():
    a = np.array(EDGE_VALUES)
    assert_same_as_lists(a)
    assert_same_as_lists(a.reshape(4, 6))
    assert dumps_canonical(np.array([-0.0, 1e16, 1e17])) == b"[-0.0,1e16,1e17]\n"


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4), (2, 3, 0), (2, 2, 2)])
def test_empty_and_higher_dimensional_shapes(shape):
    assert_same_as_lists(np.arange(np.prod(shape), dtype=float).reshape(shape) / 3.0)


def test_arrays_inside_documents_and_views():
    a = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    doc = {"b": a, "a": [a[:, 1], a.T, a[::2, ::-1]], "c": a[0, 0]}
    as_lists = {"b": a.tolist(), "a": [a[:, 1].tolist(), a.T.tolist(), a[::2, ::-1].tolist()], "c": float(a[0, 0])}
    assert dumps_canonical(doc) == dumps_canonical(as_lists)


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_VALUES),
    st.integers(-(2**60), 2**60).map(float),
)


ROW = np.array([0.1, -2.0, 1e17, 3.5, -0.0])
NON_INTEGER = (np.arange(400) + 0.5) / 3.0
MOSTLY_ZERO = np.zeros(400)
MOSTLY_ZERO[[0, 7, 399]] = [0.1, -3.0, 2.5]


# A row with the same bytes as the row before it reuses that row's text;
# rows with no integer-valued entry take %.17g throughout. A +0.0 entry is a
# literal in its row's format, which is reused by every later row whose
# entries fall in the same kinds (zero, integer-valued, other); -0.0 is not
# zero in that sense.
@settings(max_examples=100, derandomize=True, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6), elements=FLOATS))
@example(a=np.tile(ROW, (6, 1)))
@example(a=np.tile(ROW, (2, 3, 1)))
@example(a=np.stack([np.tile(ROW, (2, 1)), np.tile(ROW[::-1], (2, 1))]))
@example(a=np.array([[0.0, 1.5], [-0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]]))
@example(a=np.array([[1.5, 0.0], [1.5, -0.0], [1.5, 0.0], [1.5, 0.0]]))
@example(a=np.array([[0.5, 2.0], [0.5, 2.5], [0.5, 2.0], [0.5, 2.0]]))
@example(a=np.zeros((3, 0)))
@example(a=np.array([0.1]))
@example(a=np.array([[0.1], [0.1], [-0.25]]))
@example(a=np.array([-0.25, 1e300]))
@example(a=np.array([[1e17, 5e-324], [1e17, 5e-324], [0.1, 2.0]]))
@example(a=NON_INTEGER)
@example(a=np.tile(NON_INTEGER, (3, 1)))
@example(a=np.vstack([NON_INTEGER, NON_INTEGER * 3.0, NON_INTEGER * 3.0]))
@example(a=MOSTLY_ZERO[None, :])
@example(a=np.array([[0.0, 0.5, 0.0, 3.0], [0.0, 0.25, 0.0, -7.0], [0.0, 1e-300, 0.0, 1e16]]))
@example(a=np.array([[0.0, 1.5], [-0.0, 1.5], [0.0, 2.5], [-0.0, 2.5]]))
@example(a=np.array([[1.5, 2.0, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]]))
@example(a=np.array([[0.0, 1.5, 0.0], [0.0, 1.5, 0.0], [1.5, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]]))
@example(a=np.array([[0.0, 2.0], [0.0, 2.5], [0.0, 2.0], [2.0, 0.0]]))
def test_random_float_arrays_match_nested_lists(a):
    assert_same_as_lists(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape,index", [((5,), (0,)), ((5,), (4,)), ((3, 4), (2, 1)), ((3, 4), (0, 0))])
def test_non_finite_entry_raises(bad, shape, index):
    a = np.ones(shape)
    a[index] = bad
    with pytest.raises(ValueError, match=f"cannot serialize non-finite float {bad}"):
        dumps_canonical(a)
    with pytest.raises(ValueError, match=f"cannot serialize non-finite float {bad}"):
        dumps_canonical(a.tolist())


def test_int_bool_and_zero_dim_arrays_keep_their_encoding():
    assert dumps_canonical(np.array([[1, -2], [3, 4]])) == b"[[1,-2],[3,4]]\n"
    assert dumps_canonical(np.array([True, False])) == b"[true,false]\n"
    assert dumps_canonical(np.array(2.0)) == b"2.0\n"
    assert dumps_canonical(np.array(7)) == b"7\n"
    assert dumps_canonical(np.array([1.5, 2.0], dtype=np.float32)) == b"[1.5,2.0]\n"
    with pytest.raises(ValueError, match="non-finite float nan"):
        dumps_canonical(np.array(np.nan))


def test_numpy_integer_and_bool_scalars_keep_their_encoding():
    assert dumps_canonical({"a": np.int64(3), "b": np.bool_(True)}) == b'{"a":3,"b":true}\n'


# A float32 is written as the float64 it equals: its own shortest digits
# (0.1 for float32(0.1)) would read back as another float64
@pytest.mark.parametrize("value", [0.1, 1 / 3, 3.4028234663852886e38, 1e-45, -0.0])
def test_float32_entries_read_back_as_their_float64_values(value):
    x = np.float32(value)
    doc = [np.array([[x, 1.5]], dtype=np.float32), np.array([1.5, x], dtype=np.float32)[::-1], x]
    got = json.loads(dumps_canonical(doc))
    bits = [struct.pack("<d", v) for v in (got[0][0][0], got[1][0], got[2])]
    assert bits == [struct.pack("<d", float(x))] * 3


# The CSV projection's exact text: an empty cell for None and a missing key,
# true/false for any bool, shortest round-trip digits for any float (a
# float32 as the float64 it equals), quoting as the csv module does it, and
# keys outside the header ignored.
def test_rows_to_csv_text():
    rows = [
        {"a": None, "b": True, "c": np.bool_(False), "d": 3, "e": np.int64(-4)},
        {"a": -0.0, "b": 5e-324, "c": 1e16, "d": 1e-5, "e": np.float64(0.1), "extra": 1},
        {"a": np.float32(0.1), "b": 'x, "y"', "c": False, "d": np.bool_(True)},
    ]
    assert serialize.rows_to_csv(["a", "b", "c", "d", "e"], rows) == (
        "a,b,c,d,e\n"
        ",true,false,3,-4\n"
        "-0.0,5e-324,1e+16,1e-05,0.1\n"
        '0.10000000149011612,"x, ""y""",false,true,\n'
    )


def test_non_string_key_raises():
    with pytest.raises(TypeError, match="JSON keys must be strings"):
        dumps_canonical({"a": {1: 2.0}})


@pytest.mark.parametrize("obj", [{1.0, 2.0}, b"bytes", 1j, object()], ids=["set", "bytes", "complex", "object"])
def test_unsupported_type_raises(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_canonical({"a": [obj]})


# What joins two matrix rows: JSON whitespace only, so the last two must
# make the document invalid for the fast path and json.loads alike.
ROW_SEPS = [b"], [", b"],[", b"],\r\n[", b"],\x0c[", b"]\x0b,["]
ODD_ENTRIES = [
    b"-0", b"5e-324", b"9007199254740993", b"9223372036854775807", b"9223372036854775808",
    b"-9223372036854775808", b"-9223372036854775809", b"18446744073709551616", b"true", b"null",
    b"NaN", b"1e400", b"01", b'"], ["', b'"x], [1], [2], [y"', b'"\\u0000"', b'"\\u00001"', b"\xff",
]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: repr(x).encode()),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: b"%.20e" % x),
    st.integers(-(2**65), 2**65).map(lambda i: str(i).encode()),
)


@st.composite
def matrices(draw):
    """A matrix's JSON text, with at most one odd entry and one odd row separator."""
    rows = draw(st.lists(st.lists(NUMBERS, max_size=4), min_size=1, max_size=6))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(ODD_ENTRIES)))
    joins = [b"], ["] * (len(rows) - 1)
    if joins and draw(st.booleans()):
        joins[draw(st.integers(0, len(joins) - 1))] = draw(st.sampled_from(ROW_SEPS))
    text = b"[[" + draw(st.sampled_from([b", ", b",", b" ,\r\n"])).join(rows[0])
    for join, row in zip(joins, rows[1:]):
        text += join + b", ".join(row)
    return text + b"]]"


@st.composite
def documents(draw):
    depth = draw(st.sampled_from([0, 0, 0, 63, 70, 100_000]))
    body = b'{"a": %s, "b": [%s, "c"], "c": %s}' % (
        draw(matrices()), draw(matrices()), draw(st.sampled_from([b"1", *ODD_ENTRIES])),
    )
    return b"[" * depth + body + b"]" * depth


def same_json(fast, plain) -> bool:
    """fast equals plain, floats by their bits; fast may read an integer
    outside the 64-bit range as the nearest float."""
    if isinstance(plain, int) and not isinstance(plain, bool) and isinstance(fast, float):
        return not -(2**63) <= plain < 2**64 and fast == float(plain)
    if type(fast) is not type(plain):
        return False
    if isinstance(plain, float):
        return struct.pack("<d", fast) == struct.pack("<d", plain)
    if isinstance(plain, list):
        return len(fast) == len(plain) and all(map(same_json, fast, plain))
    if isinstance(plain, dict):
        return fast.keys() == plain.keys() and all(same_json(fast[k], plain[k]) for k in plain)
    return fast == plain


def outcome(loads, data):
    try:
        return loads(data)
    except (ValueError, RecursionError) as exc:
        return exc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=documents())
@example(data=b"[[0], [18446744073709551616], [-9223372036854775809], [0]]")
@example(data=b"[[1], [2],\x0c[3], [4]]")
@example(data=b'["x], [1], [2], [y"]')
@example(data=b'["], [1], [2], [", "\\u0000"]')
@example(data=b"[[1], [NaN], [3], [4]]")
@example(data=b"[[1], [2], [1e400], [4]]")
@example(data=b"[[1], [\xff], [3]]")
@example(data=b'["a\\\\[1]", 2]')
@example(data=b'["a\\"[1]\\"b"]')
@example(data=b'["a\\[1], "b"]')
@example(data=b"[1, 2]")
@example(data=b"[]")
@example(data=b"[[]]")
@example(data=b'{"a": []}')
def test_loads_matches_json_loads(data):
    fast, plain = outcome(_loads, data), outcome(lambda b: json.loads(b.decode("utf-8")), data)
    if isinstance(plain, Exception):
        assert (type(fast), str(fast)) == (type(plain), str(plain))
    else:
        assert same_json(fast, plain)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return
        assert same_json(_loads(text), plain)


def test_loads_reads_a_wide_integer_in_an_interior_row_as_a_float():
    doc = _loads(b"[[0], [18446744073709551616], [0]]")
    assert doc == [[0], [math.ldexp(1.0, 64)], [0]] and isinstance(doc[1][0], float)
    assert _loads(b'{"a": [18446744073709551616]}') == {"a": [math.ldexp(1.0, 64)]}


def test_loads_takes_text_that_utf8_cannot_encode():
    text = "[\"\ud800\", [1], [2], [3]]"
    assert _loads(text) == json.loads(text)


def flat_lists(node) -> int:
    """The lists in node that hold no list, object or string."""
    if isinstance(node, dict):
        return sum(map(flat_lists, node.values()))
    if not isinstance(node, list):
        return 0
    if not any(isinstance(x, (list, dict, str)) for x in node):
        return 1
    return sum(map(flat_lists, node))


def dense_sigma(rng, d):
    a = rng.standard_normal((d, d))
    sigma = a @ a.T / d
    return ((sigma + sigma.T) / 2).tolist()


def generated_instance(name: str) -> dict:
    """A wide instance with diagonal groups and a list of strings, and two
    shaped like the benchmark's simulate-mc (10 dense 40 x 40 groups) and
    construct-dump (450 unlabeled rows)."""
    rng = np.random.default_rng(5)
    n, d, unlabeled = {"wide": (60, 150, 0), "simulate-mc": (20, 40, 0), "construct-dump": (200, 400, 450)}[name]
    doc = {
        "ground_truth": {"theta_star": rng.standard_normal(d).tolist(), "beta_stars": [rng.standard_normal(d).tolist()]},
        "train": {"Z": rng.standard_normal((n, d)).tolist()},
    }
    if name == "wide":
        doc["groups"] = [{"label": f"g{i}", "sigma": {"diag": rng.uniform(0.1, 2.0, d).tolist()}} for i in range(8)]
        # a list of strings is not flat: json.loads reads it
        doc["scenario"] = {"labels": [g["label"] for g in doc["groups"]]}
    elif name == "simulate-mc":
        doc["groups"] = [{"label": f"g{i}", "sigma": dense_sigma(rng, d)} for i in range(10)]
        doc["robust"] = {"gamma": 6.0, "samples": 4096}
    else:
        zu = rng.standard_normal((unlabeled, d))
        doc["unlabeled"] = {"Zu": zu.tolist(), "Su": (zu @ doc["ground_truth"]["beta_stars"][0]).tolist()}
    return doc


def record_orjson(monkeypatch) -> list[bytes]:
    """The bytes of each orjson.loads call the reader makes from now on."""
    seen = []
    loads = orjson.loads

    def record(piece):
        seen.append(bytes(piece))
        return loads(piece)

    monkeypatch.setattr(serialize.orjson, "loads", record)
    return seen


# Why the reader splices flat lists instead of making one orjson call:
# orjson 3.8.3 builds nested values recursively and crashes on a deep
# document, and its buffer holds about 1.7x the document. A flat list has
# no nesting, and its buffer holds one list. (A deep document through the
# CLI is in test_cli.py.)
@pytest.mark.parametrize(
    "source",
    [*(p.name for p in sorted(GOLDEN.glob("*.instance.json"))), "wide", "simulate-mc", "construct-dump"],
)
def test_orjson_reads_only_flat_rows(monkeypatch, source):
    if source.endswith(".json"):
        data = (GOLDEN / source).read_bytes()
    else:
        data = json.dumps(generated_instance(source)).encode()
    seen = record_orjson(monkeypatch)
    parse_instance(data)
    assert len(seen) == flat_lists(json.loads(data)) > 0
    for row in seen:
        assert row[:1] == b"[" and row[-1:] == b"]", row[:40]
        assert not any(c in row[1:-1] for c in b'[]{}"'), row[:40]


# A deep array holds one flat list, its innermost: orjson gets that list
# once and no nested piece, and json.loads refuses the skeleton's depth.
def test_million_deep_array_is_one_orjson_call(monkeypatch):
    depth = 1_000_000
    seen = record_orjson(monkeypatch)
    with pytest.raises(serialize.InstanceError, match="instance JSON invalid"):
        parse_instance(b'{"scenario": {"n": ' + b"[" * depth + b"0" + b"]" * depth + b"}}")
    assert seen == [b"[0]"]
