"""The canonical encoder's float-array path against its nested-list path.

A float64 array is written row by row with one %-format per row; the same
array given as nested lists goes through `_fmt_float` one entry at a time.
The two must give the same bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spurious_lens.serialize import dumps_canonical

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
    assert dumps_canonical(np.array([-0.0, 1e16, 1e17])) == "[-0.0, 10000000000000000.0, 1e+17]\n"


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


# A row with the same bytes as the row before it reuses that row's text;
# rows with no integer-valued entry take %.17g throughout.
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
    assert dumps_canonical(np.array([[1, -2], [3, 4]])) == "[[1, -2], [3, 4]]\n"
    assert dumps_canonical(np.array([True, False])) == "[true, false]\n"
    assert dumps_canonical(np.array(2.0)) == "2.0\n"
    assert dumps_canonical(np.array(7)) == "7\n"
    assert dumps_canonical(np.array([1.5, 2.0], dtype=np.float32)) == "[1.5, 2.0]\n"
    with pytest.raises(ValueError, match="non-finite float nan"):
        dumps_canonical(np.array(np.nan))
