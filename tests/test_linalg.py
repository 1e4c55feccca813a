import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from extrace.linalg import (
    LinalgError,
    Partition,
    PartitionedMap,
    adjoint,
    as_matrix,
    classify,
    direct_sum,
    matrix_from_literal,
    matrix_to_literal,
    operator_norm,
    random_contraction,
    random_isometry,
    random_unitary,
    stack_norms,
    swap_matrix,
    two_block,
)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(LinalgError):
        as_matrix([[np.nan, 0.0]])
    with pytest.raises(LinalgError):
        as_matrix([[np.inf]])


def test_as_matrix_rejects_a_vector():
    with pytest.raises(LinalgError, match="expected a 2-D matrix, got ndim=1"):
        as_matrix([1.0, 2.0])


def test_operator_norm_matches_numpy_small():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-12)


def test_operator_norm_power_iteration_path():
    # Above 64 dimensions too, the norm must agree with the dense answer.
    rng = np.random.default_rng(11)
    m = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-9)


@pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
def test_a_non_finite_matrix_has_norm_inf(svd_shapes, shape):
    # inf, -inf j or NaN in one entry: norm inf, and no SVD takes that matrix.
    # The finite matrices keep their own norms, bit for bit.
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, *shape)) + 1j * rng.standard_normal((6, *shape))
    m[1, 0, -1], m[3, -1, 0], m[4, 0, 0] = math.inf, complex(0, -math.inf), math.nan
    bad = np.isin(np.arange(6), [1, 3, 4])
    norms = []
    shapes = svd_shapes(lambda: norms.append(stack_norms(m)))
    finite, want = m[~bad], np.full(6, math.inf)
    want[~bad] = (np.hypot(finite.real, finite.imag)[:, 0, 0] if shape == (1, 1)
                  else np.linalg.svd(finite, compute_uv=False).max(axis=-1))
    assert np.array_equal(norms[0], want)
    assert shapes == ([] if shape == (1, 1) else [(3, *shape)])
    assert svd_shapes(lambda: norms.append(stack_norms(m[bad]))) == []
    assert np.array_equal(norms[1], [math.inf] * 3)
    assert operator_norm(m[4]) == math.inf


def test_classify_known_matrices():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert classify(h) == "unitary"
    assert classify(h[:, :1]) == "isometry"
    assert classify(0.5 * h) == "strict_contraction"
    assert classify(np.array([[0.0, 1.0]])) == "contraction_boundary"
    assert classify(1.5 * h) == "expansion"


def test_classify_precedence_unitary_over_boundary():
    assert classify(np.eye(3)) == "unitary"


def test_random_factories_classify():
    for seed in range(8):
        assert classify(random_unitary(4, seed)) == "unitary"
        assert classify(random_isometry(5, 3, seed)) == "isometry"
        assert operator_norm(random_contraction(4, 4, seed)) <= 1.0 + 1e-12


def test_random_contraction_rescales_as_one_matrix_svd_did():
    # The rescale takes a stacked SVD; it must give the bytes of the
    # per-matrix draw, norm and multiply it replaced.
    for seed, (rows, cols) in enumerate([(1, 1), (3, 2), (4, 7), (12, 12), (2, 9)]):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        want = z * (rng.uniform(0.0, 1.0) / operator_norm(z))
        assert random_contraction(rows, cols, seed).tobytes() == want.tobytes()


def test_swap_matrix_is_the_braiding():
    s = swap_matrix(2, 3)
    v = np.arange(5.0)
    assert np.allclose(s @ v, np.concatenate([v[2:], v[:2]]))
    assert classify(s) == "unitary"


def test_direct_sum_blocks():
    a = np.ones((1, 2))
    b = 2 * np.ones((2, 1))
    d = direct_sum(a, b)
    assert d.shape == (3, 3)
    assert np.allclose(d[:1, :2], a)
    assert np.allclose(d[1:, 2:], b)
    assert np.count_nonzero(d) == 4



def test_direct_sum_keeps_stack_axes():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
    b = rng.normal(size=(4, 1, 2))
    d = direct_sum(a, b)
    assert d.shape == (4, 3, 5)
    for i in range(4):
        assert np.array_equal(d[i], direct_sum(a[i], b[i]))


class TestPartition:
    def test_spans(self):
        p = Partition(("B", "U"), (2, 3))
        assert p.total == 5
        assert p.span("B") == (0, 2)
        assert p.span("U") == (2, 5)

    def test_zero_block_is_legal(self):
        p = Partition(("B", "U"), (2, 0))
        assert p.span("U") == (2, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(LinalgError):
            Partition(("B", "B"), (1, 1))
        with pytest.raises(LinalgError):
            Partition(("B",), (-1,))
        with pytest.raises(LinalgError):
            Partition(("B",), (1, 2))
        with pytest.raises(LinalgError):
            Partition(("B",), (1,)).span("X")

    def test_names_given_as_a_string_are_rejected(self):
        # Not split into the one-letter blocks "U" and "B".
        with pytest.raises(LinalgError, match="not a string"):
            Partition("UB", (1, 1))
        with pytest.raises(LinalgError, match="not a string"):
            Partition.from_json({"names": "UB", "sizes": [1, 1]})

    @pytest.mark.parametrize("names,kind", [({"U": 0, "B": 1}, "dict"),
                                            (iter(["U", "B"]), "list_iterator"),
                                            (None, "NoneType")])
    def test_names_must_be_a_list_or_tuple(self, names, kind):
        # A mapping would pass as its keys; only a list or tuple is a sequence of labels.
        with pytest.raises(LinalgError, match=f"must be a sequence of labels, not {kind}"):
            Partition(names, (1, 1))
        assert Partition(["U", "B"], (1, 1)).names == ("U", "B")

    def test_json_round_trip(self):
        p = Partition(("A", "U"), (1, 4))
        assert Partition.from_json(json.loads(json.dumps(p.to_json()))) == p


class TestPartitionedMap:
    def test_block_spans(self):
        m = np.arange(12.0).reshape(3, 4)
        pm = PartitionedMap(m, Partition(("B", "U"), (1, 2)), Partition(("A", "U"), (2, 2)))
        assert (pm.row_partition.span("B"), pm.col_partition.span("A")) == ((0, 1), (0, 2))
        assert (pm.row_partition.span("U"), pm.col_partition.span("U")) == ((1, 3), (2, 4))

    def test_shape_mismatch(self):
        with pytest.raises(LinalgError):
            PartitionedMap(np.eye(3), Partition(("B",), (2,)), Partition(("A",), (3,)))

    def test_two_block_trailing_convention(self):
        pm = two_block(np.arange(9.0).reshape(3, 3), 1)
        assert pm.row_partition == Partition(("B", "U"), (2, 1))
        assert pm.col_partition == Partition(("A", "U"), (2, 1))

    def test_json_round_trip(self):
        pm = two_block(random_contraction(3, 3, 5), 2)
        back = PartitionedMap.from_json(json.loads(json.dumps(pm.to_json())))
        assert np.allclose(back.matrix, pm.matrix)
        assert back.row_partition == pm.row_partition


def test_matrix_literal_round_trip():
    m = np.array([[1 + 2j, -0.5], [0.25j, 3.0]])
    assert np.array_equal(matrix_from_literal(matrix_to_literal(m)), m)
    # exact decimal parsing through JSON text, which the caller decodes
    text = json.dumps(matrix_to_literal(m))
    assert np.array_equal(matrix_from_literal(json.loads(text)), m)
    with pytest.raises(LinalgError, match="JSON array of rows"):
        matrix_from_literal(text)


def test_matrix_literal_rejects_malformed():
    for bad in ("{}", [[1, 2]], [[[1, 2, 3]]], [[[1, 0]], [[1, 0], [2, 0]]]):
        with pytest.raises(LinalgError):
            matrix_from_literal(bad)


def loop_matrix_from_literal(obj):
    """matrix_from_literal as it was, one complex(float(), float()) per entry."""
    if not isinstance(obj, list):
        raise LinalgError("matrix literal must be a JSON array of rows")
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list):
            raise LinalgError("matrix literal row must be an array")
        entries = []
        for entry in row:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise LinalgError("matrix entries must be [re, im] pairs")
            entries.append(complex(float(entry[0]), float(entry[1])))
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise LinalgError("ragged matrix literal")
        rows.append(entries)
    if not rows:
        return np.zeros((0, 0), dtype=np.complex128)
    return as_matrix(rows)


# JSON numbers within the float range: ints up to 2^1023, floats with -0.0,
# subnormals and the extremes.
numbers = st.one_of(
    st.integers(-(2**1023), 2**1023),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 2**53 + 1, -(2**63) - 1]),
)


@st.composite
def literals(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return [[[draw(numbers), draw(numbers)] for _ in range(cols)] for _ in range(rows)]


@given(literals())
@example([])
@example([[]])
@example([[[1, -0.0], [5e-324, 1e308], [-1e308, 2]]])
def test_literal_conversion_matches_the_entry_loop(obj):
    want = loop_matrix_from_literal(obj)
    got = matrix_from_literal(obj)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=2), children,
                                                                         max_size=2),
    max_leaves=16,
)


@given(json_values)
@example([[[1, 0], [0, 0]], [[0, 0]]])
@example([[[1, 0, 0]]])
@example([[1, 0]])
@example([[[10**400, 0]]])
@example([[[None, 0]]])
@example([[["abc", 0]]])
@example([[["0.5", 0]]])
@example([[[True, 0]]])
def test_literal_rejects_what_the_entry_loop_rejects(obj):
    """A literal the loop rejects, by a LinalgError on its shape or by an
    error of float() on an entry, raises LinalgError.  Of what the loop
    takes, the conversion refuses only numeric strings; bools read as 1, 0."""
    try:
        want = loop_matrix_from_literal(obj)
    except (ValueError, TypeError, OverflowError):
        with pytest.raises(LinalgError):
            matrix_from_literal(obj)
        return
    if all(isinstance(x, (int, float)) for row in obj for entry in row for x in entry):
        assert matrix_from_literal(obj).tobytes() == want.tobytes()
    else:
        with pytest.raises(LinalgError, match="matrix entries must be numbers"):
            matrix_from_literal(obj)
