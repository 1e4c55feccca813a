"""Each tolerance at its boundary: a margin just inside it passes, one
outside fails.  The classification tolerance is 1e-9 on a norm (on
|s^2 - 1| for unitarity); cnu_decompose's contraction test is 1e-8."""

import math

import numpy as np
import pytest

from extrace.linalg import LinalgError, two_block
from extrace.lsi import FrequencyResponse, lsi_classify
from extrace.qwhile import ParseError, Unitary, check, parse
from extrace.trace import cnu_decompose, ex, halmos_dilation

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


def scaled_response(norm):
    samples = np.stack([np.diag([norm, 0.5])] * 4)
    return FrequencyResponse(samples, ("a", "b"), ("a", "b"))


def test_lsi_classify_tolerance():
    assert lsi_classify(scaled_response(1 + 0.5e-9)) == "lsi_contraction"
    assert lsi_classify(scaled_response(1 + 2e-9)) == "not_certified"


def test_halmos_dilation_tolerance():
    halmos_dilation(np.diag([1 + 0.5e-9, 0.5]))
    with pytest.raises(LinalgError, match="requires a contraction"):
        halmos_dilation(np.diag([1 + 2e-9, 0.5]))


def test_cnu_decompose_tolerance():
    assert cnu_decompose(np.diag([1 + 0.5e-8, 0.5])).unitary_dim == 1
    with pytest.raises(LinalgError, match="requires a contraction"):
        cnu_decompose(np.diag([1 + 2e-8, 0.5]))


def test_cnu_decompose_rejects_non_square():
    with pytest.raises(LinalgError, match="requires a square matrix"):
        cnu_decompose(np.zeros((2, 3)))


def test_trace_core_contraction_tolerance():
    # id - f_UU is invertible, so the closed form exists on both sides of 1.
    assert ex(two_block((1 + 0.5e-9) * HADAMARD, 1), "U").method == "both_agree"
    assert ex(two_block((1 + 2e-9) * HADAMARD, 1), "U").method == "kernel_image"


def test_qwhile_gate_unitarity_tolerance():
    # |s^2 - 1| is 0.8e-9 for the first gate and 1.2e-9 for the second.
    parse("(gate G)", {"G": np.diag([1.0, 1 + 0.4e-9])})
    with pytest.raises(ParseError, match="at tolerance 1e-09"):
        parse("(gate G)", {"G": np.diag([1.0, 1 + 0.6e-9])})
    assert check(Unitary("G", np.diag([1.0, 1 + 0.4e-9]))).ok
    assert check(Unitary("G", np.diag([1.0, 1 + 0.6e-9]))).errors == [
        "$: gate 'G' matrix is not unitary at tolerance 1e-09"
    ]
