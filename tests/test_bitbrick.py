"""Section III's lossless decomposition, checked against NumPy's integer ``@``.

``repro.core.bitbrick.fused_matmul`` computes a GEMM as the shift-add of
2-bit BitBrick slice GEMMs (Equations 1-3).  Every test compares it with
plain ``weights @ inputs`` on int64 arrays, the only reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitbrick import (
    SLICE_BITS,
    fused_matmul,
    im2col,
    operand_range,
    operand_slices,
    random_operands,
)
from repro.core.fusion_unit import PARTIAL_SUM_BITS, SUPPORTED_BITWIDTHS

_SIGN_MODES = [(True, True), (True, False), (False, True), (False, False)]
_SIGN_IDS = ["signed-signed", "signed-unsigned", "unsigned-signed", "unsigned-unsigned"]
_SPATIAL_BITS = (1, 2, 4, 8)
#: 16-bit operands against every width, in both operand orders.
_SIXTEEN_BIT_PAIRS = sorted({(16, b) for b in (2, 4, 8, 16)} | {(b, 16) for b in (2, 4, 8)})


def _all_values(bits: int, signed: bool) -> np.ndarray:
    lo, hi = operand_range(bits, signed)
    return np.arange(lo, hi + 1, dtype=np.int64)


def _fits_accumulator(values: np.ndarray) -> bool:
    lo, hi = operand_range(PARTIAL_SUM_BITS, signed=True)
    return bool(lo <= values.min() and values.max() <= hi)


# --------------------------------------------------------------------------- #
# Operand slicing
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("signed", (True, False), ids=("signed", "unsigned"))
@pytest.mark.parametrize("bits", SUPPORTED_BITWIDTHS)
def test_slices_are_brick_inputs_that_reassemble_every_value(bits, signed):
    values = _all_values(bits, signed)
    slices = operand_slices(values, bits, signed)
    assert len(slices) == max(bits, SLICE_BITS) // SLICE_BITS
    for index, part in enumerate(slices):
        lo, hi = operand_range(SLICE_BITS, signed and index == len(slices) - 1)
        # A 1-bit operand uses part of its lane; every wider one spans each slice.
        assert lo <= part.min() and part.max() <= hi
        assert bits == 1 or (part.min(), part.max()) == (lo, hi)
    reassembled = sum(part << (SLICE_BITS * k) for k, part in enumerate(slices))
    np.testing.assert_array_equal(reassembled, values)


def test_paper_figure6_example():
    """Figure 6: 11 x 6 = 66 as four 2-bit products shifted by 0, 2, 2 and 4."""
    assert [int(s) for s in operand_slices(11, 4, signed=False)] == [3, 2]
    assert [int(s) for s in operand_slices(6, 4, signed=False)] == [2, 1]
    product = fused_matmul(
        [[11]], [[6]], weight_bits=4, input_bits=4, signed_weights=False, signed_inputs=False
    )
    assert product.tolist() == [[66]]


def test_paper_figure7_example():
    """Figure 7: a 4-bit x 2-bit Fused-PE pair computes 15*1 + 10*2 = 35."""
    total = fused_matmul(
        [15, 10], [1, 2], weight_bits=4, input_bits=2, signed_weights=False, signed_inputs=False
    )
    assert total == 35


# --------------------------------------------------------------------------- #
# The lossless property
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(("signed_weights", "signed_inputs"), _SIGN_MODES, ids=_SIGN_IDS)
@pytest.mark.parametrize("weight_bits", _SPATIAL_BITS)
@pytest.mark.parametrize("input_bits", _SPATIAL_BITS)
def test_every_operand_pair_is_exact(input_bits, weight_bits, signed_weights, signed_inputs):
    """Every (weight, input) pair of the widths: the outer product of all values."""
    weights = _all_values(weight_bits, signed_weights)[:, None]
    inputs = _all_values(input_bits, signed_inputs)[None, :]
    fused = fused_matmul(
        weights,
        inputs,
        weight_bits=weight_bits,
        input_bits=input_bits,
        signed_weights=signed_weights,
        signed_inputs=signed_inputs,
    )
    np.testing.assert_array_equal(fused, weights @ inputs)


@pytest.mark.parametrize(("signed_weights", "signed_inputs"), _SIGN_MODES, ids=_SIGN_IDS)
@pytest.mark.parametrize(("input_bits", "weight_bits"), _SIXTEEN_BIT_PAIRS)
def test_sampled_sixteen_bit_pairs(input_bits, weight_bits, signed_weights, signed_inputs):
    """65,536 sampled pairs; a product beyond the 32-bit accumulator must raise."""
    rng = np.random.default_rng(input_bits * 100 + weight_bits)
    weights = random_operands(rng, (256, 1), weight_bits, signed_weights)
    inputs = random_operands(rng, (1, 256), input_bits, signed_inputs)
    expected = weights @ inputs
    kwargs = dict(
        weight_bits=weight_bits,
        input_bits=input_bits,
        signed_weights=signed_weights,
        signed_inputs=signed_inputs,
    )
    if _fits_accumulator(expected):
        np.testing.assert_array_equal(fused_matmul(weights, inputs, **kwargs), expected)
    else:
        # Only unsigned 16 x 16 products reach 2^32 - 2^17 + 1.
        assert (weight_bits, input_bits, signed_weights, signed_inputs) == (16, 16, False, False)
        with pytest.raises(OverflowError):
            fused_matmul(weights, inputs, **kwargs)


@pytest.mark.parametrize("shape", [(9,), (9, 4)], ids=("matvec", "matmul"))
@pytest.mark.parametrize("weight_bits", _SPATIAL_BITS)
@pytest.mark.parametrize("input_bits", _SPATIAL_BITS)
def test_reductions_are_exact(input_bits, weight_bits, shape, rng):
    weights = random_operands(rng, (7, shape[0]), weight_bits)
    inputs = random_operands(rng, shape, input_bits)
    fused = fused_matmul(weights, inputs, weight_bits=weight_bits, input_bits=input_bits)
    assert fused.shape == (7, *shape[1:])
    np.testing.assert_array_equal(fused, weights @ inputs)


def test_mismatched_shapes_are_rejected():
    with pytest.raises(ValueError):
        fused_matmul(np.zeros((3, 4)), np.zeros(5), weight_bits=8, input_bits=8)


# --------------------------------------------------------------------------- #
# One-line errors
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("beyond", ("below", "above"))
@pytest.mark.parametrize("signed", (True, False), ids=("signed", "unsigned"))
@pytest.mark.parametrize("bits", SUPPORTED_BITWIDTHS)
def test_out_of_range_operand_is_a_one_line_error(bits, signed, beyond):
    lo, hi = operand_range(bits, signed)
    bad = np.array([lo - 1 if beyond == "below" else hi + 1])
    good = np.array([lo])
    for name, weights, inputs in (("weights", bad, good), ("inputs", good, bad)):
        with pytest.raises(ValueError) as error:
            fused_matmul(
                weights,
                inputs,
                weight_bits=bits,
                input_bits=bits,
                signed_weights=signed,
                signed_inputs=signed,
            )
        message = str(error.value)
        assert "\n" not in message
        assert message.startswith(f"{name} in [{bad[0]}, {bad[0]}]")


@pytest.mark.parametrize("bits", (0, 3, 32))
def test_unsupported_bitwidth_is_rejected(bits):
    with pytest.raises(ValueError, match="bitwidth must be one of"):
        fused_matmul([1], [1], weight_bits=bits, input_bits=8)


_TOP, _LOW = (1 << 15) - 1, -(1 << 15)


@pytest.mark.parametrize(
    ("weights", "inputs", "total"),
    [
        ([_LOW, _LOW, _TOP], [_LOW, _LOW + 1, 1], (1 << 31) - 1),
        ([_LOW, _LOW, _LOW], [_LOW, _LOW + 1, -1], 1 << 31),
        ([_LOW, _LOW, _LOW], [_TOP, _TOP, 2], -(1 << 31)),
        ([_LOW, _LOW, _LOW], [_TOP, _TOP, 3], -(1 << 31) - (1 << 15)),
    ],
    ids=("top", "past-top", "bottom", "past-bottom"),
)
def test_partial_sum_beyond_32_bits_is_a_one_line_error(weights, inputs, total):
    assert int(np.dot(weights, inputs)) == total
    if _fits_accumulator(np.array([total])):
        assert fused_matmul(weights, inputs, weight_bits=16, input_bits=16) == total
        return
    with pytest.raises(OverflowError) as error:
        fused_matmul(weights, inputs, weight_bits=16, input_bits=16)
    assert "\n" not in str(error.value)
    assert str(error.value).endswith(f"exceed the {PARTIAL_SUM_BITS}-bit accumulator")


# --------------------------------------------------------------------------- #
# Convolution lowering
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    ("kernel", "stride", "padding"), [(1, 1, 0), (2, 2, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2)]
)
def test_im2col_column_is_the_receptive_field(kernel, stride, padding, rng):
    inputs = rng.integers(-8, 8, size=(3, 7, 6))
    columns = im2col(inputs, kernel, stride, padding)
    padded = np.pad(inputs, ((0, 0), (padding, padding), (padding, padding)))
    out_h = (7 + 2 * padding - kernel) // stride + 1
    out_w = (6 + 2 * padding - kernel) // stride + 1
    assert columns.shape == (3 * kernel * kernel, out_h * out_w)
    for oy in range(out_h):
        for ox in range(out_w):
            patch = padded[:, oy * stride : oy * stride + kernel, ox * stride : ox * stride + kernel]
            np.testing.assert_array_equal(columns[:, oy * out_w + ox], patch.reshape(-1))


def test_im2col_convolution_matches_a_hand_computed_sum():
    inputs = np.arange(16).reshape(1, 4, 4)
    out = np.ones((1, 4), dtype=np.int64) @ im2col(inputs, kernel=2)
    assert out.shape == (1, 9)
    assert out[0, 0] == 0 + 1 + 4 + 5
    assert out[0, 8] == 10 + 11 + 14 + 15


@pytest.mark.parametrize(
    ("shape", "kernel", "stride", "padding"),
    [
        ((1, 4, 4), 0, 1, 0),
        ((1, 4, 4), 2, 0, 0),
        ((1, 4, 4), 2, 1, -1),
        ((4, 4), 2, 1, 0),
        ((1, 2, 2), 5, 1, 1),
    ],
    ids=("kernel-0", "stride-0", "negative-padding", "2-d-input", "kernel-too-big"),
)
def test_im2col_rejects_bad_parameters(shape, kernel, stride, padding):
    with pytest.raises(ValueError) as error:
        im2col(np.zeros(shape), kernel, stride, padding)
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    ("input_bits", "weight_bits", "stride"), [(2, 2, 1), (4, 2, 1), (8, 2, 2), (4, 4, 2)]
)
def test_convolution_gemm_through_bricks_is_exact(input_bits, weight_bits, stride, rng):
    inputs = random_operands(rng, (3, 6, 6), input_bits)
    kernels = random_operands(rng, (4, 3, 3, 3), weight_bits).reshape(4, -1)
    columns = im2col(inputs, 3, stride, padding=1)
    fused = fused_matmul(kernels, columns, weight_bits=weight_bits, input_bits=input_bits)
    np.testing.assert_array_equal(fused, kernels @ columns)


# --------------------------------------------------------------------------- #
# Operand draws
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("signed", (True, False), ids=("signed", "unsigned"))
@pytest.mark.parametrize("bits", SUPPORTED_BITWIDTHS)
def test_random_operands_fill_their_declared_range(bits, signed, rng):
    values = random_operands(rng, (64, 64), bits, signed)
    lo, hi = operand_range(bits, signed)
    assert values.dtype == np.int64
    assert values.shape == (64, 64)
    assert lo <= values.min() and values.max() <= hi
    if bits <= 8:
        assert (values.min(), values.max()) == (lo, hi)


def test_random_operands_draw_one_uniform_integer_stream():
    """The draw is ``rng.integers`` over the range, so seeded scripts keep their values."""
    drawn = random_operands(np.random.default_rng(3), (5, 2), bits=4)
    np.testing.assert_array_equal(
        drawn, np.random.default_rng(3).integers(-8, 8, size=(5, 2), dtype=np.int64)
    )
