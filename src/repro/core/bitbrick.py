"""Section III as arithmetic: a wide GEMM is a shift-add of 2-bit BitBrick GEMMs.

A BitBrick (paper Figure 5) multiplies two 2-bit operands, each signed
(two's complement, -2..1) or unsigned (0..3).  Bit Fusion's central claim
(Equations 1-3, Figures 6 and 7) is that a p-bit by q-bit multiply is
*exactly* the shift-add of BitBrick products over the operands' 2-bit
slices.  Over whole matrices this reads

    W @ X = Σ_j Σ_i (W_j @ X_i) << 2·(i + j)

where ``W_j`` and ``X_i`` hold the j-th and i-th 2-bit slices of every
element.  For a signed operand the most significant slice is signed and
the lower slices are unsigned, which is what the BitBricks' per-operand
sign flags select.  1-bit operands ride a 2-bit lane; 16-bit operands are
eight slices, which the hardware iterates over temporally (Section III-C)
but which sum the same way.

This module is the functional model of that identity, and the only one:
:func:`fused_matmul` computes a GEMM through it and is checked against
NumPy's integer ``@``.  :func:`im2col` lowers a convolution to the GEMM
the fabric runs, and :func:`random_operands` draws operands of a declared
width.  The performance model (:mod:`repro.core.fusion_unit`) does not
use it, so no command loads this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.fusion_unit import PARTIAL_SUM_BITS, SUPPORTED_BITWIDTHS

__all__ = [
    "SLICE_BITS",
    "operand_range",
    "operand_slices",
    "fused_matmul",
    "im2col",
    "random_operands",
]

#: Bits per BitBrick operand.
SLICE_BITS = 2


def operand_range(bits: int, signed: bool) -> tuple[int, int]:
    """Inclusive range of a ``bits``-wide operand, signed or unsigned."""
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def operand_slices(
    values: np.ndarray, bits: int, signed: bool, name: str = "operand"
) -> list[np.ndarray]:
    """The 2-bit slices of ``bits``-wide ``values``, least significant first.

    Every slice is a BitBrick input: 0..3, except the top slice of a signed
    operand, which is -2..1.  ``sum(s << 2*k for k, s in enumerate(slices))``
    equals ``values``.  A width outside ``SUPPORTED_BITWIDTHS`` or values
    outside the operand's range raise :class:`ValueError`.
    """
    if bits not in SUPPORTED_BITWIDTHS:
        raise ValueError(f"{name} bitwidth must be one of {SUPPORTED_BITWIDTHS}, got {bits}")
    values = np.asarray(values, dtype=np.int64)
    lo, hi = operand_range(bits, signed)
    if values.size and not (lo <= values.min() and values.max() <= hi):
        kind = "signed" if signed else "unsigned"
        raise ValueError(
            f"{name} in [{values.min()}, {values.max()}] outside the {kind} "
            f"{bits}-bit range [{lo}, {hi}]"
        )
    count = max(bits, SLICE_BITS) // SLICE_BITS
    slices = [(values >> (SLICE_BITS * k)) & 0b11 for k in range(count)]
    if signed:
        slices[-1] = slices[-1] - ((slices[-1] & 0b10) << 1)
    return slices


def fused_matmul(
    weights,
    inputs,
    *,
    weight_bits: int,
    input_bits: int,
    signed_weights: bool = True,
    signed_inputs: bool = True,
) -> np.ndarray:
    """``weights @ inputs`` computed as the shift-add of 2-bit slice GEMMs.

    Operands outside their declared width raise :class:`ValueError`.  The
    output buffer accumulates in a ``PARTIAL_SUM_BITS``-wide two's-complement
    register, which wraps; the result is therefore exact exactly when every
    output fits it, and :class:`OverflowError` is raised otherwise.
    """
    w_slices = operand_slices(weights, weight_bits, signed_weights, "weights")
    x_slices = operand_slices(inputs, input_bits, signed_inputs, "inputs")
    total = sum(
        (w_j @ x_i) << (SLICE_BITS * (i + j))
        for j, w_j in enumerate(w_slices)
        for i, x_i in enumerate(x_slices)
    )
    lo, hi = operand_range(PARTIAL_SUM_BITS, signed=True)
    if total.size and not (lo <= total.min() and total.max() <= hi):
        raise OverflowError(
            f"partial sums in [{total.min()}, {total.max()}] exceed the "
            f"{PARTIAL_SUM_BITS}-bit accumulator"
        )
    return total


def im2col(inputs, kernel: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Unfold a ``(C, H, W)`` input into the convolution GEMM's columns.

    Returns ``(C * kernel * kernel, out_h * out_w)``: column ``oy * out_w +
    ox`` is the receptive field of output ``(oy, ox)``, so the convolution
    is ``weights.reshape(C_out, -1) @ im2col(...)``.
    """
    inputs = np.asarray(inputs, dtype=np.int64)
    if inputs.ndim != 3 or kernel <= 0 or stride <= 0 or padding < 0:
        raise ValueError(
            f"im2col needs a (C, H, W) input, kernel and stride > 0 and padding >= 0; "
            f"got shape {inputs.shape}, kernel {kernel}, stride {stride}, padding {padding}"
        )
    padded = np.pad(inputs, ((0, 0), (padding, padding), (padding, padding)))
    if min(padded.shape[1:]) < kernel:
        raise ValueError(
            f"a {kernel}x{kernel} kernel does not fit the padded input {padded.shape}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    channels, out_h, out_w = windows.shape[:3]
    return windows.transpose(0, 3, 4, 1, 2).reshape(channels * kernel * kernel, out_h * out_w)


def random_operands(
    rng: np.random.Generator, shape, bits: int, signed: bool = True
) -> np.ndarray:
    """Uniform ``int64`` operands over the full ``bits``-wide range."""
    lo, hi = operand_range(bits, signed)
    return rng.integers(lo, hi + 1, size=shape, dtype=np.int64)
