"""Systolic array of Fusion Units.

The Bit Fusion accelerator organizes its Fusion Units as a 2-D systolic
array (paper Figure 3): input values are shared across every Fusion Unit of
a row, weights are private to each unit (held in the per-unit WBUF), and
partial sums flow down the columns into per-column accumulators, pooling
and activation units, and finally the output buffer.

The whole array therefore behaves as a single matrix–vector engine whose
*logical* width and height depend on the current fusion configuration: with
``F`` Fused-PEs per Fusion Unit, an ``R×C`` array retires ``R·C·F``
multiply-accumulates per cycle (divided by the temporal-pass count for
16-bit operands).

:class:`SystolicArray` is the **functional** model: its matrix–vector and
matrix–matrix multiplies route every scalar multiply through the BitBrick
decomposition (used by the correctness tests and the examples).  The array's
cycle and buffer-access counts have one implementation, the block simulator
(:func:`repro.sim.batched.simulate_blocks_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import FusionConfig, FusionUnit

__all__ = ["SystolicDimensions", "SystolicArray"]


@dataclass(frozen=True)
class SystolicDimensions:
    """Logical dimensions of the array under a fusion configuration.

    Attributes
    ----------
    rows, columns:
        Physical Fusion Unit grid.
    fused_pes_per_unit:
        Fused-PEs formed in each unit.
    logical_rows:
        Input-vector elements consumed per cycle (= rows × F-PEs per unit,
        because each Fused-PE in a unit multiplies a distinct input lane).
    logical_columns:
        Output elements produced in parallel (= columns).
    """

    rows: int
    columns: int
    fused_pes_per_unit: int
    temporal_passes: int

    @property
    def logical_rows(self) -> int:
        return self.rows * self.fused_pes_per_unit

    @property
    def logical_columns(self) -> int:
        return self.columns

    @property
    def macs_per_cycle(self) -> float:
        return self.rows * self.columns * self.fused_pes_per_unit / self.temporal_passes


class SystolicArray:
    """Functional model of the Fusion Unit systolic array."""

    def __init__(self, config: BitFusionConfig) -> None:
        self.config = config
        self._fusion_config: FusionConfig | None = None
        # A single functional FusionUnit is enough for numeric execution:
        # all units perform identical arithmetic, only the mapping differs.
        self._unit = FusionUnit()

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def configure(self, input_bits: int, weight_bits: int) -> SystolicDimensions:
        """Apply a fusion configuration to every unit in the array."""
        self._fusion_config = self._unit.configure(input_bits, weight_bits)
        return self.dimensions

    @property
    def fusion_config(self) -> FusionConfig:
        if self._fusion_config is None:
            raise RuntimeError(
                "SystolicArray is not configured; call configure(input_bits, weight_bits)"
            )
        return self._fusion_config

    @property
    def dimensions(self) -> SystolicDimensions:
        cfg = self.fusion_config
        return SystolicDimensions(
            rows=self.config.rows,
            columns=self.config.columns,
            fused_pes_per_unit=cfg.fused_pes,
            temporal_passes=cfg.temporal_passes,
        )

    # ------------------------------------------------------------------ #
    # Functional execution
    # ------------------------------------------------------------------ #
    def matvec(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        signed_inputs: bool = True,
        signed_weights: bool = True,
    ) -> np.ndarray:
        """Matrix–vector product ``weights @ inputs`` through the fusion fabric.

        ``weights`` has shape ``(M, N)`` and ``inputs`` has shape ``(N,)``.
        Every scalar multiply is executed by decomposing the operands onto
        BitBricks, so the result is bit-exact with integer arithmetic while
        exercising the composable datapath end to end.
        """
        weights = np.asarray(weights)
        inputs = np.asarray(inputs)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if inputs.ndim != 1:
            raise ValueError(f"inputs must be 1-D, got shape {inputs.shape}")
        if weights.shape[1] != inputs.shape[0]:
            raise ValueError(
                f"dimension mismatch: weights {weights.shape} @ inputs {inputs.shape}"
            )

        out = np.zeros(weights.shape[0], dtype=np.int64)
        for m in range(weights.shape[0]):
            out[m] = self._unit.dot_product(
                inputs.tolist(),
                weights[m].tolist(),
                signed_inputs=signed_inputs,
                signed_weights=signed_weights,
            )
        return out

    def matmul(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        signed_inputs: bool = True,
        signed_weights: bool = True,
    ) -> np.ndarray:
        """Matrix–matrix product ``weights @ inputs`` through the fusion fabric.

        ``weights`` is ``(M, N)``, ``inputs`` is ``(N, B)``; the result is
        ``(M, B)``.  Used by the functional layer execution in the examples.
        """
        inputs = np.asarray(inputs)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {inputs.shape}")
        columns = [
            self.matvec(
                weights,
                inputs[:, b],
                signed_inputs=signed_inputs,
                signed_weights=signed_weights,
            )
            for b in range(inputs.shape[1])
        ]
        return np.stack(columns, axis=1)
