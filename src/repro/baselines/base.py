"""Shared machinery for the baseline accelerator models.

Every baseline (Eyeriss, Stripes, the GPUs) runs the same networks and is
reported through the same :class:`~repro.sim.results.NetworkResult` records
as Bit Fusion.  This module provides

* :class:`AcceleratorModel` — the abstract interface (``run(network,
  batch_size)``) the experiment harness drives, and
* :func:`dram_traffic_for_workload` — a helper that reuses the Fusion-ISA
  tiling machinery to estimate a baseline's off-chip traffic at *its* operand
  bitwidths and buffer capacities, so the comparison charges every platform
  the traffic its own precision implies (16-bit everything for Eyeriss,
  16-bit inputs for Stripes, FP32/INT8 for the GPUs).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.config import BitFusionConfig
from repro.dnn.layers import Layer
from repro.dnn.network import Network
from repro.isa.optimizations import choose_loop_order
from repro.isa.tiling import GemmWorkload, TilingPlan
from repro.sim.results import NetworkResult

__all__ = ["AcceleratorModel", "dram_traffic_for_workload", "layer_gemm_workload"]


def layer_gemm_workload(
    layer: Layer,
    batch_size: int,
    input_bits: int | None = None,
    weight_bits: int | None = None,
    output_bits: int | None = None,
) -> GemmWorkload:
    """The GEMM a layer presents to a platform, at that platform's bitwidths.

    Passing explicit bitwidths overrides the layer's quantized declaration —
    Eyeriss, for example, executes every layer at 16 bits regardless of the
    bitwidth the quantized model could tolerate.
    """
    if not layer.has_gemm():
        raise ValueError(f"layer {layer.name!r} does not lower to a GEMM")
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    shape = layer.gemm_shape()
    return GemmWorkload(
        m=shape.m,
        n=shape.n,
        r=shape.repeats * batch_size,
        input_bits=input_bits if input_bits is not None else layer.input_bits,
        weight_bits=weight_bits if weight_bits is not None else layer.weight_bits,
        output_bits=output_bits if output_bits is not None else layer.output_bits,
    )


def dram_traffic_for_workload(
    workload: GemmWorkload,
    ibuf_kb: float,
    wbuf_kb: float,
    obuf_kb: float,
) -> TilingPlan:
    """Minimum-traffic tiling of a workload against a platform's buffer sizes.

    The baseline platforms have their own on-chip storage hierarchies; this
    helper reuses the loop-ordering/tiling optimizer so each baseline gets
    the best dataflow its buffers allow, which keeps the comparison fair
    (the paper likewise uses each baseline's own optimized schedule).
    """
    pseudo_config = BitFusionConfig(
        rows=1,
        columns=1,
        ibuf_kb=ibuf_kb,
        wbuf_kb=wbuf_kb,
        obuf_kb=obuf_kb,
        name="baseline-buffers",
    )
    return choose_loop_order(workload, pseudo_config)


class AcceleratorModel(ABC):
    """Common interface of every platform model in the reproduction.

    ``evaluate(network, batch_size)`` is the protocol the evaluation session
    (:mod:`repro.session`) drives: every platform — Bit Fusion itself, the
    baselines, and the temporal design — implements it, so the session can
    cache and schedule all of them uniformly.  ``run`` is a concrete
    alias kept for the library's historical surface.

    Under the staged pipeline (compile → simulate-blocks → compose,
    :mod:`repro.session.engine`), ``evaluate`` is the single-stage face of
    each platform: Bit Fusion's implementation is the composition of its
    three cacheable stages, while the baselines simulate per layer and
    compose through the same
    :func:`~repro.sim.results.compose_network_result` stage, so every
    platform's per-layer records aggregate identically.
    """

    #: Platform name used in result records and reports.
    name: str = "accelerator"

    @abstractmethod
    def evaluate(self, network: Network, batch_size: int | None = None) -> NetworkResult:
        """Run a network at the given batch size and return its results."""

    def run(self, network: Network, batch_size: int | None = None) -> NetworkResult:
        """Alias of :meth:`evaluate` (the original entry-point name)."""
        return self.evaluate(network, batch_size=batch_size)

    def describe(self) -> str:
        """One-line human-readable description of the platform."""
        return self.name
