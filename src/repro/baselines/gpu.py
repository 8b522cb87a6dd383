"""GPU roofline models: Tegra X2 and Titan Xp (Figure 17).

The paper measures the GPUs with TensorRT and 10,000 timed batches.  Without
GPU hardware, this reproduction substitutes roofline models built from the
published device parameters (Table III): a layer's execution time is the
maximum of its compute time at the device's (de-rated) peak throughput and
its memory time at the device's DRAM bandwidth; energy is the thermal design
power integrated over that time.  The de-rating factors reflect the fraction
of peak a well-tuned DNN library achieves and are the one calibration knob;
they are documented on each :class:`GpuSpec` instance.

Two precision modes are modelled, matching the figure: FP32 and the 8-bit
integer path (dp4a) that only the Titan Xp supports natively — the paper
notes that Tegra X2 *slows down* when 8-bit instructions are forced, so the
TX2 model exposes FP32 (and FP16) only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from math import ceil

from repro.dnn.layers import Layer
from repro.dnn.network import Network
from repro.energy.breakdown import EnergyBreakdown
from repro.sim.results import (
    LayerResult,
    MemoryTraffic,
    NetworkResult,
    compose_network_result,
)

__all__ = ["GpuPrecision", "GpuSpec", "GpuModel", "TEGRA_X2", "TITAN_XP"]

#: The roofline model expresses time in cycles of a nominal 1 GHz clock so
#: the shared :class:`NetworkResult` record (which is cycle-based) applies.
_NOMINAL_FREQUENCY_MHZ = 1000.0


@unique
class GpuPrecision(Enum):
    """Numeric precision of the GPU execution path."""

    FP32 = "fp32"
    INT8 = "int8"


@dataclass(frozen=True)
class GpuSpec:
    """Published device parameters plus achievable-fraction de-ratings.

    Attributes
    ----------
    peak_fp32_gflops / peak_int8_gops:
        Peak arithmetic throughput of each precision path (0 disables the
        path, e.g. INT8 on the Tegra X2).
    memory_bandwidth_gb_s:
        Peak DRAM bandwidth.
    tdp_w:
        Thermal design power, used as the sustained power draw.
    cuda_cores / clock_mhz / device_memory / technology:
        The device as Table III describes it.  Descriptive only: the
        roofline reads the peaks and fractions, not these.
    achievable_compute_fraction / achievable_bandwidth_fraction:
        Fraction of the peaks a tuned DNN library (TensorRT) sustains.
    """

    name: str
    peak_fp32_gflops: float
    peak_int8_gops: float
    memory_bandwidth_gb_s: float
    tdp_w: float
    cuda_cores: int
    clock_mhz: float
    device_memory: str
    technology: str
    achievable_compute_fraction: float = 0.45
    achievable_bandwidth_fraction: float = 0.70
    achievable_int8_fraction: float = 0.16

    def __post_init__(self) -> None:
        if self.peak_fp32_gflops <= 0:
            raise ValueError("peak_fp32_gflops must be positive")
        if self.memory_bandwidth_gb_s <= 0:
            raise ValueError("memory_bandwidth_gb_s must be positive")
        if self.tdp_w <= 0:
            raise ValueError("tdp_w must be positive")
        if not 0 < self.achievable_compute_fraction <= 1:
            raise ValueError("achievable_compute_fraction must be in (0, 1]")
        if not 0 < self.achievable_bandwidth_fraction <= 1:
            raise ValueError("achievable_bandwidth_fraction must be in (0, 1]")
        if not 0 < self.achievable_int8_fraction <= 1:
            raise ValueError("achievable_int8_fraction must be in (0, 1]")

    def supports(self, precision: GpuPrecision) -> bool:
        if precision is GpuPrecision.INT8:
            return self.peak_int8_gops > 0
        return True

    def achievable_fraction(self, precision: GpuPrecision) -> float:
        """De-rating of the arithmetic peak for the given precision path.

        The dp4a INT8 path has a much lower achievable fraction than FP32:
        TensorRT's INT8 kernels deliver roughly 1.5-2x the FP32 throughput in
        practice (the paper measures 19x vs 12x over the Tegra X2 baseline),
        nowhere near the 4x the raw instruction peak would suggest.
        """
        if precision is GpuPrecision.INT8:
            return self.achievable_int8_fraction
        return self.achievable_compute_fraction

    def peak_gops(self, precision: GpuPrecision) -> float:
        if precision is GpuPrecision.INT8:
            if self.peak_int8_gops <= 0:
                raise ValueError(f"{self.name} has no native INT8 path")
            return self.peak_int8_gops
        return self.peak_fp32_gflops

    def operand_bytes(self, precision: GpuPrecision) -> int:
        return 1 if precision is GpuPrecision.INT8 else 4


#: Tegra X2 (Pascal, 256 CUDA cores, Table III).  FP32 peak ~0.75 TFLOPS.
TEGRA_X2 = GpuSpec(
    name="Tegra X2",
    peak_fp32_gflops=750.0,
    peak_int8_gops=0.0,
    memory_bandwidth_gb_s=58.4,
    tdp_w=7.5,
    cuda_cores=256,
    clock_mhz=875.0,
    device_memory="8 GB LPDDR4",
    technology="16nm",
)

#: Titan Xp (Pascal, 3,584 CUDA cores, Table III).  FP32 ~12.1 TFLOPS, INT8
#: dp4a ~48 TOPS.
TITAN_XP = GpuSpec(
    name="Titan Xp",
    peak_fp32_gflops=12_100.0,
    peak_int8_gops=48_400.0,
    memory_bandwidth_gb_s=547.0,
    tdp_w=250.0,
    achievable_compute_fraction=0.40,
    achievable_bandwidth_fraction=0.70,
    cuda_cores=3584,
    clock_mhz=1531.0,
    device_memory="12 GB GDDR5X",
    technology="16nm",
)


class GpuModel:
    """Roofline performance/energy model of one GPU at one precision.

    It stays outside :class:`~repro.baselines.platform.PlatformSpec` because
    its time is a roofline in seconds over de-rated peaks and its energy is
    TDP × latency, which the per-lane cycle and per-access energy path
    cannot express byte-identically.
    """

    def __init__(self, spec: GpuSpec, precision: GpuPrecision = GpuPrecision.FP32) -> None:
        if not spec.supports(precision):
            raise ValueError(f"{spec.name} does not support {precision.value}")
        self.spec = spec
        self.precision = precision
        self.name = f"{spec.name.lower().replace(' ', '-')}-{precision.value}"

    # ------------------------------------------------------------------ #
    # Per-layer modelling
    # ------------------------------------------------------------------ #
    def _layer_time_s(self, layer: Layer, batch_size: int) -> tuple[float, float, int]:
        """Return (compute_time, memory_time, macs) for one layer per batch."""
        spec = self.spec
        operand_bytes = spec.operand_bytes(self.precision)

        if layer.has_gemm():
            macs = layer.macs() * batch_size
            ops = 2.0 * macs
            compute_time = ops / (
                spec.peak_gops(self.precision)
                * 1e9
                * spec.achievable_fraction(self.precision)
            )
        else:
            macs = 0
            compute_time = 0.0

        moved_bytes = (
            layer.weight_count()
            + (layer.input_elements() + layer.output_elements()) * batch_size
        ) * operand_bytes
        memory_time = moved_bytes / (
            spec.memory_bandwidth_gb_s * 1e9 * spec.achievable_bandwidth_fraction
        )
        return compute_time, memory_time, macs

    def _run_layer(self, layer: Layer, batch_size: int) -> LayerResult:
        compute_time, memory_time, macs = self._layer_time_s(layer, batch_size)
        compute_cycles = ceil(compute_time * _NOMINAL_FREQUENCY_MHZ * 1e6)
        memory_cycles = ceil(memory_time * _NOMINAL_FREQUENCY_MHZ * 1e6)
        latency = max(compute_time, memory_time)
        operand_bits = self.spec.operand_bytes(self.precision) * 8

        moved_bits = (
            layer.weight_count()
            + (layer.input_elements() + layer.output_elements()) * batch_size
        ) * operand_bits
        traffic = MemoryTraffic(dram_read_bits=int(moved_bits))
        # The GPU energy model is TDP integrated over the layer's runtime;
        # the split between components is not observable from outside the
        # device, so everything is attributed to compute.
        energy = EnergyBreakdown(compute=latency * self.spec.tdp_w)
        return LayerResult(
            name=layer.name,
            macs=macs,
            input_bits=operand_bits if operand_bits <= 16 else 16,
            weight_bits=operand_bits if operand_bits <= 16 else 16,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            traffic=traffic,
            energy=energy,
            utilization=self.spec.achievable_fraction(self.precision) if macs else 0.0,
        )

    # ------------------------------------------------------------------ #
    # Network execution
    # ------------------------------------------------------------------ #
    def evaluate(self, network: Network, batch_size: int) -> NetworkResult:
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        layers = tuple(self._run_layer(layer, batch_size) for layer in network)
        return compose_network_result(
            network_name=network.name,
            platform=self.name,
            batch_size=batch_size,
            frequency_mhz=_NOMINAL_FREQUENCY_MHZ,
            layers=layers,
        )
