"""The fixed-function baselines: one platform spec, one per-layer path.

Bit Fusion's headline claims are ratios against Eyeriss (Figures 13, 14),
Stripes (Figure 18) and the same-area temporal design (Section III-C).  Each
of the three is a :class:`PlatformSpec` parameter set — MAC lanes, how each
operand is fed, conv/fc utilization, staging buffers, DRAM bandwidth and
technology — and :class:`PlatformModel` prices every layer of all three
through one path:

* **operands** — an operand runs at the platform's fixed precision or at
  the layer's;
* **compute** — ``ceil(macs / (mac_lanes / cycles_per_mac * utilization))``,
  where an operand fed in parallel costs one cycle per MAC and one
  serialised in ``k``-bit slices costs ``ceil(max(k, bits) / k)``: Eyeriss
  serialises neither operand, Stripes the weight in 1-bit slices, the
  temporal design both in 2-bit slices;
* **DRAM** — the minimum-traffic tiling against the spec's staging buffers,
  or, with ``buffers_kb=None``, one compulsory transfer of each tensor (the
  closed form of that tiling's unbounded-buffer limit, without the search);
* **auxiliary layers** — pooling and activations stream their inputs and
  outputs through DRAM at the platform's activation precision.

A layer's latency is the maximum of its compute and memory cycles
(:func:`~repro.sim.results.compose_network_result`).  Only what really
differs between the platforms stays per-platform code, one small function
each, selected by the spec's ``name``: the on-chip access counts (Eyeriss'
register files and global buffer, Stripes' IBUF/WBUF/OBUF) and the compute
energy (pJ per MAC for Eyeriss and Stripes, unit power × time for the
temporal design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Sequence

from repro.core.config import BitFusionConfig, TechnologyNode
from repro.dnn.layers import ConvLayer, Layer
from repro.dnn.network import Network
from repro.energy.breakdown import EnergyBreakdown
from repro.energy.cacti import SramEnergyModel
from repro.energy.components import (
    TEMPORAL_UNIT_AREA_UM2,
    TEMPORAL_UNIT_POWER_NW,
    ComputeEnergyModel,
    units_in_area,
)
from repro.energy.dram import DRAM_PJ_PER_BIT_45NM, DramEnergyModel
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import GemmWorkload, search_tilings
from repro.sim.results import (
    LayerResult,
    MemoryTraffic,
    NetworkResult,
    compose_network_result,
)

__all__ = [
    "PlatformSpec",
    "PlatformModel",
    "EYERISS",
    "STRIPES",
    "TEMPORAL",
    "PLATFORM_SPECS",
    "LANES_PER_TEMPORAL_UNIT",
    "SAME_AREA_MM2",
    "STRIPES_TILES",
]

_VALID_BITS = (1, 2, 4, 8, 16)

#: Concurrent 2-bit x 2-bit multiply lanes per temporal unit (the unit holds
#: 16 BitBricks, matching the Fusion Unit it is compared against).
LANES_PER_TEMPORAL_UNIT = 16

#: Compute-area budget of the same-area temporal comparison, mm².
SAME_AREA_MM2 = 1.1

#: Stripes tiles; each owns a 1/16 slice of the eDRAM (Table III).
STRIPES_TILES = 16

#: Stripes' eDRAM: its on-chip store and, split 40/40/20, its staging buffers.
_STRIPES_EDRAM_KB = 2048.0

#: Eyeriss row-stationary accesses per multiply-accumulate: the register
#: file reads input, filter and partial sum and writes the partial sum back;
#: the global buffer sees what the register files do not filter.
_EYERISS_RF_ACCESSES_PER_MAC = 4.0
_EYERISS_GLB_ACCESSES_PER_MAC = 0.25


@dataclass(frozen=True)
class PlatformSpec:
    """One fixed-function platform as a parameter set.

    Attributes
    ----------
    name:
        ``"eyeriss"``, ``"stripes"`` or ``"temporal"``: labels the results
        and selects the platform's on-chip access and compute-energy rules.
    mac_lanes:
        Multiply-accumulate lanes (PEs, SIPs, 2-bit temporal multipliers).
    frequency_mhz:
        Clock frequency.
    input_bits, weight_bits:
        Fixed operand precision, or ``None`` to run at the layer's.  A
        fixed ``input_bits`` is also the output and auxiliary-layer
        precision.  Stripes' serial inner-product units hold their input
        in parallel at 8 or 16 bits.
    input_slice_bits, weight_slice_bits:
        ``None`` feeds the operand in parallel; ``k`` serialises it in
        ``k``-bit slices, one per cycle.
    conv_utilization, fc_utilization:
        Fraction of the peak the dataflow sustains on convolutional and on
        fully-connected/recurrent layers.
    dram_bandwidth_bits_per_cycle:
        Off-chip bandwidth.
    buffers_kb:
        (input, weight, output) staging buffers DRAM traffic is tiled
        against, or ``None`` for one compulsory transfer of each tensor.
    on_chip_kb:
        The on-chip store whose access energy prices on-chip traffic
        (Eyeriss' global buffer, Stripes' eDRAM); the temporal design
        models none.  It sizes no staging buffer: ``buffers_kb`` does.
    technology:
        Process node; dynamic energy scales with it.
    """

    name: str
    mac_lanes: int
    frequency_mhz: float
    input_bits: int | None = None
    weight_bits: int | None = None
    input_slice_bits: int | None = None
    weight_slice_bits: int | None = None
    conv_utilization: float = 1.0
    fc_utilization: float = 1.0
    dram_bandwidth_bits_per_cycle: int = 128
    buffers_kb: tuple[float, float, float] | None = None
    on_chip_kb: float = 0.0
    technology: TechnologyNode = field(default_factory=TechnologyNode.nm45)

    def __post_init__(self) -> None:
        def bad(label: str, expected: str, value: object) -> ValueError:
            return ValueError(f"PlatformSpec.{label} must be {expected}, got {value!r}")

        if self.name not in _PLATFORM_COSTS:
            raise bad("name", f"one of {tuple(_PLATFORM_COSTS)}", self.name)
        for label in ("mac_lanes", "frequency_mhz", "dram_bandwidth_bits_per_cycle"):
            if not getattr(self, label) > 0:
                raise bad(label, "positive", getattr(self, label))
        for label in ("conv_utilization", "fc_utilization"):
            if not 0.0 < getattr(self, label) <= 1.0:
                raise bad(label, "in (0, 1]", getattr(self, label))
        for label in ("input_bits", "weight_bits"):
            if getattr(self, label) not in (None, *_VALID_BITS):
                raise bad(label, f"None or one of {_VALID_BITS}", getattr(self, label))
        if self.name == "stripes" and self.input_bits not in (8, 16):
            raise bad("input_bits", "8 or 16 on stripes", self.input_bits)
        for label in ("input_slice_bits", "weight_slice_bits"):
            value = getattr(self, label)
            if value is not None and value < 1:
                raise bad(label, "None or at least 1", value)
        if self.buffers_kb is not None and (
            len(self.buffers_kb) != 3 or min(self.buffers_kb) <= 0
        ):
            raise bad("buffers_kb", "None or three positive sizes", self.buffers_kb)
        if self.name in ("eyeriss", "stripes") and not self.on_chip_kb > 0:
            raise bad("on_chip_kb", f"positive on {self.name}", self.on_chip_kb)

    def operand_bits(self, layer: Layer) -> tuple[int, int, int]:
        """(input, weight, output) bits a layer's GEMM runs at on this platform."""
        weight = layer.weight_bits if self.weight_bits is None else self.weight_bits
        if self.input_bits is None:
            return layer.input_bits, weight, layer.output_bits
        return self.input_bits, weight, self.input_bits

    def cycles_per_mac(self, input_bits: int, weight_bits: int) -> int:
        """Cycles one lane spends per multiply-accumulate at these bitwidths."""
        return _slices(input_bits, self.input_slice_bits) * _slices(
            weight_bits, self.weight_slice_bits
        )


def _slices(bits: int, slice_bits: int | None) -> int:
    if bits <= 0:
        raise ValueError(f"operand bitwidths must be positive, got {bits}")
    return 1 if slice_bits is None else ceil(max(slice_bits, bits) / slice_bits)


class PlatformModel:
    """Prices every layer of a :class:`PlatformSpec` platform."""

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.compute_energy = ComputeEnergyModel(technology=spec.technology)
        self._dram = DramEnergyModel(
            pj_per_bit=DRAM_PJ_PER_BIT_45NM * spec.technology.energy_scale
        )
        self._costs = _PLATFORM_COSTS[spec.name]
        self._buffers = None
        if spec.buffers_kb is not None:
            ibuf_kb, wbuf_kb, obuf_kb = spec.buffers_kb
            self._buffers = BitFusionConfig(
                rows=1,
                columns=1,
                ibuf_kb=ibuf_kb,
                wbuf_kb=wbuf_kb,
                obuf_kb=obuf_kb,
                name="baseline-buffers",
            )

    def gemm_workload(self, layer: Layer, batch_size: int) -> GemmWorkload:
        """The GEMM a layer presents to this platform, at its operand bits."""
        shape = layer.gemm_shape()
        input_bits, weight_bits, output_bits = self.spec.operand_bits(layer)
        return GemmWorkload(
            m=shape.m,
            n=shape.n,
            r=shape.repeats * batch_size,
            input_bits=input_bits,
            weight_bits=weight_bits,
            output_bits=output_bits,
        )

    def dram_bits(self, gemms: Sequence[GemmWorkload]) -> list[tuple[int, int, int]]:
        """(read bits, write bits, weight-column tiles) of each GEMM's DRAM traffic.

        With staging buffers, every GEMM's minimum-traffic tiling over all
        loop orders comes from one batched search.
        """
        if self._buffers is None:
            return [
                (
                    gemm.weight_footprint_bits + gemm.input_footprint_bits,
                    gemm.output_footprint_bits,
                    1,
                )
                for gemm in gemms
            ]
        return [
            (
                plan.dram_weight_bits + plan.dram_input_bits + plan.dram_output_read_bits,
                plan.dram_output_write_bits,
                plan.n_tiles,
            )
            for plan in search_tilings(gemms, self._buffers, tuple(LoopOrder))
        ]

    def _gemm_layer(
        self, layer: Layer, gemm: GemmWorkload, dram: tuple[int, int, int]
    ) -> LayerResult:
        spec = self.spec
        macs = gemm.macs
        utilization = (
            spec.conv_utilization if isinstance(layer, ConvLayer) else spec.fc_utilization
        )
        cycles_per_mac = spec.cycles_per_mac(gemm.input_bits, gemm.weight_bits)
        compute_cycles = ceil(macs / (spec.mac_lanes / cycles_per_mac * utilization))
        read, write, n_tiles = dram
        on_chip, compute, buffers, register_file = self._costs(
            self, gemm, n_tiles, compute_cycles
        )
        return LayerResult(
            name=layer.name,
            macs=macs,
            input_bits=gemm.input_bits,
            weight_bits=gemm.weight_bits,
            compute_cycles=compute_cycles,
            memory_cycles=ceil((read + write) / spec.dram_bandwidth_bits_per_cycle),
            traffic=MemoryTraffic(dram_read_bits=read, dram_write_bits=write, **on_chip),
            energy=EnergyBreakdown(
                compute=compute,
                buffers=buffers,
                register_file=register_file,
                dram=self._dram.energy_for_bits_j(read + write),
            ),
            utilization=utilization,
        )

    def _auxiliary_layer(self, layer: Layer, batch_size: int) -> LayerResult:
        """Pooling/activation: activations stream through DRAM, no compute."""
        fixed = self.spec.input_bits
        input_bits = layer.input_bits if fixed is None else fixed
        output_bits = layer.output_bits if fixed is None else fixed
        read = layer.input_elements() * batch_size * input_bits
        write = layer.output_elements() * batch_size * output_bits
        return LayerResult(
            name=layer.name,
            macs=0,
            input_bits=input_bits,
            weight_bits=layer.weight_bits if fixed is None else fixed,
            compute_cycles=0,
            memory_cycles=ceil((read + write) / self.spec.dram_bandwidth_bits_per_cycle),
            traffic=MemoryTraffic(dram_read_bits=read, dram_write_bits=write),
            energy=EnergyBreakdown(dram=self._dram.energy_for_bits_j(read + write)),
            utilization=0.0,
        )

    def evaluate(self, network: Network, batch_size: int) -> NetworkResult:
        """Price every layer: all GEMMs first, their DRAM traffic in one search."""
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        gemms = [self.gemm_workload(layer, batch_size) for layer in network if layer.has_gemm()]
        planned = iter(zip(gemms, self.dram_bits(gemms)))
        return compose_network_result(
            network_name=network.name,
            platform=self.name,
            batch_size=batch_size,
            frequency_mhz=self.spec.frequency_mhz,
            layers=[
                self._gemm_layer(layer, *next(planned))
                if layer.has_gemm()
                else self._auxiliary_layer(layer, batch_size)
                for layer in network
            ],
        )

    def describe(self) -> str:
        spec = self.spec
        return (
            f"{spec.name}: {spec.mac_lanes} MAC lanes at {spec.frequency_mhz:.0f} MHz, "
            f"{spec.technology.name}"
        )


# ---------------------------------------------------------------------- #
# Per-platform rules: (on-chip traffic, compute J, buffers J, register file J)
# ---------------------------------------------------------------------- #
_Costs = tuple[dict[str, int], float, float, float]


def _eyeriss_costs(
    model: PlatformModel, gemm: GemmWorkload, n_tiles: int, compute_cycles: int
) -> _Costs:
    """Row-stationary PEs: per-MAC register-file and global-buffer accesses.

    The register files dominate Eyeriss' energy (Figure 14).
    """
    macs, bits = gemm.macs, gemm.input_bits
    register_file_bits = int(macs * _EYERISS_RF_ACCESSES_PER_MAC * bits)
    glb_bits = int(macs * _EYERISS_GLB_ACCESSES_PER_MAC * bits)
    glb = SramEnergyModel(capacity_kb=model.spec.on_chip_kb, access_bits=64)
    energy = model.compute_energy
    return (
        {"ibuf_read_bits": glb_bits, "register_file_bits": register_file_bits},
        macs * energy.eyeriss_mac_energy_pj() * 1e-12,
        glb.energy_for_bits_j(glb_bits) * model.spec.technology.energy_scale,
        macs * energy.eyeriss_rf_energy_per_mac_pj(_EYERISS_RF_ACCESSES_PER_MAC) * 1e-12,
    )


def _stripes_costs(
    model: PlatformModel, gemm: GemmWorkload, n_tiles: int, compute_cycles: int
) -> _Costs:
    """Serial inner-product units: inputs shared across a 16-SIP row group,
    weights re-streamed one bit per cycle, 32-bit partial sums written once
    per weight-column tile, all in one tile's slice of the eDRAM."""
    macs = gemm.macs
    ibuf_bits = int(macs * gemm.input_bits / 16)
    wbuf_bits = int(macs * gemm.weight_bits)
    obuf_bits = int(gemm.m * gemm.r * 32 * n_tiles)
    edram = SramEnergyModel(capacity_kb=model.spec.on_chip_kb / STRIPES_TILES, access_bits=64)
    return (
        {"ibuf_read_bits": ibuf_bits, "wbuf_read_bits": wbuf_bits, "obuf_write_bits": obuf_bits},
        macs * model.compute_energy.stripes_mac_energy_pj(gemm.weight_bits) * 1e-12,
        edram.energy_for_bits_j(ibuf_bits + wbuf_bits + obuf_bits)
        * model.spec.technology.energy_scale,
        0.0,
    )


def _temporal_costs(
    model: PlatformModel, gemm: GemmWorkload, n_tiles: int, compute_cycles: int
) -> _Costs:
    """Temporal units: no modelled on-chip traffic; unit power × compute time."""
    units = model.spec.mac_lanes // LANES_PER_TEMPORAL_UNIT
    seconds = compute_cycles / (model.spec.frequency_mhz * 1e6)
    return {}, units * TEMPORAL_UNIT_POWER_NW * 1e-9 * seconds, 0.0, 0.0


_PLATFORM_COSTS: dict[str, Callable[[PlatformModel, GemmWorkload, int, int], _Costs]] = {
    "eyeriss": _eyeriss_costs,
    "stripes": _stripes_costs,
    "temporal": _temporal_costs,
}

#: Eyeriss (Chen et al., ISCA 2016; Table III): 168 row-stationary PEs at
#: 500 MHz, every operand at 16 bits whatever the model tolerates, a 181.5 KB
#: global buffer.  Its dataflow reuses every tensor near-ideally, so DRAM
#: charges one transfer of each (deliberately generous to the baseline).
EYERISS = PlatformSpec(
    name="eyeriss",
    mac_lanes=168,
    frequency_mhz=500.0,
    input_bits=16,
    weight_bits=16,
    conv_utilization=0.85,
    fc_utilization=0.70,
    dram_bandwidth_bits_per_cycle=128,
    on_chip_kb=181.5,
)

#: Stripes (Judd et al., MICRO 2016; Table III): 16 tiles of 4,096 serial
#: inner-product units at 980 MHz with 16-bit parallel inputs and weights
#: streamed one bit per cycle, so a layer takes time proportional to its
#: weight bits.  DRAM traffic tiles against a 40/40/20 split of its 2 MB eDRAM.
STRIPES = PlatformSpec(
    name="stripes",
    mac_lanes=STRIPES_TILES * 4096,
    frequency_mhz=980.0,
    input_bits=16,
    weight_slice_bits=1,
    conv_utilization=0.85,
    fc_utilization=0.70,
    dram_bandwidth_bits_per_cycle=256,
    buffers_kb=(_STRIPES_EDRAM_KB * 0.4, _STRIPES_EDRAM_KB * 0.4, _STRIPES_EDRAM_KB * 0.2),
    on_chip_kb=_STRIPES_EDRAM_KB,
)

#: The purely temporal design of Figures 8 and 10 in Bit Fusion's compute
#: area: each 2-bit x 2-bit lane iterates over both operands' 2-bit slices,
#: at the layer's quantized bitwidths (its weakness is area and power, not
#: precision), with the same compulsory DRAM charge as Eyeriss.
TEMPORAL = PlatformSpec(
    name="temporal",
    mac_lanes=units_in_area(SAME_AREA_MM2, TEMPORAL_UNIT_AREA_UM2) * LANES_PER_TEMPORAL_UNIT,
    frequency_mhz=500.0,
    input_slice_bits=2,
    weight_slice_bits=2,
    dram_bandwidth_bits_per_cycle=128,
)

#: The spec each fixed-function workload platform defaults to.
PLATFORM_SPECS = {spec.name: spec for spec in (EYERISS, STRIPES, TEMPORAL)}
