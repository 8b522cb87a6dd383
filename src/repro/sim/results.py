"""Result records produced by the simulator and the baseline models.

Every accelerator model in this reproduction (Bit Fusion itself, Eyeriss,
Stripes, the temporal design and the GPU rooflines) reports its results
through the same two records so the experiment harness can compute speedups
and energy ratios uniformly:

* :class:`LayerResult` — cycles, memory traffic and energy for one layer
  (or one fused layer group) at one batch size.
* :class:`NetworkResult` — the ordered layer results for one network on one
  platform, with aggregate latency / throughput / energy properties.

Both records are frozen, which is what lets the evaluation session cache
them: ``LayerResult`` is the per-block artifact of the simulate stage,
memoized in process under the name-free layer fingerprint plus the
simulation-affecting configuration (see
:func:`repro.session.engine.plan_program`), and a ``NetworkResult`` is
what a cache directory stores (:func:`repro.session.cache.encode_result`),
read back bit-identical to the freshly composed one.  A cached result is
invalidated only by its key changing — there is no epoch or timestamp
scheme; if the layer content or any simulation-affecting parameter
changes, the old entry is simply never looked up again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, Iterable

from repro.energy.breakdown import EnergyBreakdown

__all__ = [
    "MemoryTraffic",
    "LayerResult",
    "NetworkResult",
    "compose_network_result",
]


@dataclass(frozen=True)
class MemoryTraffic:
    """Bits moved per batch, split by memory structure.

    Traffic is counted at the point data crosses each structure's port:
    DRAM reads/writes on the off-chip interface, one read per operand
    delivered from the input/weight scratchpads, and reads plus writes on
    the output buffer (partial sums travel both ways).  The energy model
    charges each structure's per-bit cost against exactly these counts, so
    the Figure 14 breakdown follows directly from this record.
    """

    dram_read_bits: int = 0
    dram_write_bits: int = 0
    ibuf_read_bits: int = 0
    wbuf_read_bits: int = 0
    obuf_read_bits: int = 0
    obuf_write_bits: int = 0
    register_file_bits: int = 0

    def __post_init__(self) -> None:
        for label, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"{label} must be non-negative, got {value}")

    @property
    def dram_total_bits(self) -> int:
        return self.dram_read_bits + self.dram_write_bits

    def as_dict(self) -> dict[str, int]:
        return {
            "dram_read_bits": self.dram_read_bits,
            "dram_write_bits": self.dram_write_bits,
            "ibuf_read_bits": self.ibuf_read_bits,
            "wbuf_read_bits": self.wbuf_read_bits,
            "obuf_read_bits": self.obuf_read_bits,
            "obuf_write_bits": self.obuf_write_bits,
            "register_file_bits": self.register_file_bits,
        }


@dataclass(frozen=True)
class LayerResult:
    """Performance and energy of one layer (or fused group) for one batch.

    Attributes
    ----------
    name:
        Layer / block name.
    macs:
        Multiply-accumulates executed for the whole batch.
    input_bits, weight_bits:
        Operand bitwidths the layer executed at on this platform.
    compute_cycles, memory_cycles:
        Cycles the compute fabric and the off-chip interface would each need
        in isolation; the block's latency is their maximum because the ISA
        decouples on-chip execution from off-chip transfers (Section IV-A).
    overhead_cycles:
        Instruction fetch/decode and array fill/drain overhead.
    traffic:
        Bits moved per batch, by memory structure.
    energy:
        Energy per batch, by hardware component.
    utilization:
        Fraction of peak multiply-accumulate throughput achieved during the
        compute phase (1.0 = every Fused-PE busy every cycle).
    """

    name: str
    macs: int
    input_bits: int
    weight_bits: int
    compute_cycles: int
    memory_cycles: int
    overhead_cycles: int = 0
    traffic: MemoryTraffic = field(default_factory=MemoryTraffic)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    utilization: float = 0.0

    def __post_init__(self) -> None:
        if self.macs < 0:
            raise ValueError(f"macs must be non-negative, got {self.macs}")
        for label, value in (
            ("compute_cycles", self.compute_cycles),
            ("memory_cycles", self.memory_cycles),
            ("overhead_cycles", self.overhead_cycles),
        ):
            if value < 0:
                raise ValueError(f"{label} must be non-negative, got {value}")
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {self.utilization}")

    @property
    def total_cycles(self) -> int:
        """Latency of the block: decoupled compute/memory overlap plus overheads."""
        return max(self.compute_cycles, self.memory_cycles) + self.overhead_cycles

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_cycles > self.compute_cycles

    def renamed(self, name: str) -> "LayerResult":
        """This record under another name.

        Equal to ``dataclasses.replace(self, name=name)`` but skips
        re-validating fields that were validated when this record was
        built: every block-cache hit renames its shared record to the
        requesting block, and ``replace`` dominated warm NAS estimates.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, name=name)
        return clone


@dataclass(frozen=True)
class NetworkResult:
    """Aggregate result of running one network on one platform.

    All per-layer quantities are *per batch*; the aggregate properties below
    convert to per-inference numbers using :attr:`batch_size`.

    :attr:`total_cycles`, :attr:`total_macs` and :attr:`energy` fold every
    layer, and reports read them many times per result, so each is
    computed once per instance.  The memo sits in the instance ``__dict__``
    outside the dataclass fields: equality, hashing, ``asdict``,
    ``replace`` and pickling ignore it.

    A result read back from a cache directory is :meth:`deferred`: its
    totals come seeded and its :attr:`layers` are built on first read, so
    a sweep that reads only the totals builds no layer record.  It equals,
    hashes, pickles and prints as the result built with its layers.
    """

    network_name: str
    platform: str
    batch_size: int
    frequency_mhz: float
    layers: tuple[LayerResult, ...]

    def __post_init__(self) -> None:
        self._check(len(self.layers))

    def _check(self, layer_count: int) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.frequency_mhz <= 0:
            raise ValueError(f"frequency_mhz must be positive, got {self.frequency_mhz}")
        if not layer_count:
            raise ValueError("a NetworkResult needs at least one layer result")

    @classmethod
    def deferred(
        cls,
        network_name: str,
        platform: str,
        batch_size: int,
        frequency_mhz: float,
        layer_count: int,
        load_layers: Callable[[], tuple[LayerResult, ...]],
        *,
        total_cycles: int,
        total_macs: int,
        energy: EnergyBreakdown,
    ) -> "NetworkResult":
        """A result whose ``layer_count`` layers ``load_layers()`` builds on first read.

        ``total_cycles``, ``total_macs`` and ``energy`` must be the totals
        of those layers: they are seeded into the memos, so the aggregates
        that read only them build no layer.  The caller has checked that
        ``load_layers`` will not raise.  Attributes are set one at a time,
        so instances share their dict keys.
        """
        result = object.__new__(cls)
        set_ = object.__setattr__
        set_(result, "network_name", network_name)
        set_(result, "platform", platform)
        set_(result, "batch_size", batch_size)
        set_(result, "frequency_mhz", frequency_mhz)
        set_(result, "_load_layers", load_layers)
        set_(result, "total_cycles", total_cycles)
        set_(result, "total_macs", total_macs)
        set_(result, "energy", energy)
        result._check(layer_count)
        return result

    def __getattr__(self, name: str) -> Any:
        """Build a :meth:`deferred` result's layers on their first read."""
        load = self.__dict__.get("_load_layers") if name == "layers" else None
        if load is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        layers = load()
        object.__setattr__(self, "layers", layers)
        del self.__dict__["_load_layers"]
        return layers

    def __getstate__(self) -> dict[str, Any]:
        """The fields only: pickles and copies leave the memoized totals behind."""
        return {item.name: getattr(self, item.name) for item in fields(self)}

    # ------------------------------------------------------------------ #
    # Cycle / time aggregates
    # ------------------------------------------------------------------ #
    @cached_property
    def total_cycles(self) -> int:
        """Cycles to process one batch."""
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def compute_cycles(self) -> int:
        return sum(layer.compute_cycles for layer in self.layers)

    @property
    def memory_cycles(self) -> int:
        return sum(layer.memory_cycles for layer in self.layers)

    @property
    def batch_latency_s(self) -> float:
        """Wall-clock seconds to process one batch."""
        return self.total_cycles / (self.frequency_mhz * 1e6)

    @property
    def latency_per_inference_s(self) -> float:
        """Average seconds per inference at this batch size."""
        return self.batch_latency_s / self.batch_size

    @property
    def throughput_inferences_per_s(self) -> float:
        """Inferences per second at this batch size."""
        return 1.0 / self.latency_per_inference_s

    # ------------------------------------------------------------------ #
    # Work / traffic / energy aggregates
    # ------------------------------------------------------------------ #
    @cached_property
    def total_macs(self) -> int:
        """Multiply-accumulates per batch."""
        return sum(layer.macs for layer in self.layers)

    @cached_property
    def energy(self) -> EnergyBreakdown:
        """Energy per batch, by component."""
        return EnergyBreakdown.sum(layer.energy for layer in self.layers)

    @property
    def energy_per_inference_j(self) -> float:
        return self.energy.total / self.batch_size

    @property
    def average_power_w(self) -> float:
        """Average power while processing (energy per batch / batch latency)."""
        return self.energy.total / self.batch_latency_s

    @property
    def effective_throughput_gops(self) -> float:
        """Delivered throughput counting one multiply-accumulate as two operations."""
        return 2.0 * self.total_macs / self.batch_latency_s / 1e9

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def speedup_over(self, other: "NetworkResult") -> float:
        """How many times faster this platform finishes one inference than ``other``."""
        return other.latency_per_inference_s / self.latency_per_inference_s

    def energy_reduction_over(self, other: "NetworkResult") -> float:
        """How many times less energy per inference this platform uses than ``other``."""
        return other.energy_per_inference_j / self.energy_per_inference_j

    def summary(self) -> str:
        """Human-readable per-layer summary."""
        lines = [
            f"{self.network_name} on {self.platform} "
            f"(batch {self.batch_size}, {self.frequency_mhz:.0f} MHz)"
        ]
        header = (
            f"{'layer':30s} {'bits':>7s} {'Mcycles':>9s} {'bound':>7s} "
            f"{'util':>6s} {'energy (uJ)':>12s}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for layer in self.layers:
            bound = "mem" if layer.is_memory_bound else "compute"
            lines.append(
                f"{layer.name:30s} {layer.input_bits:>3d}/{layer.weight_bits:<3d} "
                f"{layer.total_cycles / 1e6:9.3f} {bound:>7s} "
                f"{layer.utilization:6.2f} {layer.energy.total * 1e6:12.2f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"total: {self.total_cycles / 1e6:.3f} Mcycles/batch, "
            f"{self.latency_per_inference_s * 1e3:.3f} ms/inference, "
            f"{self.energy_per_inference_j * 1e3:.3f} mJ/inference"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Result composition (pipeline stage 3)
# ---------------------------------------------------------------------- #
def compose_network_result(
    network_name: str,
    platform: str,
    batch_size: int,
    frequency_mhz: float,
    layers: Iterable[LayerResult],
) -> NetworkResult:
    """Compose per-block/per-layer results into one :class:`NetworkResult`.

    This is the final stage of the compile → simulate-blocks → compose
    pipeline and the single constructor every platform model routes through:
    the per-layer records may come from a fresh simulation, from the
    per-block artifact cache, or from a mix of both — composition is pure,
    so the result is byte-identical either way.
    """
    return NetworkResult(
        network_name=network_name,
        platform=platform,
        batch_size=batch_size,
        frequency_mhz=frequency_mhz,
        layers=tuple(layers),
    )
