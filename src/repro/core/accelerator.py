"""Top-level Bit Fusion accelerator object.

:class:`BitFusionAccelerator` is the main user-facing entry point of the
library.  It bundles the pieces a user needs to go from a quantized network
description to performance and energy numbers:

* the hardware configuration (:class:`~repro.core.config.BitFusionConfig`),
* the Fusion-ISA compiler (:class:`~repro.isa.compiler.FusionCompiler`),
* the cycle/energy simulator (:func:`~repro.sim.batched.simulate_blocks_grid`).

It is the one compile-and-price entry point.  The batch size is not
hardware: :meth:`~BitFusionAccelerator.compile`,
:meth:`~BitFusionAccelerator.run` and :meth:`~BitFusionAccelerator.evaluate`
take it as an argument, and ``evaluate(network, batch_size)`` is the
signature every baseline platform model shares.

Bit-exact execution of small layers goes through the functional model of
Section III, :func:`~repro.core.bitbrick.fused_matmul`, directly.

Typical usage::

    from repro import BitFusionAccelerator, BitFusionConfig
    from repro.dnn import models

    accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
    result = accelerator.run(models.load("Cifar-10"), batch_size=16)
    print(result.summary())
"""

from __future__ import annotations

from repro.core.config import BitFusionConfig
from repro.dnn.network import Network
from repro.isa.compiler import FusionCompiler
from repro.isa.program import Program
from repro.sim.batched import simulate_blocks_grid
from repro.sim.results import NetworkResult, compose_network_result

__all__ = ["BitFusionAccelerator"]


class BitFusionAccelerator:
    """A configured Bit Fusion accelerator instance.

    Parameters
    ----------
    config:
        Hardware configuration.  Defaults to the paper's Eyeriss-matched
        45 nm configuration (Table III).
    enable_loop_ordering, enable_layer_fusion:
        Compiler optimizations (Section IV-B); both default to on.  The
        ablation benchmarks construct accelerators with them disabled.
    """

    def __init__(
        self,
        config: BitFusionConfig | None = None,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
    ) -> None:
        self.config = config if config is not None else BitFusionConfig.eyeriss_matched()
        self.compiler = FusionCompiler(
            self.config,
            enable_loop_ordering=enable_loop_ordering,
            enable_layer_fusion=enable_layer_fusion,
        )

    # ------------------------------------------------------------------ #
    # Compilation and simulation
    # ------------------------------------------------------------------ #
    def compile(self, network: Network, batch_size: int) -> Program:
        """Compile a network to a Fusion-ISA program without simulating it."""
        return self.compiler.compile(network, batch_size)

    def run(self, network: Network, batch_size: int) -> NetworkResult:
        """Compile and simulate a network, returning performance and energy.

        This is the staged pipeline run end to end in one call: compile the
        network to a :class:`~repro.isa.program.Program` (stage 1), simulate
        each instruction block independently (stage 2) and compose the
        per-block results (stage 3).  The evaluation session
        (:mod:`repro.session`) runs the same stages with a cache at every
        seam; both paths produce byte-identical results.
        """
        program = self.compile(network, batch_size)
        return compose_network_result(
            network_name=program.network_name,
            platform=self.config.name,
            batch_size=batch_size,
            frequency_mhz=self.config.frequency_mhz,
            layers=simulate_blocks_grid([self.config], program.blocks)[0],
        )

    def evaluate(self, network: Network, batch_size: int) -> NetworkResult:
        """Alias of :meth:`run`; the shared platform protocol the
        evaluation session (:mod:`repro.session`) drives for Bit Fusion and
        every baseline alike."""
        return self.run(network, batch_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def peak_throughput_gops(self, input_bits: int = 8, weight_bits: int = 8) -> float:
        """Peak throughput at the given operand bitwidths (GOPS)."""
        return self.config.peak_throughput_gops(input_bits, weight_bits)

    def describe(self) -> str:
        """One-paragraph description of the configured accelerator."""
        cfg = self.config
        return (
            f"Bit Fusion accelerator {cfg.name!r}: {cfg.rows}x{cfg.columns} Fusion Units "
            f"({cfg.bitbricks} BitBricks) at {cfg.frequency_mhz:.0f} MHz, "
            f"{cfg.total_sram_kb:.0f} KB on-chip SRAM "
            f"(IBUF {cfg.ibuf_kb:.0f} / WBUF {cfg.wbuf_kb:.0f} / OBUF {cfg.obuf_kb:.0f}), "
            f"{cfg.dram_bandwidth_bits_per_cycle} bits/cycle off-chip bandwidth, "
            f"{cfg.technology.name} technology. Peak throughput "
            f"{self.peak_throughput_gops(8, 8):.0f} GOPS at 8b/8b and "
            f"{self.peak_throughput_gops(2, 2):.0f} GOPS at 2b/2b."
        )
