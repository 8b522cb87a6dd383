"""Bit Fusion reproduction library.

This package reproduces *Bit Fusion: Bit-Level Dynamically Composable
Architecture for Accelerating Deep Neural Networks* (ISCA 2018) as a pure
Python system: the bit-level composable compute fabric (BitBricks, Fusion
Units, the systolic array), the block-structured Fusion-ISA and its
compiler, a cycle-accurate performance and energy simulator, a quantized
DNN substrate with the paper's eight benchmark networks, and the baseline
accelerators the paper compares against (Eyeriss, Stripes, a temporal
bit-serial design, and GPU roofline models).

Public entry points
-------------------
``repro.core``
    BitBrick and Fusion Unit models and ``BitFusionConfig``.
``repro.isa``
    Fusion-ISA instruction set and the layer-to-ISA compiler.
``repro.sim``
    Cycle-accurate simulator producing cycle counts and memory traffic.
``repro.energy``
    Area and energy models (synthesis constants, CACTI-like SRAM, DRAM).
``repro.dnn``
    Quantized layer/network IR and the eight benchmark model definitions.
``repro.baselines``
    Eyeriss, Stripes, temporal-design and GPU comparison models.
``repro.session``
    Unified evaluation session: fingerprinted workloads, a result cache
    (in-memory + optional on-disk store) and a batched
    ``run``/``run_many`` engine shared by every experiment.
``repro.harness``
    One experiment runner per table/figure in the paper's evaluation,
    all routed through a shared evaluation session.
"""

from repro.core.config import BitFusionConfig
from repro.core.accelerator import BitFusionAccelerator
from repro.dnn.network import Network
from repro.sim.results import LayerResult, NetworkResult

#: The single source of truth: ``pyproject.toml`` reads it statically.
__version__ = "1.1.0"

__all__ = [
    "BitFusionConfig",
    "BitFusionAccelerator",
    "Network",
    "LayerResult",
    "NetworkResult",
    "__version__",
]
