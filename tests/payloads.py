"""The nested payloads every content digest and cache key stands for.

``src/`` splices some digests from memoized canonical JSON fragments
(:mod:`repro.fingerprint`) and dumps the rest whole.  These builders spell
out, from the dataclass fields alone, the nested payload each digest must
stand for, so ``fingerprint_payload(<payload>)`` is the oracle every
digest is checked against.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Sequence

from repro.core.config import BitFusionConfig
from repro.dnn.layers import Layer, layer_to_dict
from repro.dnn.network import Network
from repro.fingerprint import fingerprint_payload
from repro.isa.instructions import LoopOrder
from repro.isa.program import CompiledBlock
from repro.isa.tiling import GemmWorkload, TilingPlan
from repro.session.workload import Workload, load_network


def _nameless(layer: Layer) -> dict[str, Any]:
    return {key: value for key, value in layer_to_dict(layer).items() if key != "name"}


def network_payload(network: Network) -> dict[str, Any]:
    """What :meth:`Network.fingerprint` hashes."""
    return {"name": network.name, "layers": [layer_to_dict(layer) for layer in network]}


def candidate_payload(layers: Sequence[Layer]) -> dict[str, Any]:
    """What :func:`repro.nas.mutations.candidate_name` hashes."""
    return {"layers": [layer_to_dict(layer) for layer in layers]}


def tiling_payload(plan: TilingPlan) -> dict[str, Any]:
    """What :meth:`TilingPlan.fingerprint` hashes."""
    return {
        "workload": asdict(plan.workload),
        "loop_order": plan.loop_order.value,
        "tile_m": plan.tile_m,
        "tile_n": plan.tile_n,
        "tile_r": plan.tile_r,
        "dram_weight_bits": plan.dram_weight_bits,
        "dram_input_bits": plan.dram_input_bits,
        "dram_output_write_bits": plan.dram_output_write_bits,
        "dram_output_read_bits": plan.dram_output_read_bits,
    }


def layer_content_payload(block: CompiledBlock) -> dict[str, Any]:
    """What :meth:`CompiledBlock.layer_fingerprint` hashes: the name-free plan."""
    return {
        "layer": _nameless(block.layer),
        "tiling": fingerprint_payload(tiling_payload(block.tiling)),
        "loop_order": block.tiling.loop_order.value,
        "fused_layers": [_nameless(layer) for layer in block.fused_layers],
    }


def _buffers(config: BitFusionConfig) -> dict[str, float]:
    return {"ibuf_kb": config.ibuf_kb, "wbuf_kb": config.wbuf_kb, "obuf_kb": config.obuf_kb}


def tiling_key_payload(
    gemm: GemmWorkload, orders: tuple[LoopOrder, ...], config: BitFusionConfig
) -> dict[str, Any]:
    """What :func:`repro.session.engine.tiling_cache_key` hashes."""
    return {
        "artifact": "tiling",
        "gemm": asdict(gemm),
        "orders": [order.value for order in orders],
        "buffers": _buffers(config),
    }


def program_key_payload(
    network: Network,
    batch_size: int,
    config: BitFusionConfig,
    enable_loop_ordering: bool = True,
    enable_layer_fusion: bool = True,
) -> dict[str, Any]:
    """What :func:`repro.session.engine.program_content_key` hashes."""
    return {
        "artifact": "program",
        "network": fingerprint_payload(network_payload(network)),
        "batch_size": batch_size,
        "buffers": _buffers(config),
        "compiler": {
            "enable_loop_ordering": enable_loop_ordering,
            "enable_layer_fusion": enable_layer_fusion,
        },
    }


def layer_key_payload(block: CompiledBlock, config: BitFusionConfig) -> dict[str, Any]:
    """What the layer key ``plan_program`` derives for ``block`` at ``config`` hashes."""
    return {
        "artifact": "layer",
        "layer": fingerprint_payload(layer_content_payload(block)),
        "sim": {
            "rows": config.rows,
            "columns": config.columns,
            "ibuf_kb": config.ibuf_kb,
            "wbuf_kb": config.wbuf_kb,
            "obuf_kb": config.obuf_kb,
            "dram_bandwidth_bits_per_cycle": config.dram_bandwidth_bits_per_cycle,
            "buffer_access_bits": config.buffer_access_bits,
            "technology": asdict(config.technology),
        },
    }


def workload_payload(workload: Workload) -> dict[str, Any]:
    """What :meth:`Workload.fingerprint` hashes."""
    config = workload.config
    payload: dict[str, Any] = {
        "platform": workload.platform,
        "network": workload.network,
        "network_fingerprint": fingerprint_payload(network_payload(load_network(workload))),
        "batch_size": workload.batch_size,
        "variant": workload.variant,
        "fixed_bits": workload.fixed_bits,
        "config": {"type": type(config).__name__, **asdict(config)},
        "gpu_precision": workload.gpu_precision,
    }
    if workload.platform == "bitfusion":
        payload["compiler"] = {
            "enable_loop_ordering": workload.enable_loop_ordering,
            "enable_layer_fusion": workload.enable_layer_fusion,
        }
    return payload
