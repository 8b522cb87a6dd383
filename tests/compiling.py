"""Compiler helpers for the tests, built on ``FusionCompiler.compile`` alone.

``compile`` is the compiler's one entry point: a layer compiled alone is a
one-layer network, whose program holds exactly that layer's block, and the
tiling searches a compile needs are the requests it hands its plan
resolver.  A block's layer key is the one ``plan_program`` derives when it
prices the block.

A program's image payload carries every block's Table I binary image
(:mod:`reference.encoding`) with its layer, tiling plan, loop order and
fused followers; ``program_digest`` hashes it, so the golden tests pin
every emitted instruction by it.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import BitFusionConfig
from repro.dnn.layers import Layer, layer_to_dict
from repro.dnn.network import Network
from repro.fingerprint import fingerprint_payload
from repro.isa.compiler import FusionCompiler, TilingRequest
from repro.isa.program import CompiledBlock, Program
from repro.session.cache import CacheStats, ResultCache
from repro.session.engine import plan_program

from reference.encoding import encode_block_hex


def compile_alone(compiler: FusionCompiler, layer: Layer, batch_size: int) -> CompiledBlock:
    """The block ``compiler`` builds for ``layer`` as a one-layer network."""
    (compiled,) = compiler.compile(Network("one-layer", [layer]), batch_size)
    return compiled


def tiling_requests(
    config: BitFusionConfig, network: Network, batch_size: int
) -> list[TilingRequest]:
    """The ``(gemm, orders)`` searches a fresh compiler runs for ``network``, in order."""
    requests: list[TilingRequest] = []

    def record(batch, compute):
        requests.extend(batch)
        return compute(batch)

    FusionCompiler(config, plan_resolver=record).compile(network, batch_size)
    return requests


def layer_cache_key(compiled: CompiledBlock, config: BitFusionConfig) -> str:
    """The layer key ``plan_program`` looks ``compiled`` up under at ``config``."""
    plan = plan_program(
        Program("one-block", [compiled]), config, 1, ResultCache(), CacheStats(), set()
    )
    return plan.layer_keys[0]


def block_payload(compiled: CompiledBlock) -> dict[str, Any]:
    """A compiled block's JSON payload: its instruction image and its plan."""
    block = compiled.block
    return {
        "block": {"name": block.name, "image": encode_block_hex(block)},
        "layer": layer_to_dict(compiled.layer),
        "tiling": compiled.tiling.to_dict(),
        "loop_order": compiled.tiling.loop_order.value,
        "fused_layers": [layer_to_dict(layer) for layer in compiled.fused_layers],
    }


def program_payload(program: Program) -> dict[str, Any]:
    """A whole program's JSON payload, block by block."""
    return {
        "network_name": program.network_name,
        "blocks": [block_payload(compiled) for compiled in program],
    }


def program_digest(program: Program) -> str:
    """The content hash of :func:`program_payload`, emitting every block."""
    return fingerprint_payload(program_payload(program))
