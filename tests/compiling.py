"""Compiler helpers for the tests, built on ``FusionCompiler.compile`` alone.

``compile`` is the compiler's one entry point: a layer compiled alone is a
one-layer network, whose program holds exactly that layer's block, and the
tiling searches a compile needs are the requests it hands its plan
resolver.  A block's layer key is the one ``plan_program`` derives when it
prices the block.
"""

from __future__ import annotations

from repro.core.config import BitFusionConfig
from repro.dnn.layers import Layer
from repro.dnn.network import Network
from repro.isa.compiler import FusionCompiler, TilingRequest
from repro.isa.program import CompiledBlock, Program
from repro.session.cache import CacheStats, ResultCache
from repro.session.engine import plan_program


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
