"""Compiler helpers for the tests, built on ``FusionCompiler.compile`` alone.

``compile`` is the compiler's one entry point: a layer compiled alone is a
one-layer network, whose program holds exactly that layer's block, and the
tiling searches a compile needs are the requests it hands its plan
resolver.
"""

from __future__ import annotations

from repro.core.config import BitFusionConfig
from repro.dnn.layers import Layer
from repro.dnn.network import Network
from repro.isa.compiler import FusionCompiler, TilingRequest
from repro.isa.program import CompiledBlock


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
