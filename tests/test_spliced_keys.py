"""Every spliced digest equals the digest of the nested payload it stands for.

Network fingerprints, NAS candidate names, workload fingerprints and layer
keys are spliced together from memoized canonical JSON fragments
(:mod:`repro.fingerprint`) instead of dumping their nested payload; the
other digests dump it whole.  The nested payloads (``tests/payloads.py``)
are the oracle: at each call site the digest must equal
``fingerprint_payload`` of the payload, byte for byte, over every zoo
network, both compiler flags, the three named configurations, chains of
NAS mutants, and names whose JSON needs escaping (a quote, a backslash,
non-ASCII text), which is where a splice could silently drift.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from payloads import (
    candidate_payload,
    layer_content_payload,
    layer_key_payload,
    network_payload,
    program_key_payload,
    tiling_key_payload,
    tiling_payload,
    workload_payload,
)

from repro.baselines.gpu import TEGRA_X2, GpuPrecision
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import ActivationLayer, ConvLayer, FCLayer, LSTMLayer, PoolLayer
from repro.dnn.network import Network
from repro.fingerprint import canonical_json, fingerprint_payload, spliced_json
from repro.isa.compiler import FusionCompiler
from repro.nas.mutations import MUTATION_AXES, candidate_name, mutate
from repro.session import Workload, load_network, program_cache_key, tiling_cache_key
from repro.session.cache import CacheStats, ResultCache
from repro.session.engine import plan_program, program_content_key

CONFIGS = {
    "eyeriss_matched": BitFusionConfig.eyeriss_matched(),
    "stripes_matched": BitFusionConfig.stripes_matched(),
    "gpu_scaled_16nm": BitFusionConfig.gpu_scaled_16nm(),
}
#: (enable_loop_ordering, enable_layer_fusion)
FLAGS = [(True, True), (False, True), (True, False), (False, False)]
#: Names whose JSON text escapes something.
ODD_NAMES = ['say "hi"', "back\\slash", "ünïcödé → 层", '\\"\u00e9\n\t']


def _compile(network: Network, batch_size: int, config: BitFusionConfig, flags=(True, True)):
    """The program a fresh compiler builds, plus the tiling searches it ran."""
    requests: list = []

    def record(batch, compute):
        requests.extend(batch)
        return compute(batch)

    compiler = FusionCompiler(
        config,
        enable_loop_ordering=flags[0],
        enable_layer_fusion=flags[1],
        plan_resolver=record,
    )
    return compiler.compile(network, batch_size), requests


def _check_program(program, requests, config: BitFusionConfig, batch_size: int) -> None:
    for block in program:
        assert block.tiling.fingerprint() == fingerprint_payload(tiling_payload(block.tiling))
        assert block.layer_fingerprint() == fingerprint_payload(layer_content_payload(block))
    plan = plan_program(program, config, batch_size, ResultCache(), CacheStats(), set())
    assert list(plan.layer_keys) == [
        fingerprint_payload(layer_key_payload(block, config)) for block in program
    ]
    for gemm, orders in requests:
        assert tiling_cache_key(gemm, orders, config) == fingerprint_payload(
            tiling_key_payload(gemm, orders, config)
        )


@pytest.mark.parametrize("name", models.BENCHMARKS)
def test_zoo_keys_equal_their_nested_payloads(name):
    for config in CONFIGS.values():
        for batch_size in (1, 16):
            for flags in FLAGS:
                workload = Workload.bitfusion(
                    name,
                    batch_size=batch_size,
                    config=config,
                    enable_loop_ordering=flags[0],
                    enable_layer_fusion=flags[1],
                )
                network = load_network(workload)
                assert network.fingerprint() == fingerprint_payload(network_payload(network))
                assert workload.fingerprint() == fingerprint_payload(workload_payload(workload))
                assert program_cache_key(workload) == fingerprint_payload(
                    program_key_payload(network, batch_size, config, *flags)
                )
                _check_program(*_compile(network, batch_size, config, flags), config, batch_size)


@pytest.mark.parametrize("name", models.BENCHMARKS)
def test_baseline_workload_keys_equal_their_nested_payloads(name):
    for batch_size in (1, 16):
        for workload in (
            Workload.eyeriss(name, batch_size),
            Workload.stripes(name, batch_size),
            Workload.temporal(name, batch_size),
            Workload.gpu(name, TEGRA_X2, GpuPrecision.INT8, batch_size),
            Workload.bitfusion(name, batch_size, fixed_bits=4),
        ):
            assert workload.fingerprint() == fingerprint_payload(workload_payload(workload))


@pytest.mark.parametrize("seed", range(5))
def test_nas_mutant_chains_equal_their_nested_payloads(seed):
    rng = random.Random(seed)
    base = models.load("resnet18")
    config = CONFIGS["eyeriss_matched"]
    network = base
    for _ in range(8):
        network = mutate(network, rng, axes=tuple(MUTATION_AXES))
        digest = fingerprint_payload(candidate_payload(list(network)))
        assert network.name == f"{base.name}/nas-{digest[:12]}"
        assert network.fingerprint() == fingerprint_payload(network_payload(network))
        assert program_content_key(network.fingerprint(), 16, config) == fingerprint_payload(
            program_key_payload(network, 16, config)
        )
        _check_program(*_compile(network, 16, config), config, 16)


@pytest.mark.parametrize("odd", ODD_NAMES)
def test_names_that_json_escapes_splice_exactly(odd):
    layers = [
        ConvLayer(name=f"conv {odd}", in_channels=3, out_channels=8, in_height=8, in_width=8),
        PoolLayer(name=f"pool {odd}", channels=8, in_height=8, in_width=8),
        ActivationLayer(name=f"act {odd}", elements=8 * 4 * 4),
        FCLayer(name=f"fc {odd}", in_features=128, out_features=10),
        LSTMLayer(name=f"lstm {odd}", input_size=10, hidden_size=16, timesteps=3),
    ]
    network = Network(f"net {odd}", layers)
    assert network.fingerprint() == fingerprint_payload(network_payload(network))
    digest = fingerprint_payload(candidate_payload(layers))
    assert candidate_name(network.name, layers) == f"net {odd}/nas-{digest[:12]}"

    base = CONFIGS["eyeriss_matched"]
    config = replace(base, name=f"config {odd}", technology=replace(base.technology, name=odd))
    workload = Workload.bitfusion("LeNet-5", config=config)
    assert workload.fingerprint() == fingerprint_payload(workload_payload(workload))
    for flags in FLAGS:
        _check_program(*_compile(network, 4, config, flags), config, 4)


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    payload=st.dictionaries(st.text(max_size=6), _VALUES, max_size=6),
    spliced=st.sets(st.text(max_size=6)),
    as_array=st.booleans(),
)
def test_spliced_json_is_the_canonical_json_of_the_nested_object(payload, spliced, as_array):
    values = {key: value for key, value in payload.items() if key not in spliced}
    texts = {}
    for key, value in payload.items():
        if key not in spliced:
            continue
        if as_array and isinstance(value, list):
            texts[key] = [canonical_json(item) for item in value]
        else:
            texts[key] = canonical_json(value)
    assert spliced_json(values, **texts) == canonical_json(payload)
