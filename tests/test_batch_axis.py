"""The batch size is an evaluation axis (Figure 16), not hardware (Table III).

Every platform prices a network through one ``evaluate(network, batch_size)``
signature, and the batch reaches each stage as an argument of the call.  One
hardware instance therefore serves every batch, and nothing of one call's
batch stays behind for the next.
"""

from __future__ import annotations

from dataclasses import fields

import pytest
from compiling import program_digest
from payloads import workload_payload

from repro.baselines.gpu import TEGRA_X2, TITAN_XP, GpuModel, GpuPrecision
from repro.baselines.platform import EYERISS, STRIPES, TEMPORAL, PlatformModel
from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dse.spec import BASE_CONFIGS, SweepSpec
from repro.harness.experiments.fig16_batch import DEFAULT_BATCH_SIZES
from repro.isa.compiler import FusionCompiler
from repro.session import Workload

PLATFORMS = {
    "bitfusion": lambda: BitFusionAccelerator(BitFusionConfig.eyeriss_matched()),
    "eyeriss": lambda: PlatformModel(EYERISS),
    "stripes": lambda: PlatformModel(STRIPES),
    "temporal": lambda: PlatformModel(TEMPORAL),
    "tegra-x2-fp32": lambda: GpuModel(TEGRA_X2),
    "titan-xp-int8": lambda: GpuModel(TITAN_XP, GpuPrecision.INT8),
}

WORKLOADS = {
    "bitfusion": lambda batch: Workload.bitfusion("LeNet-5", batch_size=batch),
    "eyeriss": lambda batch: Workload.eyeriss("LeNet-5", batch_size=batch),
    "stripes": lambda batch: Workload.stripes("LeNet-5", batch_size=batch),
    "temporal": lambda batch: Workload.temporal("LeNet-5", batch_size=batch),
    "gpu": lambda batch: Workload.gpu("LeNet-5", TITAN_XP, batch_size=batch),
}


@pytest.fixture(scope="module")
def shared_platforms():
    """One instance per platform, reused by every batch of the module."""
    return {name: build() for name, build in PLATFORMS.items()}


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_evaluate_requires_the_batch(platform):
    with pytest.raises(TypeError):
        PLATFORMS[platform]().evaluate(models.load("LeNet-5"))


@pytest.mark.parametrize("batch_size", DEFAULT_BATCH_SIZES)
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_one_instance_prices_every_batch_like_a_fresh_one(
    shared_platforms, platform, batch_size
):
    network = models.load("LeNet-5")
    shared = shared_platforms[platform].evaluate(network, batch_size)
    fresh = PLATFORMS[platform]().evaluate(network, batch_size)
    assert shared.batch_size == batch_size
    assert shared.network_name == "LeNet-5"
    assert shared == fresh


@pytest.mark.parametrize("name", models.benchmark_names())
def test_gemm_batch_dimension_is_linear_in_the_call(name):
    compiler = FusionCompiler(BitFusionConfig.eyeriss_matched())
    for layer in models.load(name).compute_layers():
        one = compiler.gemm_workload(layer, 1)
        many = compiler.gemm_workload(layer, 16)
        assert many.r == 16 * one.r
        assert (many.m, many.n) == (one.m, one.n)


@pytest.mark.parametrize("name", models.benchmark_names())
def test_a_compiler_keeps_no_batch_between_calls(name):
    config = BitFusionConfig.eyeriss_matched()
    network = models.load(name)
    shared = FusionCompiler(config)
    shared.compile(network, 4)
    assert program_digest(shared.compile(network, 16)) == program_digest(
        FusionCompiler(config).compile(network, 16)
    )


@pytest.mark.parametrize("base", sorted(BASE_CONFIGS))
def test_a_sweep_builds_each_config_once_for_all_batches(base):
    spec = SweepSpec(
        networks=("LeNet-5",),
        batch_sizes=(1, 16, 256),
        axes=(("bandwidth", (64, 128)),),
        base_config=base,
    )
    points = spec.expand()
    assert len(points) == spec.grid_size() == 6
    by_settings: dict[tuple, set[int]] = {}
    for point in points:
        by_settings.setdefault(point.settings, set()).add(id(point.workload.config))
    assert len(by_settings) == 2
    assert all(len(ids) == 1 for ids in by_settings.values())
    assert {point.batch_size for point in points} == {1, 16, 256}


@pytest.mark.parametrize("platform", sorted(WORKLOADS))
def test_the_batch_is_fingerprinted_on_the_workload_only(platform):
    build = WORKLOADS[platform]
    assert build(16).fingerprint() == build(16).fingerprint()
    assert build(16).fingerprint() != build(4).fingerprint()
    payload = workload_payload(build(16))["config"]
    assert payload is None or "batch_size" not in payload


@pytest.mark.parametrize(
    "constructor",
    [
        BitFusionConfig,
        BitFusionConfig.eyeriss_matched,
        BitFusionConfig.stripes_matched,
        BitFusionConfig.gpu_scaled_16nm,
    ],
    ids=["default", "eyeriss_matched", "stripes_matched", "gpu_scaled_16nm"],
)
def test_named_configs_take_no_batch(constructor):
    with pytest.raises(TypeError):
        constructor(batch_size=16)
    assert "batch_size" not in {field.name for field in fields(constructor())}
