"""A compile plans blocks; instructions are emitted only when read.

Pricing reads a block's plan and its ``instruction_count``, never its
instructions, so these tests hold the plan to what emission builds:

* every zoo block's ``instruction_count`` equals the length of the block
  emitted from it, over batches 1/16/256, both compiler flags and two
  buffer geometries (and every emission checks the same itself);
* the layer fingerprint, which hashes the plan and not the instruction
  image, splits blocks exactly where their images differ, so the layer
  memo dedupes the same blocks it did when it hashed the image;
* the seed-0 sweep and a seed-0 ``nas`` search emit no block, and the full
  report emits exactly the blocks its ISA section reads, each once.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import replace

import pytest
from reachability import NAS_SPEC, SWEEP_SPEC
from reference.encoding import encode_block_hex

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import ActivationLayer, ConvLayer, PoolLayer
from repro.dnn.network import Network
from repro.fingerprint import fingerprint_payload
from repro.harness.runner import main
from repro.isa import compiler as compiler_module
from repro.isa.compiler import FusionCompiler
from repro.session import Workload, compile_program

_CONFIGS = {
    "eyeriss_matched": BitFusionConfig.eyeriss_matched(),
    "buffers_16_32_8": BitFusionConfig.eyeriss_matched().with_buffers(16, 32, 8),
}
_BATCHES = (1, 16, 256)
_FLAGS = list(itertools.product((True, False), repeat=2))


def _zoo_blocks(config: BitFusionConfig) -> list:
    """Every block of every zoo network, batch and compiler-flag pair."""
    blocks = []
    for name, batch, (ordering, fusion) in itertools.product(
        models.BENCHMARKS, _BATCHES, _FLAGS
    ):
        compiler = FusionCompiler(
            config, enable_loop_ordering=ordering, enable_layer_fusion=fusion
        )
        blocks.extend(compiler.compile(models.load(name), batch))
    return blocks


def _follower_blocks() -> list:
    """One convolution under each fused follower: images differ only there."""
    conv = ConvLayer(name="conv", in_channels=8, out_channels=16, in_height=8, in_width=8)
    followers = [
        (),
        (ActivationLayer(name="relu", elements=16 * 8 * 8),),
        (ActivationLayer(name="tanh", elements=16 * 8 * 8, function="tanh"),),
        (PoolLayer(name="pool", channels=16, in_height=8, in_width=8),),
        (PoolLayer(name="pool", channels=16, in_height=8, in_width=8, mode="avg"),),
    ]
    compiler = FusionCompiler(BitFusionConfig.eyeriss_matched())
    return [
        block
        for layers in followers
        for block in compiler.compile(Network("followers", [conv, *layers]), 16)
    ]


@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
def test_instruction_count_is_the_emitted_length(config_name):
    blocks = _zoo_blocks(_CONFIGS[config_name])
    assert any(not block.layer.has_gemm() for block in blocks)  # unfused pooling
    mismatches = [
        (block.name, block.instruction_count, len(block.block))
        for block in blocks
        if block.instruction_count != len(block.block)
    ]
    assert mismatches == []


def test_count_mismatch_is_a_one_line_error_naming_the_block():
    compiled = compile_program(Workload.bitfusion("LeNet-5", batch_size=4))[0]
    wrong = replace(compiled, instruction_count=compiled.instruction_count + 1)
    with pytest.raises(ValueError, match=re.escape(repr(compiled.name))) as error:
        wrong.block
    assert "\n" not in str(error.value)


def test_layer_fingerprint_splits_blocks_where_images_differ():
    blocks = _follower_blocks()
    for config in _CONFIGS.values():
        blocks += _zoo_blocks(config)
    images: dict[str, str] = {}
    # The partition the image-hashing key drew: image plus the same plan.
    image_keys: set[str] = set()
    for block in blocks:
        image = encode_block_hex(block.block)
        assert images.setdefault(block.layer_fingerprint(), image) == image, block.name
        image_keys.add(fingerprint_payload({**block.layer_content_dict(), "image": image}))
    assert len(image_keys) == len(images)


@pytest.fixture
def emitted(monkeypatch) -> list:
    """Every block whose instructions are emitted, in emission order."""
    blocks: list = []
    emit = compiler_module.emit_block

    def counting(compiled):
        blocks.append(compiled)
        return emit(compiled)

    monkeypatch.setattr(compiler_module, "emit_block", counting)
    return blocks


def test_seed_0_sweep_emits_no_block(emitted, tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    assert main(["sweep", str(spec), "--output", str(tmp_path / "sweep.md")]) == 0
    assert emitted == []


def test_nas_search_emits_no_block(emitted, tmp_path, capsys):
    spec = tmp_path / "nas.json"
    spec.write_text(json.dumps(NAS_SPEC), encoding="utf-8")
    assert main(["nas", str(spec), "--output", str(tmp_path / "nas.md")]) == 0
    assert emitted == []


def test_report_emits_only_the_isa_sections_blocks(emitted, tmp_path, capsys):
    assert main(["--output", str(tmp_path / "report.md")]) == 0
    isa_blocks = [
        block.name
        for name in models.BENCHMARKS
        for block in compile_program(Workload.bitfusion(name))
    ]
    assert sorted(block.name for block in emitted) == sorted(isa_blocks)
    assert len({id(block) for block in emitted}) == len(emitted)  # each once
