"""Tests for program payloads and the staged pipeline's core invariant.

The three guarantees the memoized-program pipeline rests on:

* a compiled ``Program``'s image payload (``compiling.program_payload``)
  carries every instruction, layer, tiling plan and fusion annotation, so
  the golden digest sees all of them,
* program digests and block fingerprints are stable across processes (the
  fingerprints key the in-process memos and, through the network, every
  stored result), and
* a ``NetworkResult`` produced by the staged compile → simulate-blocks →
  compose pipeline — including one read back from disk — is byte-identical
  to the monolithic ``evaluate()`` path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from compiling import block_payload, program_digest, program_payload
from faults import delete_segments
from hypothesis import given, strategies as st

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import (
    ActivationLayer,
    ConvLayer,
    FCLayer,
    Layer,
    LSTMLayer,
    PoolLayer,
    RNNLayer,
    layer_to_dict,
)
from repro.fingerprint import fingerprint_payload
from repro.isa.block import InstructionBlock
from repro.isa.compiler import FusionCompiler
from repro.isa.program import Program
from repro.session import (
    EvaluationSession,
    Workload,
    compile_program,
    execute_workload,
    program_cache_key,
)
from repro.sim.batched import simulate_blocks_grid

from reference.encoding import decode_block_hex, encode_block_hex

_TESTS = Path(__file__).resolve().parent
_SRC = str(_TESTS.parent / "src")


def _compile(name: str, batch_size: int = 4) -> Program:
    network = models.load(name)
    compiler = FusionCompiler(BitFusionConfig.eyeriss_matched())
    return compiler.compile(network, batch_size=batch_size)


class TestLayerSerialization:
    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "AlexNet", "Cifar-10"])
    def test_every_layer_survives_json(self, benchmark_name):
        for layer in models.load(benchmark_name):
            payload = json.loads(json.dumps(layer_to_dict(layer)))
            assert payload == _asdict_payload(layer)


_bits = st.sampled_from((1, 2, 4, 8, 16))
_sizes = st.integers(min_value=1, max_value=4096)
_names = st.text(min_size=1, max_size=12)
_common = {"name": _names, "input_bits": _bits, "weight_bits": _bits, "output_bits": _bits}
_drawn_layers = st.one_of(
    st.builds(
        ConvLayer,
        in_channels=_sizes,
        out_channels=_sizes,
        in_height=st.integers(min_value=7, max_value=64),
        in_width=st.integers(min_value=7, max_value=64),
        kernel=st.integers(min_value=1, max_value=7),
        stride=st.integers(min_value=1, max_value=3),
        padding=st.integers(min_value=0, max_value=3),
        **_common,
    ),
    st.builds(FCLayer, in_features=_sizes, out_features=_sizes, **_common),
    st.builds(
        PoolLayer,
        channels=_sizes,
        in_height=st.integers(min_value=4, max_value=64),
        in_width=st.integers(min_value=4, max_value=64),
        kernel=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(("max", "avg")),
        **_common,
    ),
    st.builds(
        ActivationLayer,
        elements=_sizes,
        function=st.sampled_from(("relu", "sigmoid", "tanh")),
        **_common,
    ),
    *(
        st.builds(cls, input_size=_sizes, hidden_size=_sizes, timesteps=_sizes, **_common)
        for cls in (LSTMLayer, RNNLayer)
    ),
)


def _asdict_payload(layer: Layer) -> dict:
    return {"type": type(layer).__name__, **asdict(layer)}


class TestSerializersMatchAsdict:
    """The field-by-field encoders must equal the ``asdict`` payloads they
    replaced: a field added to a layer class or to ``GemmWorkload`` but
    missed by its encoder would silently drop out of every cache key."""

    def test_zoo_layers_encode_like_asdict(self):
        names = models.benchmark_names()
        assert len(names) == 8
        for name in names:
            for layer in models.load(name):
                assert layer_to_dict(layer) == _asdict_payload(layer)

    @given(_drawn_layers)
    def test_drawn_layer_encodes_like_asdict_and_survives_json(self, layer):
        payload = layer_to_dict(layer)
        assert payload == _asdict_payload(layer)
        assert list(payload) == list(_asdict_payload(layer))
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "ResNet-18"])
    def test_gemm_workloads_encode_like_asdict(self, benchmark_name):
        for compiled in _compile(benchmark_name):
            workload = compiled.tiling.workload
            assert workload.to_dict() == asdict(workload)

    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "ResNet-18"])
    def test_block_payload_image_decodes_to_the_block(self, benchmark_name):
        for compiled in _compile(benchmark_name):
            block = compiled.block
            image = block_payload(compiled)["block"]["image"]
            assert image == encode_block_hex(block)
            # The block is emitted once and kept on the compiled block.
            assert compiled.block is block
            rebuilt = InstructionBlock(block.name, decode_block_hex(image))
            assert tuple(rebuilt) == tuple(block)


class TestProgramSerialization:
    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "SVHN"])
    def test_payload_carries_every_field(self, benchmark_name):
        program = _compile(benchmark_name)
        payload = json.loads(json.dumps(program_payload(program), sort_keys=True))
        assert payload == program_payload(program)
        assert payload["network_name"] == program.network_name
        assert len(payload["blocks"]) == len(program)
        for original, item in zip(program, payload["blocks"]):
            assert tuple(decode_block_hex(item["block"]["image"])) == tuple(original.block)
            assert item["block"]["name"] == original.name
            assert item["layer"] == layer_to_dict(original.layer)
            assert item["tiling"] == original.tiling.to_dict()
            assert item["loop_order"] == original.tiling.loop_order.value
            assert item["fused_layers"] == [layer_to_dict(layer) for layer in original.fused_layers]

    def test_fingerprint_is_the_digest_of_the_payload(self):
        program = _compile("LeNet-5")
        recompiled = _compile("LeNet-5")
        assert recompiled is not program
        assert program_digest(program) == fingerprint_payload(
            json.loads(json.dumps(program_payload(program)))
        )
        assert program_digest(recompiled) == program_digest(program)
        for original, rebuilt in zip(program, recompiled):
            assert block_payload(rebuilt) == block_payload(original)
            assert rebuilt.layer_fingerprint() == original.layer_fingerprint()

    def test_fingerprint_sees_content_changes(self):
        base = _compile("LeNet-5", batch_size=4)
        other_batch = _compile("LeNet-5", batch_size=8)
        assert program_digest(base) != program_digest(other_batch)

    def test_corrupted_image_fails_validation(self):
        program = _compile("LeNet-5")
        image = block_payload(program[0])["block"]["image"]
        # Truncate the first block's image so setup/block-end framing breaks.
        with pytest.raises(ValueError):
            InstructionBlock(program[0].name, decode_block_hex(image[:8]))

    def test_fingerprint_stable_across_processes(self):
        program = _compile("LeNet-5")
        code = (
            "from compiling import program_digest; "
            "from repro.dnn import models; "
            "from repro.core.config import BitFusionConfig; "
            "from repro.isa.compiler import FusionCompiler; "
            "compiler = FusionCompiler(BitFusionConfig.eyeriss_matched()); "
            "print(program_digest(compiler.compile(models.load('LeNet-5'), batch_size=4)))"
        )
        path = os.pathsep.join([_SRC, str(_TESTS)])
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "random"}
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert outputs == {program_digest(program)}


class TestStagedPipelineEquivalence:
    @pytest.mark.parametrize(
        "workload",
        [
            Workload.bitfusion("LeNet-5", batch_size=4),
            Workload.bitfusion("LSTM", batch_size=4),
            Workload.bitfusion("LeNet-5", batch_size=4, enable_layer_fusion=False),
            Workload.bitfusion("LeNet-5", batch_size=4, enable_loop_ordering=False),
            Workload.bitfusion("LeNet-5", batch_size=4, fixed_bits=8),
            Workload.eyeriss("LeNet-5", batch_size=4),
            Workload.stripes("LSTM", batch_size=4),
            Workload.temporal("LeNet-5", batch_size=4),
        ],
        ids=lambda w: f"{w.platform}-{w.network}-b{w.batch_size}",
    )
    def test_staged_result_is_byte_identical_to_monolithic(self, workload):
        staged = EvaluationSession().run_many([workload])[0]
        monolithic = execute_workload(workload)
        assert staged == monolithic

    def test_memoized_program_blocks_are_byte_identical_to_monolithic(self):
        # Simulating the blocks of the program a session memoized must
        # reproduce the monolithic per-layer results bit for bit.
        workload = Workload.bitfusion("LSTM", batch_size=4)
        session = EvaluationSession()
        session.run_many([workload])
        program = session.cache.memo[program_cache_key(workload)]
        assert isinstance(program, Program)
        (layers,) = simulate_blocks_grid([workload.config], program.blocks)
        assert tuple(layers) == execute_workload(workload).layers

    def test_disk_restored_result_is_byte_identical(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        monolithic = execute_workload(workload)
        with EvaluationSession(cache_dir=tmp_path) as first:
            first.run_many([workload])
        with EvaluationSession(cache_dir=tmp_path) as warm:
            restored = warm.run_many([workload])[0]
        assert warm.stats.disk_hits == 1 and warm.stats.programs.lookups == 0
        assert restored == monolithic
        # Drop the stored result: a fresh session recompiles and
        # re-simulates every block — same result, bit for bit.
        assert delete_segments(tmp_path)
        with EvaluationSession(cache_dir=tmp_path) as second:
            recomputed = second.run_many([workload])[0]
        assert second.stats.programs.misses == 1
        assert second.stats.blocks.misses > 0
        assert recomputed == monolithic

    def test_program_cache_key_ignores_simulation_only_parameters(self):
        base = Workload.bitfusion("LeNet-5", batch_size=4)
        bandwidth = Workload.bitfusion(
            "LeNet-5",
            batch_size=4,
            config=BitFusionConfig.eyeriss_matched(bandwidth_bits_per_cycle=512),
        )
        assert base.fingerprint() != bandwidth.fingerprint()
        assert program_cache_key(base) == program_cache_key(bandwidth)
        # But anything the compiler reads does change the key.
        other_batch = Workload.bitfusion("LeNet-5", batch_size=8)
        no_fusion = Workload.bitfusion("LeNet-5", batch_size=4, enable_layer_fusion=False)
        assert program_cache_key(base) != program_cache_key(other_batch)
        assert program_cache_key(base) != program_cache_key(no_fusion)

    def test_compiled_block_payload_is_json_stable(self):
        program = _compile("LeNet-5")
        for compiled in program:
            payload = block_payload(compiled)
            assert json.loads(json.dumps(payload)) == payload
            assert compiled.layer_fingerprint() == fingerprint_payload(
                compiled.layer_content_dict()
            )

    def test_compile_program_rejects_non_bitfusion(self):
        with pytest.raises(ValueError, match="bitfusion"):
            compile_program(Workload.eyeriss("LeNet-5"))
