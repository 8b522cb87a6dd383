"""Tests for program payloads and the staged pipeline's core invariant.

The three guarantees the memoized-program pipeline rests on:

* a compiled ``Program``'s JSON payload carries every instruction, layer,
  tiling plan and fusion annotation, so its fingerprints see all of them,
* program and block fingerprints are stable across processes (they key the
  in-process memos and, through the network, every stored result), and
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
    layer_from_dict,
    layer_to_dict,
)
from repro.fingerprint import fingerprint_payload
from repro.isa.block import InstructionBlock
from repro.isa.compiler import FusionCompiler
from repro.isa.encoding import decode_block_hex, encode_block_hex
from repro.isa.program import Program
from repro.session import (
    EvaluationSession,
    Workload,
    compile_program,
    execute_workload,
    program_cache_key,
)
from repro.session.cache import network_result_to_dict
from repro.session.engine import simulator_for

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _compile(name: str, batch_size: int = 4) -> Program:
    network = models.load(name)
    compiler = FusionCompiler(BitFusionConfig.eyeriss_matched())
    return compiler.compile(network, batch_size=batch_size)


class TestLayerSerialization:
    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "AlexNet", "Cifar-10"])
    def test_every_layer_round_trips(self, benchmark_name):
        for layer in models.load(benchmark_name):
            payload = json.loads(json.dumps(layer_to_dict(layer)))
            assert layer_from_dict(payload) == layer

    def test_unknown_layer_type_rejected(self):
        with pytest.raises(ValueError, match="unknown layer type"):
            layer_from_dict({"type": "HologramLayer", "name": "x"})

    def test_recurrent_gates_are_recomputed_not_trusted(self):
        lstm = next(iter(models.load("LSTM")))
        payload = layer_to_dict(lstm)
        payload["gates"] = 99  # derived field: must be ignored on rebuild
        assert layer_from_dict(payload).gates == lstm.gates


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
    def test_drawn_layer_encodes_like_asdict_and_round_trips(self, layer):
        payload = layer_to_dict(layer)
        assert payload == _asdict_payload(layer)
        assert list(payload) == list(_asdict_payload(layer))
        assert layer_from_dict(json.loads(json.dumps(payload))) == layer

    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "ResNet-18"])
    def test_gemm_workloads_encode_like_asdict(self, benchmark_name):
        for compiled in _compile(benchmark_name):
            workload = compiled.tiling.workload
            assert workload.to_dict() == asdict(workload)

    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "ResNet-18"])
    def test_memoized_block_image_matches_fresh_encoding(self, benchmark_name):
        for compiled in _compile(benchmark_name):
            block = compiled.block
            fresh = encode_block_hex(list(block))
            assert block.to_dict()["image"] == fresh
            # The memo serves every later call, including through the
            # compiled block's payload and its name-free content payload.
            assert block.to_dict()["image"] == fresh
            assert compiled.to_dict()["block"]["image"] == fresh
            assert compiled.layer_content_dict()["image"] == fresh
            rebuilt = InstructionBlock(block.name, decode_block_hex(block.to_dict()["image"]))
            assert rebuilt.instructions == block.instructions
            assert rebuilt.to_dict() == block.to_dict()


class TestProgramSerialization:
    @pytest.mark.parametrize("benchmark_name", ["LeNet-5", "LSTM", "SVHN"])
    def test_payload_carries_every_field(self, benchmark_name):
        program = _compile(benchmark_name)
        payload = json.loads(json.dumps(program.to_dict(), sort_keys=True))
        assert payload == program.to_dict()
        assert payload["network_name"] == program.network_name
        assert len(payload["blocks"]) == len(program)
        for original, item in zip(program, payload["blocks"]):
            assert tuple(decode_block_hex(item["block"]["image"])) == original.block.instructions
            assert item["block"]["name"] == original.name
            assert layer_from_dict(item["layer"]) == original.layer
            assert item["tiling"] == original.tiling.to_dict()
            assert item["loop_order"] == original.loop_order.value
            assert tuple(layer_from_dict(layer) for layer in item["fused_layers"]) == (
                original.fused_layers
            )

    def test_fingerprint_is_the_digest_of_the_payload(self):
        program = _compile("LeNet-5")
        recompiled = _compile("LeNet-5")
        assert recompiled is not program
        assert program.fingerprint() == fingerprint_payload(json.loads(json.dumps(program.to_dict())))
        assert recompiled.fingerprint() == program.fingerprint()
        for original, rebuilt in zip(program, recompiled):
            assert rebuilt.fingerprint() == fingerprint_payload(original.to_dict())
            assert rebuilt.fingerprint() == original.fingerprint()

    def test_fingerprint_sees_content_changes(self):
        base = _compile("LeNet-5", batch_size=4)
        other_batch = _compile("LeNet-5", batch_size=8)
        assert base.fingerprint() != other_batch.fingerprint()

    def test_corrupted_image_fails_validation(self):
        program = _compile("LeNet-5")
        image = program.to_dict()["blocks"][0]["block"]["image"]
        # Truncate the first block's image so setup/block-end framing breaks.
        with pytest.raises(ValueError):
            InstructionBlock(program[0].name, decode_block_hex(image[:8]))

    def test_fingerprint_stable_across_processes(self):
        program = _compile("LeNet-5")
        code = (
            "from repro.dnn import models; "
            "from repro.core.config import BitFusionConfig; "
            "from repro.isa.compiler import FusionCompiler; "
            "compiler = FusionCompiler(BitFusionConfig.eyeriss_matched()); "
            "print(compiler.compile(models.load('LeNet-5'), batch_size=4).fingerprint())"
        )
        env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONHASHSEED": "random"}
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
        assert outputs == {program.fingerprint()}


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
        staged = EvaluationSession().run(workload)
        monolithic = execute_workload(workload)
        assert network_result_to_dict(staged) == network_result_to_dict(monolithic)

    def test_memoized_program_blocks_are_byte_identical_to_monolithic(self):
        # Simulating the blocks of the program a session memoized must
        # reproduce the monolithic per-layer results bit for bit.
        workload = Workload.bitfusion("LSTM", batch_size=4)
        session = EvaluationSession()
        session.run(workload)
        program = session.cache.memo[program_cache_key(workload)]
        assert isinstance(program, Program)
        layers = simulator_for(workload.config).run_blocks(program)
        assert tuple(layers) == execute_workload(workload).layers

    def test_disk_restored_result_is_byte_identical(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        monolithic = execute_workload(workload)
        with EvaluationSession(cache_dir=tmp_path) as first:
            first.run(workload)
        with EvaluationSession(cache_dir=tmp_path) as warm:
            restored = warm.run(workload)
        assert warm.stats.disk_hits == 1 and warm.stats.programs.lookups == 0
        assert network_result_to_dict(restored) == network_result_to_dict(monolithic)
        # Drop the stored result: a fresh session recompiles and
        # re-simulates every block — same result, bit for bit.
        assert delete_segments(tmp_path)
        with EvaluationSession(cache_dir=tmp_path) as second:
            recomputed = second.run(workload)
        assert second.stats.programs.misses == 1
        assert second.stats.blocks.misses > 0
        assert network_result_to_dict(recomputed) == network_result_to_dict(monolithic)

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
            payload = compiled.to_dict()
            assert json.loads(json.dumps(payload)) == payload
            assert compiled.fingerprint() == fingerprint_payload(payload)

    def test_compile_program_rejects_non_bitfusion(self):
        with pytest.raises(ValueError, match="bitfusion"):
            compile_program(Workload.eyeriss("LeNet-5"))
