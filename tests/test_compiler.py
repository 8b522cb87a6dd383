"""Tests for the Fusion-ISA compiler (layer and network lowering)."""

from __future__ import annotations

import random

import pytest

from repro.dnn import models
from repro.dnn.layers import ActivationLayer, ConvLayer, FCLayer, LSTMLayer, PoolLayer, RNNLayer
from repro.dnn.network import Network
from repro.isa.compiler import FusionCompiler
from repro.isa.instructions import Compute, ComputeFn, LdMem, Loop, ScratchpadType, StMem
from repro.isa.optimizations import _is_fusable_follower, fuse_layers
from repro.nas.mutations import mutate_bits

from compiling import block_payload, compile_alone, program_digest, program_payload


@pytest.fixture
def compiler(default_config) -> FusionCompiler:
    return FusionCompiler(default_config)


class TestGemmWorkloadLowering:
    def test_batch_folds_into_r(self, compiler):
        layer = FCLayer(name="fc", in_features=64, out_features=32)
        workload = compiler.gemm_workload(layer, batch_size=4)
        assert workload.r == 4
        assert workload.m == 32
        assert workload.n == 64

    def test_conv_repeats_are_spatial_positions(self, compiler):
        layer = ConvLayer(name="c", in_channels=3, out_channels=8, in_height=8, in_width=8,
                          kernel=3, padding=1)
        workload = compiler.gemm_workload(layer, batch_size=2)
        assert workload.r == 64 * 2

    def test_batch_is_an_argument_not_a_config_default(self, compiler):
        layer = FCLayer(name="fc", in_features=8, out_features=8)
        with pytest.raises(TypeError):
            compiler.gemm_workload(layer)

    def test_rejects_non_gemm_layer(self, compiler):
        with pytest.raises(ValueError):
            compiler.gemm_workload(PoolLayer(name="p"), 16)

    def test_rejects_bad_batch(self, compiler):
        with pytest.raises(ValueError):
            compiler.gemm_workload(FCLayer(name="fc"), batch_size=0)


class TestBlockStructure:
    def test_block_starts_with_setup_matching_layer_bits(self, compiler):
        layer = FCLayer(name="fc", in_features=64, out_features=32, input_bits=4, weight_bits=1)
        compiled = compile_alone(compiler, layer, 16)
        assert compiled.block.setup.input_bits == 4
        assert compiled.block.setup.weight_bits == 1

    def test_block_contains_memory_and_compute_instructions(self, compiler):
        layer = ConvLayer(name="c", in_channels=16, out_channels=32, in_height=14, in_width=14,
                          kernel=3, padding=1, input_bits=2, weight_bits=2)
        compiled = compile_alone(compiler, layer, 16)
        mnemonics = {instruction.mnemonic for instruction in compiled.block}
        assert {"setup", "loop", "gen-addr", "ld-mem", "st-mem", "rd-buf", "wr-buf",
                "compute", "block-end"} <= mnemonics

    def test_conv_blocks_express_kernel_walk(self, compiler):
        layer = ConvLayer(name="c", in_channels=8, out_channels=8, in_height=8, in_width=8,
                          kernel=5, padding=2)
        compiled = compile_alone(compiler, layer, 16)
        kernel_loops = [
            loop for loop in compiled.block.loops() if loop.level == 1 and loop.iterations == 5
        ]
        assert len(kernel_loops) >= 2

    def test_recurrent_blocks_have_gate_loop(self, compiler):
        layer = LSTMLayer(name="lstm", input_size=64, hidden_size=64, input_bits=4, weight_bits=4)
        compiled = compile_alone(compiler, layer, 16)
        assert any(
            loop.level == 1 and loop.iterations == 4 for loop in compiled.block.loops()
        )
        rnn = RNNLayer(name="rnn", input_size=64, hidden_size=64)
        rnn_block = compile_alone(compiler, rnn, 16)
        assert len(rnn_block.block) > 0

    def test_instruction_counts_in_paper_range(self, compiler):
        """Section IV-A: a few tens of instructions per block."""
        for layer in (
            FCLayer(name="fc", in_features=1024, out_features=1024),
            ConvLayer(name="c", in_channels=64, out_channels=64, in_height=28, in_width=28,
                      kernel=3, padding=1),
            LSTMLayer(name="l", input_size=512, hidden_size=512),
        ):
            compiled = compile_alone(compiler, layer, 16)
            assert 20 <= len(compiled.block) <= 90

    def test_memory_loops_iterate_over_tiles(self, compiler):
        layer = FCLayer(name="fc", in_features=8192, out_features=8192,
                        input_bits=8, weight_bits=8)
        compiled = compile_alone(compiler, layer, 16)
        outer_loops = [loop for loop in compiled.block.loops() if loop.level == 0]
        trip_product = 1
        for loop in outer_loops:
            trip_product *= loop.iterations
        assert trip_product >= compiled.tiling.tile_count

    def test_ld_mem_words_match_tile_sizes(self, compiler):
        layer = FCLayer(name="fc", in_features=256, out_features=128, input_bits=8, weight_bits=8)
        compiled = compile_alone(compiler, layer, 16)
        loads = [i for i in compiled.block if isinstance(i, LdMem)]
        by_target = {load.scratchpad: load.num_words for load in loads}
        assert by_target[ScratchpadType.WBUF] == min(
            compiled.tiling.tile_m * compiled.tiling.tile_n, (1 << 16) - 1
        )


class TestAuxiliaryLayerCompilation:
    def test_pool_layer_compiles_to_max_block(self, compiler):
        layer = PoolLayer(name="p", channels=8, in_height=8, in_width=8, kernel=2, stride=2)
        compiled = compile_alone(compiler, layer, 16)
        fns = [i.fn for i in compiled.block if isinstance(i, Compute)]
        assert fns == [ComputeFn.MAX]
        assert compiled.layer is layer

    def test_avg_pool_uses_add(self, compiler):
        layer = PoolLayer(name="p", channels=8, in_height=8, in_width=8, kernel=2, stride=2,
                          mode="avg")
        compiled = compile_alone(compiler, layer, 16)
        assert any(i.fn is ComputeFn.ADD for i in compiled.block if isinstance(i, Compute))

    def test_activation_layer_compiles_to_activation_block(self, compiler):
        layer = ActivationLayer(name="a", elements=256)
        compiled = compile_alone(compiler, layer, 16)
        assert any(i.fn is ComputeFn.ACTIVATION for i in compiled.block if isinstance(i, Compute))


class TestNetworkCompilation:
    def test_fused_network_has_fewer_blocks_than_layers(self, default_config):
        network = models.load("LeNet-5")
        program = FusionCompiler(default_config).compile(network, 16)
        assert len(program) < len(network)
        assert any(compiled.fused_layers for compiled in program)

    def test_unfused_network_has_block_per_layer(self, default_config):
        network = models.load("LeNet-5")
        compiler = FusionCompiler(default_config, enable_layer_fusion=False)
        program = compiler.compile(network, 16)
        assert len(program) == len(network)

    def test_fused_block_output_traffic_shrinks(self, default_config):
        network = Network(
            "conv-pool",
            [
                ConvLayer(name="conv", in_channels=8, out_channels=16, in_height=16, in_width=16,
                          kernel=3, padding=1, input_bits=4, weight_bits=2, output_bits=4),
                PoolLayer(name="pool", channels=16, in_height=16, in_width=16, kernel=2, stride=2,
                          input_bits=4, weight_bits=2, output_bits=4),
            ],
        )
        fused_program = FusionCompiler(default_config).compile(network, 16)
        unfused_program = FusionCompiler(default_config, enable_layer_fusion=False).compile(
            network, 16
        )
        fused_store = fused_program[0].tiling.dram_output_write_bits
        unfused_store = unfused_program[0].tiling.dram_output_write_bits
        assert fused_store < unfused_store

    def test_every_compute_layer_gets_a_block(self, default_config):
        network = models.load("Cifar-10")
        program = FusionCompiler(default_config).compile(network, 16)
        compiled_heads = {compiled.layer.name for compiled in program}
        compute_names = {layer.name for layer in network.compute_layers()}
        assert compute_names <= compiled_heads

    def test_program_blocks_store_st_mem(self, default_config):
        program = FusionCompiler(default_config).compile(models.load("LSTM"), 16)
        for compiled in program:
            assert any(isinstance(i, StMem) for i in compiled.block)

    def test_loop_iterations_fit_isa_fields(self, default_config):
        for name in ("AlexNet", "ResNet-18"):
            program = FusionCompiler(default_config).compile(models.load(name), 16)
            for compiled in program:
                for loop in compiled.block.loops():
                    assert 1 <= loop.iterations <= (1 << 16) - 1


class _RenamedRNN(RNNLayer):
    """Same fields (and hash) as an RNNLayer, different concrete class."""


class TestBlockReuse:
    """One long-lived compiler builds each (head, followers, batch) group once."""

    @pytest.fixture
    def networks(self) -> tuple[Network, Network]:
        base = models.load("ResNet-18")
        mutant = mutate_bits(base, random.Random(5))
        assert mutant is not None
        return base, mutant

    @staticmethod
    def _changed_indices(base: Network, mutant: Network) -> list[int]:
        base_groups = fuse_layers(base.layers).groups
        mutant_groups = fuse_layers(mutant.layers).groups
        assert len(base_groups) == len(mutant_groups)
        return [i for i, (a, b) in enumerate(zip(base_groups, mutant_groups)) if a != b]

    @pytest.fixture
    def counted(self, monkeypatch) -> list:
        """Record the head layer of every block the compiler actually builds."""
        built: list = []
        for method in ("_plan_compute_block", "_plan_auxiliary_block"):
            original = getattr(FusionCompiler, method)

            def counting(self, layer, *args, _original=original, **kwargs):
                built.append(layer)
                return _original(self, layer, *args, **kwargs)

            monkeypatch.setattr(FusionCompiler, method, counting)
        return built

    def test_programs_equal_a_fresh_compilers(self, default_config, networks):
        shared = FusionCompiler(default_config)
        for network in networks:
            program = shared.compile(network, 16)
            fresh = FusionCompiler(default_config).compile(network, 16)
            assert program_payload(program) == program_payload(fresh)
            assert program_digest(program) == program_digest(fresh)

    def test_mutant_shares_unchanged_blocks(self, default_config, networks):
        base, mutant = networks
        changed = self._changed_indices(base, mutant)
        assert len(changed) == 1
        shared = FusionCompiler(default_config)
        base_program = shared.compile(base, 16)
        mutant_program = shared.compile(mutant, 16)
        for index, (old, new) in enumerate(zip(base_program, mutant_program)):
            if index in changed:
                assert new is not old
                assert block_payload(new) != block_payload(old)
            else:
                assert new is old

    def test_only_changed_groups_compile(self, default_config, networks, counted):
        base, mutant = networks
        shared = FusionCompiler(default_config)
        shared.compile(base, 16)
        assert len(counted) == len(fuse_layers(base.layers).groups)
        counted.clear()
        shared.compile(mutant, 16)
        heads = fuse_layers(mutant.layers).groups
        assert counted == [heads[i][0] for i in self._changed_indices(base, mutant)]
        counted.clear()
        shared.compile(base, 16)
        assert counted == []

    def test_batch_size_is_part_of_the_entry(self, default_config, counted):
        network = models.load("LeNet-5")
        shared = FusionCompiler(default_config)
        one = shared.compile(network, batch_size=1)
        four = shared.compile(network, batch_size=4)
        assert len(counted) == 2 * len(one)
        assert all(a is not b for a, b in zip(one, four))

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                FCLayer(name="fc_a", in_features=64, out_features=32),
                FCLayer(name="fc_b", in_features=64, out_features=32),
            ),
            (
                LSTMLayer(name="rec", input_size=32, hidden_size=32, timesteps=4),
                RNNLayer(name="rec", input_size=32, hidden_size=32, timesteps=4),
            ),
            (
                RNNLayer(name="rec", input_size=32, hidden_size=32, timesteps=4),
                _RenamedRNN(name="rec", input_size=32, hidden_size=32, timesteps=4),
            ),
        ],
        ids=["name", "lstm-vs-rnn", "subclass"],
    )
    def test_distinct_layers_never_share_an_entry(self, default_config, first, second):
        shared = FusionCompiler(default_config)
        a = shared.compile(Network("a", [first]), 16)[0]
        b = shared.compile(Network("b", [second]), 16)[0]
        assert a is not b
        assert a.layer is first and b.layer is second
        fresh = FusionCompiler(default_config).compile(Network("b", [second]), 16)[0]
        assert block_payload(b) == block_payload(fresh)


#: Per zoo network: (source layers, compiled blocks) with layer fusion on.
#: A fusion change fails here by name instead of surfacing as figure drift.
ZOO_STRUCTURE = {
    "AlexNet": (13, 8),
    "Cifar-10": (12, 9),
    "LSTM": (2, 2),
    "LeNet-5": (6, 4),
    "ResNet-18": (23, 21),
    "RNN": (2, 2),
    "SVHN": (12, 9),
    "VGG-7": (11, 8),
}


class TestZooStructure:
    def test_table_covers_the_zoo(self):
        assert sorted(ZOO_STRUCTURE) == sorted(models.benchmark_names())

    @pytest.mark.parametrize("name", sorted(ZOO_STRUCTURE))
    def test_layer_and_block_counts(self, default_config, name):
        network = models.load(name)
        program = FusionCompiler(default_config).compile(network, 16)
        assert (len(network.layers), len(program)) == ZOO_STRUCTURE[name]

    @pytest.mark.parametrize("name", sorted(ZOO_STRUCTURE))
    def test_every_source_layer_maps_to_exactly_one_block(self, default_config, name):
        network = models.load(name)
        program = FusionCompiler(default_config).compile(network, 16)
        covered = [
            layer for compiled in program for layer in (compiled.layer, *compiled.fused_layers)
        ]
        # In source order, each layer object exactly once.
        assert len(covered) == len(network.layers)
        assert all(a is b for a, b in zip(covered, network.layers))

    @pytest.mark.parametrize("name", sorted(ZOO_STRUCTURE))
    def test_blocks_are_gemm_headed_with_fusable_followers(self, default_config, name):
        # Fusion never spans a layer type it cannot fuse: every zoo block
        # is headed by a GEMM layer and absorbs only pooling/activation.
        program = FusionCompiler(default_config).compile(models.load(name), 16)
        for compiled in program:
            assert compiled.layer.has_gemm(), compiled.name
            assert all(_is_fusable_follower(layer) for layer in compiled.fused_layers), (
                compiled.name
            )

    @pytest.mark.parametrize("name", sorted(ZOO_STRUCTURE))
    def test_disabled_fusion_yields_no_followers(self, default_config, name):
        network = models.load(name)
        program = FusionCompiler(default_config, enable_layer_fusion=False).compile(network, 16)
        assert all(not compiled.fused_layers for compiled in program)
        assert len(program) == len(network.layers)
        assert all(compiled.layer is layer for compiled, layer in zip(program, network.layers))


class TestBatchedPlanning:
    """One resolver call per compiled program, holding every new group."""

    @staticmethod
    def _recording_compiler(config, calls: list, **flags) -> FusionCompiler:
        def recorder(requests, compute):
            calls.append(list(requests))
            return compute(requests)

        return FusionCompiler(config, plan_resolver=recorder, **flags)

    def test_one_resolver_call_per_program(self, default_config):
        network = models.load("ResNet-18")
        calls: list = []
        compiler = self._recording_compiler(default_config, calls)
        program = compiler.compile(network, 16)
        assert len(calls) == 1
        assert calls[0] == [
            compiler._tiling_request(group[0], 16) for group in fuse_layers(network.layers).groups
        ]
        assert len(calls[0]) == len(program)
        assert program_digest(program) == program_digest(
            FusionCompiler(default_config).compile(network, 16)
        )

    def test_recompile_asks_only_for_new_groups(self, default_config):
        base = models.load("ResNet-18")
        mutant = mutate_bits(base, random.Random(5))
        calls: list = []
        compiler = self._recording_compiler(default_config, calls)
        compiler.compile(base, 16)
        compiler.compile(mutant, 16)
        changed = [
            group[0]
            for group, old in zip(fuse_layers(mutant.layers).groups, fuse_layers(base.layers).groups)
            if group != old
        ]
        assert calls[1] == [
            (compiler.gemm_workload(head, 16), compiler.gemm_orders()) for head in changed
        ]
        compiler.compile(base, 16)
        assert len(calls) == 2

    def test_single_layer_programs_search_one_request(self, default_config):
        calls: list = []
        compiler = self._recording_compiler(default_config, calls)
        layer = FCLayer(name="fc", in_features=64, out_features=32)
        pool = PoolLayer(name="pool", channels=4, in_height=8, in_width=8)
        for alone in (layer, pool):
            assert block_payload(compile_alone(compiler, alone, 16)) == block_payload(
                compile_alone(FusionCompiler(default_config), alone, 16)
            )
        assert [len(requests) for requests in calls] == [1, 1]

    def test_error_names_the_first_failing_layer_in_program_order(self, default_config):
        # An 8-bit input buffer holds no 16-bit operand.  Unfused, the
        # activation block (output-stationary only) fails before the second
        # FC layer (all orders); the batched searches must still name it.
        tiny_ibuf = default_config.with_buffers(0.001, 64.0, 64.0)
        network = Network(
            "mixed",
            [
                FCLayer(name="fc_ok", in_features=8, out_features=8),
                ActivationLayer(name="act_bad", elements=8, input_bits=16),
                FCLayer(name="fc_bad", in_features=8, out_features=8, input_bits=16),
            ],
        )
        compiler = FusionCompiler(tiny_ibuf, enable_layer_fusion=False)
        aux_gemm = compiler.auxiliary_gemm_workload(network.layers[1], batch_size=1)
        with pytest.raises(ValueError, match="^no feasible tiling for GEMM 1x1x8 at 16/8") as error:
            compiler.compile(network, batch_size=1)
        assert f"{aux_gemm.m}x{aux_gemm.n}x{aux_gemm.r}" in str(error.value)
        assert "\n" not in str(error.value)


class TestSharedInstructions:
    """Constant instructions are built once and equal freshly built ones."""

    def test_shared_constants_equal_fresh_instructions(self):
        from repro.isa import compiler as module
        from repro.isa.instructions import BlockEnd, GenAddr, RdBuf, WrBuf

        assert module._MACC_TAIL == (
            RdBuf(scratchpad=ScratchpadType.IBUF),
            RdBuf(scratchpad=ScratchpadType.WBUF),
            RdBuf(scratchpad=ScratchpadType.OBUF),
            Compute(fn=ComputeFn.MACC),
            WrBuf(scratchpad=ScratchpadType.OBUF),
        )
        assert module._IBUF_READ == RdBuf(scratchpad=ScratchpadType.IBUF)
        assert module._OBUF_WRITE == WrBuf(scratchpad=ScratchpadType.OBUF)
        assert module._BLOCK_END == BlockEnd(next_block=0)
        assert module._COMPUTE == {fn: Compute(fn=fn) for fn in ComputeFn}
        assert len(module._UNIT_STEP) == 9
        for (scratchpad, loop_id), step in module._UNIT_STEP.items():
            assert step == GenAddr(scratchpad=scratchpad, loop_id=loop_id, stride=1)

    def test_every_block_still_validates(self, default_config):
        from repro.isa.block import InstructionBlock

        for name in models.BENCHMARKS:
            for fusion in (True, False):
                program = FusionCompiler(default_config, enable_layer_fusion=fusion).compile(
                    models.load(name), 16
                )
                for compiled in program:
                    rebuilt = InstructionBlock(compiled.name, list(compiled.block))
                    assert tuple(rebuilt) == tuple(compiled.block)
