"""Tests for the result records (LayerResult / NetworkResult / MemoryTraffic)."""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError, asdict, replace

import pytest
from hypothesis import given, strategies as st

from repro.energy.breakdown import EnergyBreakdown
from repro.session.cache import decode_result, encode_result
from repro.sim.results import LayerResult, MemoryTraffic, NetworkResult


def _layer(name="layer", compute=1000, memory=500, macs=10_000, energy_j=1e-6) -> LayerResult:
    return LayerResult(
        name=name,
        macs=macs,
        input_bits=4,
        weight_bits=2,
        compute_cycles=compute,
        memory_cycles=memory,
        overhead_cycles=10,
        traffic=MemoryTraffic(dram_read_bits=1024, dram_write_bits=256, ibuf_read_bits=2048),
        energy=EnergyBreakdown(compute=energy_j / 2, dram=energy_j / 2),
        utilization=0.5,
    )


def _result(layers, batch=16, frequency=500.0, platform="bitfusion") -> NetworkResult:
    return NetworkResult(
        network_name="net",
        platform=platform,
        batch_size=batch,
        frequency_mhz=frequency,
        layers=tuple(layers),
    )


class TestMemoryTraffic:
    def test_totals(self):
        traffic = MemoryTraffic(dram_read_bits=10, dram_write_bits=5, ibuf_read_bits=3,
                                wbuf_read_bits=2, obuf_read_bits=1, obuf_write_bits=4)
        assert traffic.dram_total_bits == 15

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MemoryTraffic(dram_read_bits=-1)


class TestLayerResult:
    def test_total_cycles_is_max_plus_overhead(self):
        layer = _layer(compute=1000, memory=500)
        assert layer.total_cycles == 1010
        assert not layer.is_memory_bound

    def test_memory_bound_detection(self):
        layer = _layer(compute=100, memory=900)
        assert layer.is_memory_bound
        assert layer.total_cycles == 910

    def test_validation(self):
        with pytest.raises(ValueError):
            _layer(macs=-1)
        with pytest.raises(ValueError):
            _layer(compute=-1)
        with pytest.raises(ValueError):
            LayerResult(name="x", macs=0, input_bits=4, weight_bits=4,
                        compute_cycles=0, memory_cycles=0, utilization=1.5)

    def test_renamed_copy_changes_only_the_name(self):
        layer = _layer(name="conv1")
        copy = layer.renamed("net/conv1")
        assert copy == replace(layer, name="net/conv1")
        assert copy is not layer
        assert layer.name == "conv1"  # the shared record is untouched
        assert copy.total_cycles == layer.total_cycles
        with pytest.raises(FrozenInstanceError):
            copy.name = "other"


class TestNetworkResult:
    def test_cycle_and_latency_aggregation(self):
        result = _result([_layer("a"), _layer("b")], batch=8, frequency=500.0)
        assert result.total_cycles == 2 * 1010
        assert result.batch_latency_s == pytest.approx(2020 / 500e6)
        assert result.latency_per_inference_s == pytest.approx(2020 / 500e6 / 8)
        assert result.throughput_inferences_per_s == pytest.approx(1 / result.latency_per_inference_s)

    def test_energy_aggregation(self):
        result = _result([_layer(energy_j=2e-6), _layer(energy_j=4e-6)])
        assert result.energy.total == pytest.approx(6e-6)
        assert result.energy_per_inference_j == pytest.approx(6e-6 / 16)
        assert result.average_power_w == pytest.approx(result.energy.total / result.batch_latency_s)

    def test_speedup_and_energy_reduction(self):
        fast = _result([_layer(compute=100, memory=50)], platform="fast")
        slow = _result([_layer(compute=1000, memory=50)], platform="slow")
        assert fast.speedup_over(slow) > 1.0
        assert slow.speedup_over(fast) < 1.0
        cheap = _result([_layer(energy_j=1e-6)], platform="cheap")
        costly = _result([_layer(energy_j=4e-6)], platform="costly")
        assert cheap.energy_reduction_over(costly) == pytest.approx(4.0)

    def test_effective_throughput(self):
        result = _result([_layer(macs=1_000_000)])
        expected = 2 * 1_000_000 / result.batch_latency_s / 1e9
        assert result.effective_throughput_gops == pytest.approx(expected)

    def test_summary_contains_layer_names_and_totals(self):
        summary = _result([_layer("conv1")]).summary()
        assert "conv1" in summary
        assert "ms/inference" in summary

    def test_validation(self):
        with pytest.raises(ValueError):
            _result([], batch=16)
        with pytest.raises(ValueError):
            _result([_layer()], batch=0)
        with pytest.raises(ValueError):
            NetworkResult(network_name="n", platform="p", batch_size=1, frequency_mhz=0,
                          layers=(_layer(),))


_counts = st.integers(min_value=0, max_value=2**62)
_joules = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_layer_results = st.builds(
    LayerResult,
    name=st.text(max_size=12),
    macs=_counts,
    input_bits=st.integers(min_value=1, max_value=16),
    weight_bits=st.integers(min_value=1, max_value=16),
    compute_cycles=_counts,
    memory_cycles=_counts,
    overhead_cycles=_counts,
    traffic=st.builds(
        MemoryTraffic,
        **{name: _counts for name in MemoryTraffic().as_dict()},
    ),
    energy=st.builds(
        EnergyBreakdown,
        **{name: _joules for name in EnergyBreakdown().as_dict()},
    ),
    utilization=st.floats(min_value=0.0, max_value=1.0),
)


class TestNetworkResultMemo:
    """The network totals are computed once and stay outside the fields."""

    def test_totals_are_computed_once_per_instance(self):
        result = _result([_layer("a"), _layer("b")])
        assert result.energy is result.energy
        assert result.total_cycles == 2 * 1010

    def test_memo_is_invisible_to_eq_hash_asdict_replace_and_pickle(self):
        read = _result([_layer("a"), _layer("b")])
        pickled = pickle.dumps(read)
        # Reading the totals fills the memo; ``fresh`` never reads them.
        assert read.total_cycles and read.energy.total
        fresh = _result([_layer("a"), _layer("b")])
        assert set(vars(read)) > set(vars(fresh))
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert asdict(read) == asdict(fresh)
        assert pickle.dumps(read) == pickled
        assert pickle.loads(pickled) == read
        for clone in (pickle.loads(pickle.dumps(read)), copy.copy(read), copy.deepcopy(read)):
            assert clone == read
            assert set(vars(clone)) == set(vars(fresh))

    def test_replace_recomputes_the_totals(self):
        result = _result([_layer("a"), _layer("b")])
        assert result.total_cycles == 2020
        shorter = replace(result, layers=(_layer("a"),))
        assert shorter.total_cycles == 1010
        assert shorter.energy == _layer("a").energy

    @given(st.lists(st.builds(
        EnergyBreakdown, **{name: _joules for name in EnergyBreakdown().as_dict()}
    ), max_size=12))
    def test_energy_sum_is_the_componentwise_left_fold_bit_for_bit(self, breakdowns):
        folded = dict.fromkeys(EnergyBreakdown().as_dict(), 0.0)
        for breakdown in breakdowns:
            for key, value in breakdown.as_dict().items():
                folded[key] += value
        assert EnergyBreakdown.sum(breakdowns).as_dict() == folded


class TestRecordCodec:
    """Every field of a drawn layer survives a ``network_result`` record.

    A field added to ``LayerResult``, ``MemoryTraffic`` or
    ``EnergyBreakdown`` but not to the record's row would silently drop
    out of every cached result.
    """

    @given(_layer_results)
    def test_drawn_layer_result_round_trips_through_a_record(self, layer):
        result = _result([layer])
        assert decode_result(*encode_result(result)) == result


class TestStatsHelpers:
    def test_geometric_mean(self):
        from repro.sim.stats import geometric_mean

        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
