"""A result read back from a cache directory unpacks its layer rows on first read.

A ``network_result`` record carries the result's totals in its header, so
:func:`~repro.session.cache.decode_result` checks the rows and returns a
:meth:`~repro.sim.results.NetworkResult.deferred` result that builds its
layers only when something reads them.  These tests hold that result to the
one built with its layers up front, and the read path to its promises:

* for every record of a seed-0 sweep directory, the deferred result equals
  the eagerly built one under ``==``, ``hash``, ``asdict``, pickling,
  ``repr`` and every aggregate property;
* a warm seed-0 sweep constructs no :class:`~repro.sim.results.LayerResult`;
* a corrupt record (a negative or out-of-range row value, a missing or
  mistyped header total, a wrong row length) is a miss, and finding that
  out builds no layer;
* a directory of store schema 2, whose headers carry no totals, reads as
  all misses and is then refilled.
"""

from __future__ import annotations

import json
import math
import pickle
import struct
from dataclasses import asdict
from functools import cached_property
from pathlib import Path

import pytest
from reachability import SWEEP_SPEC

from repro.harness.runner import main
from repro.session import EvaluationSession, ResultCache, SegmentedStore, Workload
from repro.session.cache import decode_result, encode_result
from repro.session.store import encode_body
from repro.sim import batched
from repro.sim.results import LayerResult, NetworkResult

#: One layer row: 13 int64 counts, then four energies and the utilization.
_ROW = struct.Struct("<13q5d")
_COLUMNS = (
    "macs", "input_bits", "weight_bits", "compute_cycles", "memory_cycles",
    "overhead_cycles", "dram_read_bits", "dram_write_bits", "ibuf_read_bits",
    "wbuf_read_bits", "obuf_read_bits", "obuf_write_bits", "register_file_bits",
    "compute_j", "buffers_j", "register_file_j", "dram_j", "utilization",
)
#: A record's length prefix, and the head of its body (schema, header length).
_LENGTH = struct.Struct(">I")
_HEAD = struct.Struct(">BI")

#: Every aggregate a ``NetworkResult`` computes from its layers.
_AGGREGATES = sorted(
    name
    for name, value in vars(NetworkResult).items()
    if isinstance(value, (property, cached_property))
)


def _store_keys(directory: Path) -> list[str]:
    """Every key the directory's segment sidecars index."""
    return [
        key
        for sidecar in sorted(directory.glob("pack-*.seg.idx"))
        for key in json.loads(sidecar.read_text(encoding="utf-8"))["entries"]
    ]


def _first_record(directory: Path) -> tuple[dict, bytes]:
    return SegmentedStore(directory).get_record(_store_keys(directory)[0])


def _aggregates(result: NetworkResult) -> dict[str, object]:
    return {name: getattr(result, name) for name in _AGGREGATES}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory) -> Path:
    """A cache directory the seed-0 sweep filled."""
    work = tmp_path_factory.mktemp("sweep")
    spec = work / "sweep.json"
    spec.write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    assert main(["sweep", str(spec), "--cache-dir", str(work / "cache"),
                 "--output", str(work / "cold.md")]) == 0
    return work


@pytest.fixture
def built(monkeypatch) -> list[str]:
    """Names of the layer records built from now on, by either constructor."""
    names: list[str] = []
    check = LayerResult.__post_init__
    materialize = batched._materialize

    def counting_check(layer):
        names.append(layer.name)
        check(layer)

    def counting_materialize(name, *values):
        names.append(name)
        return materialize(name, *values)

    monkeypatch.setattr(LayerResult, "__post_init__", counting_check)
    monkeypatch.setattr(batched, "_materialize", counting_materialize)
    return names


def test_aggregates_cover_the_totals_a_sweep_reads():
    assert {"total_cycles", "total_macs", "energy", "latency_per_inference_s",
            "energy_per_inference_j", "effective_throughput_gops"} <= set(_AGGREGATES)


def test_deferred_result_equals_the_eager_one_for_every_sweep_record(sweep_dir):
    directory = sweep_dir / "cache"
    keys = _store_keys(directory)
    assert len(keys) == 576
    store = SegmentedStore(directory)
    for key in keys:
        header, rows = store.get_record(key)
        deferred = decode_result(header, rows)
        twin = decode_result(header, rows)
        eager = NetworkResult(
            twin.network_name, twin.platform, twin.batch_size, twin.frequency_mhz, twin.layers
        )
        # The seeded totals, read before anything unpacks the rows.
        seeded = {
            name: getattr(deferred, name)
            for name in _AGGREGATES
            if name not in ("compute_cycles", "memory_cycles")
        }
        assert "layers" not in vars(deferred), key
        assert seeded == {name: getattr(eager, name) for name in seeded}, key
        assert _aggregates(deferred) == _aggregates(eager), key
        assert deferred.summary() == eager.summary()
        assert "_load_layers" not in vars(deferred)  # the loader ran once, then left
        assert deferred == eager
        assert hash(deferred) == hash(eager)
        assert asdict(deferred) == asdict(eager)
        assert repr(deferred) == repr(eager)
        assert pickle.dumps(deferred) == pickle.dumps(eager)
        assert pickle.loads(pickle.dumps(deferred)) == eager
    store.close()


def test_each_deferred_form_matches_before_its_layers_are_read(sweep_dir):
    # ``==``, ``hash``, ``asdict``, a pickle and ``repr`` each unpack the
    # rows themselves when they are the first to read them.
    header, rows = _first_record(sweep_dir / "cache")
    eager = decode_result(header, rows)
    eager = NetworkResult(
        eager.network_name, eager.platform, eager.batch_size, eager.frequency_mhz, eager.layers
    )
    forms = {
        "==": lambda result: result == eager,
        "hash": hash,
        "asdict": asdict,
        "pickle": lambda result: pickle.loads(pickle.dumps(result)),
        "repr": repr,
    }
    for label, form in forms.items():
        deferred = decode_result(header, rows)
        assert "layers" not in vars(deferred)
        assert form(deferred) == form(eager), label


def test_a_deferred_result_has_no_other_missing_attribute(sweep_dir):
    header, rows = _first_record(sweep_dir / "cache")
    deferred = decode_result(header, rows)
    assert not hasattr(deferred, "no_such_field")
    assert "layers" not in vars(deferred)


def test_warm_sweep_constructs_no_layer_result(sweep_dir, built, tmp_path, capsys):
    output = tmp_path / "warm.md"
    assert main(["sweep", str(sweep_dir / "sweep.json"), "--cache-dir",
                 str(sweep_dir / "cache"), "--output", str(output)]) == 0
    assert (
        "576 workload lookups: 576 cache hits (576 from disk), 0 misses"
        in output.read_text(encoding="utf-8")
    )
    assert built == []


def test_a_cold_sweep_counts_its_layer_records(built, tmp_path, capsys):
    # The counter sees the batched path's records: an empty count above is
    # not a blind spot.
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"networks": ["LeNet-5"], "batch_sizes": [1]}), encoding="utf-8")
    assert main(["sweep", str(spec), "--cache-dir", str(tmp_path / "cache"),
                 "--output", str(tmp_path / "cold.md")]) == 0
    assert built


# ---------------------------------------------------------------------- #
# Corrupt records
# ---------------------------------------------------------------------- #
def _record() -> tuple[dict, bytes]:
    """A real multi-layer result's header and rows."""
    result = EvaluationSession().run_many([Workload.bitfusion("LeNet-5", batch_size=4)])[0]
    assert len(result.layers) > 1
    return encode_result(result)


def _with_column(rows: bytes, column: int, value) -> bytes:
    """``rows`` with ``column`` of the last row set to ``value``."""
    last = list(_ROW.unpack_from(rows, len(rows) - _ROW.size))
    last[column] = value
    return rows[: -_ROW.size] + _ROW.pack(*last)


def _without(header: dict, field: str) -> dict:
    return {name: value for name, value in header.items() if name != field}


#: The record every corrupt case starts from.
_HEADER, _ROWS = _record()


def _corrupt_records() -> dict[str, tuple[dict, bytes]]:
    header, rows = _HEADER, _ROWS
    cases: dict[str, tuple[dict, bytes]] = {}
    for column, name in enumerate(_COLUMNS):
        cases[f"negative-{name}"] = (header, _with_column(rows, column, -1))
    for value in (1.5, math.nan, math.inf):
        cases[f"utilization-{value}"] = (header, _with_column(rows, 17, value))
    for field in ("cycles", "macs", "energy"):
        cases[f"missing-{field}"] = (_without(header, field), rows)
        cases[f"string-{field}"] = (dict(header, **{field: "12"}), rows)
    for field in ("cycles", "macs"):
        cases[f"float-{field}"] = (dict(header, **{field: float(header[field])}), rows)
        cases[f"bool-{field}"] = (dict(header, **{field: True}), rows)
        cases[f"negative-total-{field}"] = (dict(header, **{field: -1}), rows)
    energy = header["energy"]
    cases["energy-of-ints"] = (dict(header, energy=[1, 2, 3, 4]), rows)
    cases["energy-too-short"] = (dict(header, energy=energy[:3]), rows)
    cases["energy-too-long"] = (dict(header, energy=energy + [0.0]), rows)
    cases["energy-as-object"] = (dict(header, energy=dict(zip("abcd", energy))), rows)
    cases["energy-negative"] = (dict(header, energy=[-1.0, *energy[1:]]), rows)
    cases["row-short-a-byte"] = (header, rows[:-1])
    cases["row-long-a-byte"] = (header, rows + b"\0")
    cases["extra-row"] = (header, rows + rows[: _ROW.size])
    cases["missing-row"] = (header, rows[: -_ROW.size])
    return cases


_CORRUPT = _corrupt_records()


@pytest.mark.parametrize("case", sorted(_CORRUPT))
def test_corrupt_record_is_a_miss_that_builds_no_layer(case, built, tmp_path):
    header, rows = _CORRUPT[case]
    store = SegmentedStore(tmp_path)
    store.append_encoded([
        ("bad", "network_result", encode_body("bad", "network_result", header, rows)),
        ("good", "network_result", encode_body("good", "network_result", _HEADER, _ROWS)),
    ])
    store.close()
    cache = ResultCache(tmp_path)
    assert cache.get("bad") is None
    assert cache.get("good") is not None
    assert built == []


# ---------------------------------------------------------------------- #
# Older directories
# ---------------------------------------------------------------------- #
def _write_schema_2(directory: Path, results: dict[str, NetworkResult]) -> None:
    """A directory as store schema 2 wrote it: no totals in any header."""
    blob = bytearray()
    entries = {}
    for key, result in results.items():
        header, rows = encode_result(result)
        for field in ("cycles", "macs", "energy"):
            del header[field]
        text = json.dumps({**header, "key": key, "kind": "network_result"},
                          separators=(",", ":")).encode("utf-8")
        body = _HEAD.pack(2, len(text)) + text + rows
        blob += _LENGTH.pack(len(body))
        entries[key] = [len(blob), len(body), "network_result"]
        blob += body
    segment = directory / "pack-1-schema2.seg"
    segment.write_bytes(bytes(blob))
    sidecar = {"schema": 2, "segment_bytes": len(blob), "entries": entries}
    segment.with_name(segment.name + ".idx").write_text(json.dumps(sidecar), encoding="utf-8")


def test_schema_2_directory_reads_as_all_misses_then_refills(tmp_path):
    workloads = [Workload.bitfusion(name, batch_size=4) for name in ("LeNet-5", "LSTM", "RNN")]
    fresh = EvaluationSession().run_many(workloads)
    _write_schema_2(tmp_path, {w.fingerprint(): r for w, r in zip(workloads, fresh)})
    assert ResultCache(tmp_path).entry_summary() == {}
    with EvaluationSession(cache_dir=tmp_path) as first:
        assert first.run_many(workloads) == fresh
    assert (first.stats.disk_hits, first.stats.unique_executions) == (0, 3)
    with EvaluationSession(cache_dir=tmp_path) as rerun:
        assert rerun.run_many(workloads) == fresh
    assert (rerun.stats.disk_hits, rerun.stats.unique_executions) == (3, 0)
    summary = ResultCache(tmp_path).entry_summary()
    assert summary["network_result"]["entries"] == 3
    assert (tmp_path / "pack-1-schema2.seg").exists()  # never deleted or rewritten
