"""Tracked performance micro-benchmarks for the compile/evaluate hot path.

``python benchmarks/perf/run.py`` measures the scenarios the ROADMAP's
"runs as fast as the hardware allows" goal cares about and emits one
trajectory point as JSON (``BENCH_9.json`` at the repo root by default;
``--check`` alone writes no file, so a perf check leaves the tree clean):

* **cold compile** — every zoo network through a fresh ``FusionCompiler``
  (vectorized tiling search, no memoization), total and per network;
* **tiling search** — the same searches the zoo triggers, timed through
  the scalar reference (``tests/reference/tiling.py``) and the vectorized
  scorer, as a machine-independent speedup ratio;
* **memoized compile** — the zoo compiled through the session's tiling
  memo (``make_plan_resolver``), the way reports and sweeps compile;
* **compile speedup vs the scalar baseline** — reconstructed old cost
  (today's planning + scalar searches) over the new memoized cost; the
  repo's acceptance bar is >= 3x.  A compile only plans: it emits no
  instruction (a block's instructions are emitted on first read), so both
  sides price planning and tiling searches only.  The ratio no longer
  includes the instruction emission the pre-vectorization compiler did on
  every compile, and reads higher than it did while compiles emitted;
* **batched simulation** — every zoo block simulated through the scalar
  ``run_block`` oracle (``tests/reference/simulator.py``) and through the
  vectorized batched executor, both
  as a single-config batch and as a configs x blocks grid (the
  bandwidth-sweep fast path); the speedups are machine-independent ratios
  and the repo's acceptance bar is >= 5x on the grid;
* **warm/cold run_many** — a small evaluation batch through an
  ``EvaluationSession``, cold then fully warm;
* **cache I/O** — persisting and reading back a thousand-plus composed
  ``NetworkResult`` records (the one kind the disk holds) through the
  segmented pack store, one ``put`` and one ``get`` per record;
* **sweep grid expansion** — ``SweepSpec.expand`` on a few-hundred-point
  spec;
* **Pareto reduction** — the sort-based frontier on synthetic points;
* **NAS estimator** — a mutated ResNet-18 candidate priced through the
  cache-composition estimator from a warm layer memo vs full
  ``evaluate()`` (the repo's acceptance bar is >= 50x, with zero fresh
  simulations), the unseen-layer dedupe rate of a fingerprint-deduped
  candidate batch, and the candidates/second of a fully-warm search.

Every speedup is measured by interleaving: the slow and the fast side run
back to back, round after round, and the metric is the median of the
per-round ratios, so a host that drifts between rounds moves both sides
of each ratio alike.

``--check BASELINE`` compares the measured metrics against a committed
baseline (``benchmarks/perf/baseline.json``) and exits non-zero on any
violated bound — the CI ``perf-smoke`` job runs exactly that.  Bounds on
wall-clock metrics carry generous headroom for slower CI machines; the
ratios (speedups, hit rates) are machine-independent and tight.  See
``docs/performance.md`` for how to read and refresh the numbers.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
# ``src`` holds the package; ``tests`` holds the scalar reference models
# (``tests/reference``) the speedup metrics are measured against.
for _path in (REPO_ROOT / "tests", REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy  # noqa: E402

from repro import __version__  # noqa: E402
from repro.core.accelerator import BitFusionAccelerator  # noqa: E402
from repro.core.config import BitFusionConfig  # noqa: E402
from repro.dnn import models  # noqa: E402
from repro.nas.estimator import Estimator  # noqa: E402
from repro.nas.mutations import mutate  # noqa: E402
from repro.nas.search import SearchSpec, run_search  # noqa: E402
from repro.dse.pareto import pareto_indices  # noqa: E402
from repro.dse.spec import SweepSpec  # noqa: E402
from repro.isa.compiler import FusionCompiler  # noqa: E402
from repro.isa.tiling import search_tilings  # noqa: E402
from repro.session import EvaluationSession, Workload, execute_workload  # noqa: E402
from repro.session.cache import CacheStats, ResultCache  # noqa: E402
from repro.session.engine import make_plan_resolver  # noqa: E402
from repro.sim.batched import simulate_blocks_grid  # noqa: E402

from reference.simulator import run_block  # noqa: E402
from reference.tiling import search_tiling_scalar  # noqa: E402

#: Networks the run_many scenario evaluates — small enough to keep the
#: suite fast, two networks so the batch genuinely exercises scheduling.
_RUN_MANY_NETWORKS = ("LeNet-5", "LSTM")
_BATCH = 4


def _timed(fn) -> float:
    """Wall-clock seconds of one ``fn()`` call, garbage collector paused.

    As in :mod:`timeit`: a collection triggered by garbage an earlier call
    left behind would otherwise be charged to whichever call runs next.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _best_of(repeats: int, fn) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs (noise suppression)."""
    return min(_timed(fn) for _ in range(repeats))


def _interleaved(rounds: int, slow, fast, inner: int = 3) -> tuple[float, float, float]:
    """Alternate ``slow`` and ``fast`` for ``rounds`` back-to-back pairs.

    Each side of a pair is its best of ``inner`` consecutive calls, so its
    first call (run with CPU caches cold from the other side) does not
    decide it.  Returns the best slow and fast seconds and the median of
    the per-pair slow/fast ratios.  Both sides of a pair see the same host
    speed, so drift between pairs cancels out of every ratio; the median
    then drops the pairs a burst of load split.
    """
    pairs = [(_best_of(inner, slow), _best_of(inner, fast)) for _ in range(rounds)]
    ratio = statistics.median(slow_s / fast_s for slow_s, fast_s in pairs)
    return min(s for s, _ in pairs), min(f for _, f in pairs), ratio


def _collect_searches(config: BitFusionConfig) -> list[tuple]:
    """Every (gemm, orders) pair the zoo's compilation searches."""
    searches: list[tuple] = []

    def recorder(requests, compute):
        searches.extend(requests)
        return compute(requests)

    for name in models.BENCHMARKS:
        compiler = FusionCompiler(config, plan_resolver=recorder)
        compiler.compile(models.load(name), batch_size=16)
    return searches


def bench_compile(repeats: int) -> dict:
    config = BitFusionConfig.eyeriss_matched()
    networks = {name: models.load(name) for name in models.BENCHMARKS}

    per_network: dict[str, float] = {}
    for name, network in networks.items():
        # A fresh compiler per repeat: a compiler hands back the blocks it
        # already built, so reusing one would time memo hits, not a compile.
        per_network[name] = _best_of(
            repeats, lambda n=network: FusionCompiler(config).compile(n, batch_size=16)
        )
    cold_total = sum(per_network.values())

    searches = _collect_searches(config)

    def scalar_searches() -> None:
        for gemm, orders in searches:
            search_tiling_scalar(gemm, config, orders)

    def vector_searches() -> None:
        for gemm, orders in searches:
            search_tilings((gemm,), config, orders)

    memo_stats_runs: list[CacheStats] = []

    def memoized_compile() -> None:
        cache, stats = ResultCache(), CacheStats()
        resolver = make_plan_resolver(config, cache, stats)
        for network in networks.values():
            FusionCompiler(config, plan_resolver=resolver).compile(network, batch_size=16)
        memo_stats_runs.append(stats)

    # One round times all three sides back to back, so every round's ratio
    # sees one host speed.  The pre-vectorization compiler = today's
    # planning (cold total minus vectorized searches) + scalar searches;
    # planning emits no instruction, so neither side prices emission.
    rounds = [
        (_timed(scalar_searches), _timed(vector_searches), _timed(memoized_compile))
        for _ in range(max(repeats, 5))
    ]
    memo_stats = memo_stats_runs[-1]
    return {
        "cold_compile_total_s": cold_total,
        "cold_compile_per_network_s": per_network,
        "tiling_searches": len(searches),
        "tiling_search_scalar_s": min(scalar for scalar, _, _ in rounds),
        "tiling_search_vectorized_s": min(vector for _, vector, _ in rounds),
        "tiling_search_speedup": statistics.median(
            scalar / vector for scalar, vector, _ in rounds
        ),
        "memoized_compile_total_s": min(memo for _, _, memo in rounds),
        "tiling_memo_cold_hit_rate": memo_stats.tilings.hit_rate,
        "compile_speedup_vs_scalar": statistics.median(
            (cold_total - vector + scalar) / memo for scalar, vector, memo in rounds
        ),
    }


def bench_tiling_memo_warm() -> dict:
    """Recompile the zoo against a warm tiling memo: zero searches allowed."""
    config = BitFusionConfig.eyeriss_matched()
    cache = ResultCache()
    warm_stats = CacheStats()
    for name in models.BENCHMARKS:
        resolver = make_plan_resolver(config, cache, CacheStats())
        FusionCompiler(config, plan_resolver=resolver).compile(
            models.load(name), batch_size=16
        )
    for name in models.BENCHMARKS:
        resolver = make_plan_resolver(config, cache, warm_stats)
        FusionCompiler(config, plan_resolver=resolver).compile(
            models.load(name), batch_size=16
        )
    return {
        "tiling_memo_warm_lookups": warm_stats.tilings.lookups,
        "tiling_memo_warm_hit_rate": warm_stats.tilings.hit_rate,
        "tiling_memo_warm_searches": warm_stats.tilings.misses,
    }


def bench_sim(repeats: int) -> dict:
    """Batched vs scalar simulation of every zoo block (1-D and grid)."""
    config = BitFusionConfig.eyeriss_matched()
    blocks = []
    for name in models.BENCHMARKS:
        blocks.extend(FusionCompiler(config).compile(models.load(name), batch_size=16))

    rounds = max(repeats * 3, 9)
    scalar_s, batched_s, batched_speedup = _interleaved(
        rounds,
        lambda: [run_block(config, b) for b in blocks],
        lambda: simulate_blocks_grid([config], blocks),
    )

    # The bandwidth-sweep fast path: one block batch under several sim
    # configs in a single 2-D pass (extraction amortized across rows).
    grid_configs = [
        config,
        config.with_bandwidth(128),
        config.with_bandwidth(512),
        config.with_bandwidth(768),
    ]
    grid_scalar_s, grid_batched_s, grid_speedup = _interleaved(
        rounds,
        lambda: [[run_block(c, b) for b in blocks] for c in grid_configs],
        lambda: simulate_blocks_grid(grid_configs, blocks),
    )
    return {
        "sim_blocks": len(blocks),
        "sim_scalar_s": scalar_s,
        "sim_batched_s": batched_s,
        "sim_batched_speedup": batched_speedup,
        "sim_grid_configs": len(grid_configs),
        "sim_grid_scalar_s": grid_scalar_s,
        "sim_grid_batched_s": grid_batched_s,
        "sim_grid_speedup": grid_speedup,
    }


def bench_run_many(repeats: int) -> dict:
    workloads = [
        Workload.bitfusion(name, batch_size=_BATCH) for name in _RUN_MANY_NETWORKS
    ]
    # Cold is only cold once per session, so every cold call gets a fresh
    # one; the warm side then re-runs the batch on the latest session.
    sessions: list[EvaluationSession] = []

    def cold() -> None:
        sessions[:] = [EvaluationSession()]
        sessions[0].run_many(workloads)

    cold_s, warm_s, speedup = _interleaved(
        max(repeats * 3, 9), cold, lambda: sessions[0].run_many(workloads)
    )
    return {
        "run_many_cold_s": cold_s,
        "run_many_warm_s": warm_s,
        "run_many_warm_speedup": speedup,
        "run_many_warm_hits": sessions[0].stats.hits,
    }


def bench_cache_io(repeats: int) -> dict:
    """Result persistence and reads through the segmented store.

    The entries are composed ``NetworkResult`` records — the one kind the
    disk holds — each a real LeNet-5 result under its own network name.
    Persisting is one ``put`` (one segment append) per record, then the
    sidecar flush.  Reading is one ``get`` per key through a fresh
    ``ResultCache``, so the open cost (sidecar load, index build) is
    included, and then each result's latency and energy per inference,
    the totals a sweep point reads: exactly what a warm sweep does.  The
    read metric keeps its historical name, ``cache_get_many_pack_s``.
    """
    entries = 1200
    result = execute_workload(Workload.bitfusion("LeNet-5", batch_size=16))
    items = [
        (f"bench-entry-{index:05d}", replace(result, network_name=f"LeNet-5/{index:05d}"))
        for index in range(entries)
    ]
    keys = [key for key, _ in items]

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as base:
        root = Path(base)
        fresh = itertools.count()

        def pack_put() -> None:
            cache = ResultCache(root / f"pack-{next(fresh)}")
            for key, value in items:
                cache.put(key, value)
            cache.close()

        pack_put_s = _best_of(repeats, pack_put)

        pack_dir = root / "pack-read"
        seeder = ResultCache(pack_dir)
        for key, value in items:
            seeder.put(key, value)
        seeder.close()

        def pack_get() -> None:
            cache = ResultCache(pack_dir)
            for key in keys:
                value = cache.get(key)
                assert value.latency_per_inference_s > 0 and value.energy_per_inference_j > 0
            cache.close()

        pack_get_s = _best_of(repeats, pack_get)

    return {
        "cache_io_entries": entries,
        "cache_put_pack_s": pack_put_s,
        "cache_put_pack_entries_per_s": entries / pack_put_s,
        "cache_get_many_pack_s": pack_get_s,
        "cache_get_many_entries_per_s": entries / pack_get_s,
    }


def bench_sweep_expand(repeats: int) -> dict:
    spec = SweepSpec.from_dict(
        {
            "name": "perf grid",
            "networks": ["LeNet-5", "Cifar-10"],
            "batch_sizes": [4, 16],
            "axes": {
                "array": [[8, 8], [16, 16], [32, 16]],
                "technology": ["45nm", "16nm"],
                "bandwidth": [128, 192, 256],
                "frequency": [250.0, 500.0],
            },
        }
    )
    seconds = _best_of(repeats, spec.expand)
    return {"sweep_expand_points": spec.grid_size(), "sweep_expand_s": seconds}


def bench_pareto(repeats: int) -> dict:
    rng = random.Random(5)
    points = [
        (rng.uniform(0.1, 50.0), rng.uniform(0.01, 5.0), rng.uniform(0.5, 10.0))
        for _ in range(2000)
    ]
    seconds = _best_of(repeats, lambda: pareto_indices(points))
    return {"pareto_points": len(points), "pareto_reduce_s": seconds}


def bench_nas(repeats: int) -> dict:
    """The NAS estimator scenarios: warm pricing, batch dedupe, search rate.

    Warm pricing is the acceptance-criteria number: after one cold pricing,
    re-estimating a mutated ResNet-18 candidate must be pure layer-memo
    lookup + composition — zero fresh simulations (tracked exactly) and
    >= 50x faster than ``BitFusionAccelerator.evaluate``.  The estimator's
    cache has no directory, so it stores no composed results: every warm
    estimate composes from the layer memo rather than reading a whole
    result back.  The dedupe rate is deterministic (seeded mutations), so
    its bound is tight; the candidates/second of a fully-warm search is
    wall-clock and bounded generously.
    """
    config = BitFusionConfig.eyeriss_matched()
    base = models.load("ResNet-18")
    mutant = mutate(base, random.Random(7))

    estimator = Estimator(config)
    estimator.estimate(base)
    estimator.estimate(mutant)
    simulated_before = estimator.stats.layers_simulated
    composed_before = estimator.stats.layers_composed
    evaluate_s, warm_s, speedup = _interleaved(
        max(repeats * 3, 9),
        lambda: BitFusionAccelerator(config).evaluate(mutant, estimator.batch_size),
        lambda: estimator.estimate(mutant),
        inner=5,
    )
    warm_simulated = estimator.stats.layers_simulated - simulated_before
    assert estimator.stats.results_read == 0
    assert estimator.stats.layers_composed > composed_before

    # Unseen-layer batch efficiency: one cold fingerprint-deduped generation
    # (eight seeded mutants + the base).  Most blocks repeat across the
    # near-clones, so they compose or defer instead of simulating.
    batch_estimator = Estimator(config)
    rng = random.Random(11)
    batch_estimator.estimate_many([base] + [mutate(base, rng) for _ in range(8)])
    batch_stats = batch_estimator.stats

    # Candidates/second with everything cached: the same seeded search run
    # twice over one estimator — the second pass re-prices every candidate
    # by composition alone.
    spec = SearchSpec(base_network="CIFAR-10", population=8, generations=3, seed=5)
    search_estimator = Estimator(config)
    run_search(spec, estimator=search_estimator)
    warm_search = run_search(spec, estimator=search_estimator)

    return {
        "nas_warm_estimate_s": warm_s,
        "nas_evaluate_s": evaluate_s,
        "nas_estimator_speedup": speedup,
        "nas_warm_simulated": warm_simulated,
        "nas_batch_layer_lookups": batch_stats.layer_lookups,
        "nas_batch_simulated": batch_stats.layers_simulated,
        "nas_batch_dedupe_rate": batch_stats.hit_rate,
        "nas_warm_candidates_per_s": warm_search.candidates_per_second,
    }


def run_suite(repeats: int) -> dict:
    metrics: dict = {}
    metrics.update(bench_compile(repeats))
    metrics.update(bench_tiling_memo_warm())
    metrics.update(bench_sim(repeats))
    metrics.update(bench_run_many(repeats))
    metrics.update(bench_cache_io(repeats))
    metrics.update(bench_sweep_expand(repeats))
    metrics.update(bench_pareto(repeats))
    metrics.update(bench_nas(repeats))
    return {
        "bench": "repro-perf",
        "trajectory_point": 9,
        "repro_version": __version__,
        "metrics": metrics,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
    }


def check_against_baseline(result: dict, baseline_path: Path) -> list[str]:
    """Violated bounds, one message each (empty when everything passes).

    The baseline's ``checks`` list carries explicit bounds: ``max`` caps a
    lower-is-better metric (wall-clock seconds, with headroom for slower
    machines), ``min`` floors a higher-is-better one (speedups, hit
    rates).  Keeping the bounds in the committed JSON — rather than
    deriving them here from raw baseline numbers — makes every tightening
    or loosening a reviewed diff.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    metrics = result["metrics"]
    failures: list[str] = []
    for check in baseline["checks"]:
        name = check["metric"]
        if name not in metrics:
            failures.append(f"{name}: metric missing from this run")
            continue
        value = metrics[name]
        if "max" in check and value > check["max"]:
            failures.append(f"{name}: {value:.6g} exceeds max {check['max']:.6g}")
        if "min" in check and value < check["min"]:
            failures.append(f"{name}: {value:.6g} below min {check['min']:.6g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the tracked perf micro-benchmarks and emit a JSON "
        "trajectory point (see docs/performance.md)."
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="where to write the trajectory point (default: BENCH_9.json at the "
        "repo root, or no file with --check)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed baseline JSON and exit non-zero "
        "on any violated bound (CI perf-smoke mode)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="best-of-N timing for the micro-benchmarks (default: 3)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")

    output = args.output
    if output is None and not args.check:
        output = str(REPO_ROOT / "BENCH_9.json")

    result = run_suite(args.repeats)
    if output is not None:
        Path(output).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {output}")
    metrics = result["metrics"]
    print(
        f"cold compile: {metrics['cold_compile_total_s'] * 1e3:.1f} ms over "
        f"{len(metrics['cold_compile_per_network_s'])} networks "
        f"({metrics['tiling_searches']} tiling searches)"
    )
    print(
        f"tiling search speedup (vectorized vs scalar): "
        f"{metrics['tiling_search_speedup']:.1f}x"
    )
    print(
        f"compile speedup vs scalar baseline (memoized): "
        f"{metrics['compile_speedup_vs_scalar']:.1f}x"
    )
    print(
        f"warm tiling memo: {metrics['tiling_memo_warm_lookups']} lookups, "
        f"hit rate {metrics['tiling_memo_warm_hit_rate']:.0%}"
    )
    print(
        f"batched sim speedup over {metrics['sim_blocks']} zoo blocks: "
        f"{metrics['sim_batched_speedup']:.1f}x single-config, "
        f"{metrics['sim_grid_speedup']:.1f}x on a "
        f"{metrics['sim_grid_configs']}-config grid"
    )
    print(
        f"run_many: cold {metrics['run_many_cold_s'] * 1e3:.0f} ms, "
        f"warm {metrics['run_many_warm_s'] * 1e3:.1f} ms"
    )
    print(
        f"cache io over {metrics['cache_io_entries']} entries: "
        f"pack persist {metrics['cache_put_pack_entries_per_s']:.0f} entries/s, "
        f"read {metrics['cache_get_many_entries_per_s']:.0f} entries/s"
    )
    print(
        f"nas estimator: warm estimate {metrics['nas_warm_estimate_s'] * 1e6:.0f} us "
        f"vs evaluate {metrics['nas_evaluate_s'] * 1e3:.2f} ms "
        f"({metrics['nas_estimator_speedup']:.0f}x, "
        f"{metrics['nas_warm_simulated']} fresh simulations); "
        f"batch dedupe rate {metrics['nas_batch_dedupe_rate']:.0%}, "
        f"warm search {metrics['nas_warm_candidates_per_s']:.0f} candidates/s"
    )

    if args.check:
        failures = check_against_baseline(result, Path(args.check))
        if failures:
            print(f"perf check FAILED against {args.check}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"perf check passed against {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
