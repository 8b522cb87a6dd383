"""The per-layer breakdown: which functions the traced run times, and why.

``SPANS`` maps each span metric (``<layer>.<part>``) to the public
functions it times, named ``module:qualname``.  A name that no longer
resolves is reported under ``missing`` instead of failing the run, so the
table survives functions being deleted or renamed.  Time is *self* time:
a span's duration minus the spans nested in it, so nothing is counted
twice, and the layers' self times add up to the traced wall time.

``METRICS`` derives every reported per-layer metric from those spans, from
counters read off the program's own statistics objects, or from the run.
``LAYERS`` records, per layer, which end-to-end metric its numbers should
move and on which workloads it does most of its work or none of it; later
changes cite these names.
"""

from __future__ import annotations

__all__ = ["SPANS", "ITEMS", "CAPTURE", "METRICS", "LAYERS", "COUNTERS"]

_EXPERIMENTS = "repro.harness.experiments"

SPANS: dict[str, tuple[str, ...]] = {
    "harness.format": ("repro.harness.reporting:format_table",),
    "harness.self": (
        "repro.harness.runner:main",
        "repro.harness.runner:build_report",
        "repro.harness.runner:run_experiments",
        "repro.harness.runner:build_sweep_report",
        "repro.harness.runner:build_nas_report",
        *(
            f"{_EXPERIMENTS}.{module}:run"
            for module in (
                "fig01_bitwidths", "tab02_benchmarks", "tab03_platforms",
                "fig10_fusion_unit", "fig13_eyeriss", "fig14_breakdown",
                "fig15_bandwidth", "fig16_batch", "fig17_gpu", "fig18_stripes",
                "temporal_network", "isa_stats", "ablations", "dse_explore",
            )
        ),
        f"{_EXPERIMENTS}.fig13_eyeriss:run_alexnet_per_layer",
    ),
    "dse.expand": ("repro.dse.spec:SweepSpec.expand",),
    "dse.pareto": ("repro.dse.pareto:pareto_indices", "repro.dse.pareto:ParetoArchive.extend"),
    "dse.report": ("repro.dse.report:format_sweep_report",),
    "dse.self": (
        "repro.dse.runner:run_sweep",
        "repro.dse.spec:SweepSpec.from_file",
        "repro.dse.runner:DesignSpaceResult.pareto",
    ),
    "nas.estimate": ("repro.nas.estimator:Estimator.estimate_many",),
    "nas.mutate": ("repro.nas.mutations:mutate",),
    "nas.self": (
        "repro.nas.search:run_search",
        "repro.nas.search:SearchSpec.from_file",
        "repro.nas.search:format_search_report",
    ),
    "session.run_many": ("repro.session.session:EvaluationSession.run_many",),
    "session.plan": ("repro.session.engine:plan_workload",),
    "session.compose": (
        "repro.session.engine:compose_plan",
        "repro.session.engine:try_compose_from_cache",
    ),
    "session.key": (
        "repro.session.workload:Workload.fingerprint",
        "repro.session.engine:program_cache_key",
        "repro.session.engine:block_cache_key",
        "repro.session.engine:layer_cache_key",
        "repro.session.engine:tiling_cache_key",
    ),
    "session.self": (
        "repro.session.session:EvaluationSession.run",
        "repro.session.session:EvaluationSession.sweep",
        "repro.session.session:EvaluationSession.close",
        "repro.session.backends:InlineBackend.execute",
        "repro.session.engine:execute_workload",
        "repro.session.engine:execute_workload_cached",
        "repro.session.engine:obtain_program",
        "repro.session.engine:compile_program",
        "repro.session.engine:lookup_block",
        "repro.session.engine:prefetch_block_artifacts",
        "repro.session.engine:store_layer_record",
        "repro.session.engine:simulate_planned_blocks",
    ),
    "cache.open": ("repro.session.cache:ResultCache.__init__",),
    "cache.get": (
        "repro.session.cache:ResultCache.get",
        "repro.session.cache:ResultCache.get_many",
        "repro.session.cache:ResultCache.get_with_source",
        "repro.session.cache:ResultCache.prefetch",
    ),
    "cache.put": ("repro.session.cache:ResultCache.put",),
    "cache.commit": (
        "repro.session.cache:ResultCache.flush",
        "repro.session.cache:ResultCache.close",
        # The body of ``ResultCache.batch``'s exit: the group commit.
        "repro.session.cache:ResultCache._drain_batch",
    ),
    "isa.compile": ("repro.isa.compiler:FusionCompiler.compile",),
    "isa.tiling_search": ("repro.isa.tiling:search_tiling",),
    "sim.busy": (
        "repro.sim.batched:simulate_blocks_batched",
        "repro.sim.batched:simulate_blocks_grid",
        "repro.sim.executor:BitFusionSimulator.run_block",
    ),
    "baselines.evaluate": (
        "repro.baselines.eyeriss:EyerissModel.evaluate",
        "repro.baselines.stripes:StripesModel.evaluate",
        "repro.baselines.gpu:GpuModel.evaluate",
        "repro.baselines.temporal:TemporalAcceleratorModel.evaluate",
    ),
}

#: Work items a call carries, from its positional arguments: the blocks a
#: simulation entry point simulates (rows x blocks for the grid).  Counted
#: on the outermost span of a metric only, like calls.
ITEMS = {
    "repro.sim.batched:simulate_blocks_batched": lambda args: len(args[1]),
    "repro.sim.batched:simulate_blocks_grid": lambda args: len(args[0]) * len(args[1]),
    "repro.sim.executor:BitFusionSimulator.run_block": lambda args: 1,
}

#: Classes whose instances the traced run keeps, to read their statistics
#: when the command ends.
CAPTURE = {
    "session": "repro.session.session:EvaluationSession",
    "estimator": "repro.nas.estimator:Estimator",
}

#: Counters read off the captured objects: name -> (capture, attribute
#: path of the numerator terms, attribute path of the denominator terms).
#: An empty denominator makes the counter a plain sum.
COUNTERS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "session.workload_hit_rate": ("session", ("stats.hits",), ("stats.hits", "stats.misses")),
    "session.program_hit_rate": (
        "session", ("stats.programs.hits",), ("stats.programs.hits", "stats.programs.misses"),
    ),
    "session.block_hit_rate": (
        "session", ("stats.blocks.hits",), ("stats.blocks.hits", "stats.blocks.misses"),
    ),
    "session.tiling_hit_rate": (
        "session", ("stats.tilings.hits",), ("stats.tilings.hits", "stats.tilings.misses"),
    ),
    "nas.layers_simulated": ("estimator", ("stats.layers_simulated",), ()),
    "nas.layer_hit_rate": (
        "estimator",
        ("stats.layers_composed", "stats.deduped"),
        ("stats.layers_composed", "stats.deduped", "stats.layers_simulated"),
    ),
}

#: Every per-layer metric: name -> (unit, better, how it is derived).
#: Derivations: ("self", span) self seconds; ("calls", span) outermost
#: calls; ("items", span) items of outermost calls; ("per_s", span) items
#: per self second; ("counter", name) a COUNTERS entry; ("run", name) a
#: value the benchmark measures around the traced run.
METRICS: dict[str, tuple[str, str, tuple[str, str]]] = {
    "import.harness_s": ("s", "lower", ("self", "import.harness")),
    "import.lazy_s": ("s", "lower", ("self", "import.lazy")),
    "harness.format_calls": ("count", "lower", ("calls", "harness.format")),
    "harness.format_s": ("s", "lower", ("self", "harness.format")),
    "harness.self_s": ("s", "lower", ("self", "harness.self")),
    "dse.expand_s": ("s", "lower", ("self", "dse.expand")),
    "dse.pareto_s": ("s", "lower", ("self", "dse.pareto")),
    "dse.report_s": ("s", "lower", ("self", "dse.report")),
    "dse.self_s": ("s", "lower", ("self", "dse.self")),
    "nas.estimate_calls": ("count", "lower", ("calls", "nas.estimate")),
    "nas.estimate_s": ("s", "lower", ("self", "nas.estimate")),
    "nas.mutate_s": ("s", "lower", ("self", "nas.mutate")),
    "nas.self_s": ("s", "lower", ("self", "nas.self")),
    "nas.layers_simulated": ("count", "lower", ("counter", "nas.layers_simulated")),
    "nas.layer_hit_rate": ("ratio", "higher", ("counter", "nas.layer_hit_rate")),
    "session.run_many_calls": ("count", "lower", ("calls", "session.run_many")),
    "session.run_many_s": ("s", "lower", ("self", "session.run_many")),
    "session.plan_s": ("s", "lower", ("self", "session.plan")),
    "session.compose_s": ("s", "lower", ("self", "session.compose")),
    "session.key_calls": ("count", "lower", ("calls", "session.key")),
    "session.key_s": ("s", "lower", ("self", "session.key")),
    "session.self_s": ("s", "lower", ("self", "session.self")),
    "session.workload_hit_rate": ("ratio", "higher", ("counter", "session.workload_hit_rate")),
    "session.program_hit_rate": ("ratio", "higher", ("counter", "session.program_hit_rate")),
    "session.block_hit_rate": ("ratio", "higher", ("counter", "session.block_hit_rate")),
    "session.tiling_hit_rate": ("ratio", "higher", ("counter", "session.tiling_hit_rate")),
    "cache.open_s": ("s", "lower", ("self", "cache.open")),
    "cache.get_calls": ("count", "lower", ("calls", "cache.get")),
    "cache.get_s": ("s", "lower", ("self", "cache.get")),
    "cache.put_calls": ("count", "lower", ("calls", "cache.put")),
    "cache.put_s": ("s", "lower", ("self", "cache.put")),
    "cache.commit_s": ("s", "lower", ("self", "cache.commit")),
    "cache.dir_bytes": ("bytes", "lower", ("run", "cache.dir_bytes")),
    "isa.compile_calls": ("count", "lower", ("calls", "isa.compile")),
    "isa.compile_s": ("s", "lower", ("self", "isa.compile")),
    "isa.tiling_searches": ("count", "lower", ("calls", "isa.tiling_search")),
    "isa.tiling_search_s": ("s", "lower", ("self", "isa.tiling_search")),
    "sim.blocks": ("count", "lower", ("items", "sim.busy")),
    "sim.busy_s": ("s", "lower", ("self", "sim.busy")),
    "sim.blocks_per_s": ("1/s", "higher", ("per_s", "sim.busy")),
    "baselines.evaluate_calls": ("count", "lower", ("calls", "baselines.evaluate")),
    "baselines.evaluate_s": ("s", "lower", ("self", "baselines.evaluate")),
    "trace.coverage": ("ratio", "higher", ("run", "trace.coverage")),
    "trace.overhead_s": ("s", "lower", ("run", "trace.overhead_s")),
}

#: layer -> (end-to-end metrics it should move, workloads where it does
#: most of its work, workloads where it should read flat).
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "import": (("setup_s", "wall_s"), ("all",), ()),
    "harness": (("wall_s",), ("report_cold",), ("sweep_cold", "sweep_warm", "nas_search")),
    "dse": (("items_per_s",), ("sweep_cold", "sweep_warm"), ("report_cold",)),
    "nas": (("items_per_s",), ("nas_search",), ("report_cold", "sweep_cold", "sweep_warm")),
    "session": (("wall_s", "items_per_s"), ("sweep_cold", "sweep_warm"), ("nas_search",)),
    "cache": (
        ("wall_s",),
        ("sweep_warm (reads)", "sweep_cold (writes)"),
        ("report_cold", "nas_search"),
    ),
    "isa": (("wall_s",), ("report_cold", "sweep_cold"), ("sweep_warm",)),
    "sim": (("wall_s",), ("report_cold", "sweep_cold"), ("sweep_warm",)),
    "baselines": (("wall_s",), ("report_cold",), ("sweep_cold", "sweep_warm", "nas_search")),
    "trace": ((), ("all",), ()),
}
