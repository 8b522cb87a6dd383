"""One-shot experiment runner: regenerate every table and figure as a report.

``python -m repro.harness`` runs the whole evaluation (or a chosen subset of
experiments / benchmarks) and writes a markdown report with the reproduced
tables, each annotated with the paper's published numbers where available.
The benchmark suite under ``benchmarks/`` exercises the same runners through
``pytest-benchmark``; this module exists for users who want a single
command-line entry point and a saveable report.

Two further entry points share the same session machinery: ``python -m
repro.harness sweep SPEC`` runs a declarative multi-axis design-space sweep
(:mod:`repro.dse`) from a JSON/YAML spec file and reports its Pareto
frontier, and ``--cache-info`` summarizes a ``--cache-dir``'s contents
(entry counts and bytes per record kind, from the store's segment index)
without running anything.  ``docs/cli.md`` is the full command-line reference.

Every report is backed by one :class:`repro.session.EvaluationSession` — the
shared, cached workload engine under ``src/repro/session/``.  Experiments
declare (platform config, network, batch, compiler-flags) workloads and the
session runs them through a staged compile → simulate-blocks → compose
pipeline with a cacheable artifact at each seam, so a full report simulates
each unique workload exactly once no matter how many figures need it, and
finishes with per-stage cache statistics (workload, program, block and
layer-dedup hit counts).  ``--cache-dir PATH`` persists each workload's
composed result so later invocations read it back instead of compiling
and simulating.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import __version__
from repro.dnn import models
from repro.harness.experiments import (
    ablations,
    dse_explore,
    fig01_bitwidths,
    fig10_fusion_unit,
    fig13_eyeriss,
    fig14_breakdown,
    fig15_bandwidth,
    fig16_batch,
    fig17_gpu,
    fig18_stripes,
    isa_stats,
    tab02_benchmarks,
    tab03_platforms,
    temporal_network,
)
from repro.harness.reporting import format_table
from repro.session import (
    EvaluationSession,
    ResultCache,
    resolve_session,
    use_session,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "run_experiments",
    "build_report",
    "build_nas_report",
    "build_sweep_report",
    "build_sweep_dry_run_report",
    "format_cache_info",
    "main",
    "nas_main",
    "sweep_main",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: an identifier, a description and a renderer."""

    key: str
    description: str
    render: Callable[[tuple[str, ...] | None], str]


def _render_fig01(benchmarks):
    return fig01_bitwidths.format_table(fig01_bitwidths.run(benchmarks=benchmarks))


def _render_tab02(benchmarks):
    return tab02_benchmarks.format_table(tab02_benchmarks.run(benchmarks=benchmarks))


def _render_tab03(benchmarks):
    del benchmarks  # the platform table does not depend on the benchmark subset
    return tab03_platforms.format_table(tab03_platforms.run())


def _render_fig10(benchmarks):
    del benchmarks
    table = fig10_fusion_unit.format_table(fig10_fusion_unit.run())
    advantage = format_table(
        fig10_fusion_unit.run_throughput_advantage(),
        title="Same-area throughput: spatial fusion vs temporal design",
    )
    return f"{table}\n\n{advantage}"


def _render_fig13(benchmarks):
    summary = fig13_eyeriss.run(benchmarks=benchmarks)
    per_layer = format_table(
        fig13_eyeriss.run_alexnet_per_layer(),
        title="AlexNet per-layer improvement over Eyeriss",
    )
    return f"{fig13_eyeriss.format_table(summary)}\n\n{per_layer}"


def _render_fig14(benchmarks):
    return fig14_breakdown.format_table(fig14_breakdown.run(benchmarks=benchmarks))


def _render_fig15(benchmarks):
    return fig15_bandwidth.format_table(fig15_bandwidth.run(benchmarks=benchmarks))


def _render_fig16(benchmarks):
    return fig16_batch.format_table(fig16_batch.run(benchmarks=benchmarks))


def _render_fig17(benchmarks):
    return fig17_gpu.format_table(fig17_gpu.run(benchmarks=benchmarks))


def _render_fig18(benchmarks):
    return fig18_stripes.format_table(fig18_stripes.run(benchmarks=benchmarks))


def _render_isa(benchmarks):
    return isa_stats.format_table(isa_stats.run(benchmarks=benchmarks))


def _render_temporal(benchmarks):
    return temporal_network.format_table(temporal_network.run(benchmarks=benchmarks))


def _render_dse(benchmarks):
    return dse_explore.format_table(dse_explore.run(benchmarks=benchmarks))


def _render_ablations(benchmarks):
    rows = ablations.run(benchmarks=benchmarks)
    summary = ablations.geomean_summary(rows)
    lines = [ablations.format_table(rows), "", "geomean impact:"]
    lines.extend(f"  {key}: {value:.2f}x" for key, value in summary.items())
    return "\n".join(lines)


#: Registry of every experiment the runner knows about, in paper order.
EXPERIMENTS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec("fig01", "Figure 1 - bitwidth variation", _render_fig01),
    ExperimentSpec("tab02", "Table II - benchmark characteristics", _render_tab02),
    ExperimentSpec("tab03", "Table III - evaluated platforms", _render_tab03),
    ExperimentSpec("fig10", "Figure 10 - Fusion Unit vs temporal design", _render_fig10),
    ExperimentSpec("fig13", "Figure 13 - improvement over Eyeriss", _render_fig13),
    ExperimentSpec("fig14", "Figure 14 - energy breakdown", _render_fig14),
    ExperimentSpec("fig15", "Figure 15 - bandwidth sensitivity", _render_fig15),
    ExperimentSpec("fig16", "Figure 16 - batch-size sensitivity", _render_fig16),
    ExperimentSpec("fig17", "Figure 17 - comparison with GPUs", _render_fig17),
    ExperimentSpec("fig18", "Figure 18 - improvement over Stripes", _render_fig18),
    ExperimentSpec(
        "temporal",
        "Section III-C - whole-network temporal design comparison",
        _render_temporal,
    ),
    ExperimentSpec("isa", "Section IV - ISA block statistics", _render_isa),
    ExperimentSpec("ablations", "Ablations of the design mechanisms", _render_ablations),
    ExperimentSpec(
        "dse",
        "Design-space exploration - array x technology Pareto frontier",
        _render_dse,
    ),
)

_EXPERIMENTS_BY_KEY = {spec.key: spec for spec in EXPERIMENTS}


def run_experiments(
    keys: list[str] | None = None,
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> list[tuple[ExperimentSpec, str, float]]:
    """Run the selected experiments; returns (spec, rendered table, seconds) tuples.

    All experiments run against one shared evaluation session (the given
    one, or the process default), so workloads appearing in several figures
    are simulated only once.
    """
    if keys:
        unknown = [key for key in keys if key not in _EXPERIMENTS_BY_KEY]
        if unknown:
            raise KeyError(
                f"unknown experiment(s) {unknown}; available: {sorted(_EXPERIMENTS_BY_KEY)}"
            )
        specs = [_EXPERIMENTS_BY_KEY[key] for key in keys]
    else:
        specs = list(EXPERIMENTS)

    results: list[tuple[ExperimentSpec, str, float]] = []
    with use_session(resolve_session(session)):
        for spec in specs:
            start = time.perf_counter()
            rendered = spec.render(benchmarks)
            results.append((spec, rendered, time.perf_counter() - start))
    return results


def build_report(
    keys: list[str] | None = None,
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
    cache_dir: str | None = None,
    profile: bool = False,
) -> str:
    """Run the selected experiments and assemble a markdown report.

    One :class:`EvaluationSession` backs the whole report (built from
    ``cache_dir`` unless an explicit ``session`` is given); the report ends with the session's per-stage cache statistics.
    ``profile=True`` (the ``--profile`` flag) appends a per-stage
    wall-time table (:func:`_profile_table`).
    """
    owns_session = session is None
    if session is None:
        session = EvaluationSession(cache_dir=cache_dir)
    sections = [
        "# Bit Fusion reproduction — experiment report",
        "",
        f"_repro {__version__}_",
        "",
    ]
    try:
        for spec, rendered, elapsed in run_experiments(keys, benchmarks, session=session):
            sections.append(f"## {spec.description}")
            sections.append("")
            sections.append("```")
            sections.append(rendered)
            sections.append("```")
            sections.append(f"_(generated in {elapsed:.2f} s)_")
            sections.append("")
    finally:
        if owns_session:
            session.close()
    sections.append("## Evaluation session statistics")
    sections.append("")
    sections.append("```")
    sections.extend(_session_footer(session))
    sections.append("```")
    sections.append("")
    if profile:
        sections.append("## Stage timing profile")
        sections.append("")
        sections.append("```")
        sections.append(_profile_table(session))
        sections.append("```")
        sections.append("")
    return "\n".join(sections)


def _session_footer(session: EvaluationSession) -> list[str]:
    """The per-stage cache statistics footer shared by reports and sweeps.

    CI greps these lines to assert that a warm re-run reads every workload
    from disk with no fresh execution, so the report and the ``sweep``
    subcommand must emit the same format.
    """
    lines = [session.stats.summary()]
    # Wall-clock cost of the compile stage (fresh compilations only —
    # cache hits cost nothing).  The perf suite tracks the same number as
    # a trajectory; the footer makes compile-cost regressions visible on
    # every ordinary report run.
    lines.append(f"compile time: {session.stats.compile_seconds:.3f} s")
    # Same idea for the simulate stage (fresh block/workload simulations).
    lines.append(f"sim time: {session.stats.sim_seconds:.3f} s")
    if session.cache.cache_dir is not None:
        lines.append(f"persistent cache: {session.cache.cache_dir}")
    return lines


def _profile_table(session: EvaluationSession) -> str:
    """The ``--profile`` per-stage wall-time table.

    Covers the tracked pipeline stages — compile (fresh compilations),
    simulate (fresh block/workload simulations) and compose (result
    assembly + fresh-artifact stores).  The total is the tracked-stage
    sum, not the report's end-to-end wall clock — rendering and table
    formatting are deliberately excluded so the table answers "where does
    the *pipeline* spend its time", which is what future hot-path hunts
    need.  cache-IO (on-disk result reads and writes) is reported
    separately below the total: it happens outside the stage rows, in the
    session's result lookups and its record appends.
    """
    stats = session.stats
    rows = [
        ("compile", stats.compile_seconds),
        ("simulate", stats.sim_seconds),
        ("compose", stats.compose_seconds),
    ]
    total = sum(seconds for _, seconds in rows)
    lines = ["stage     seconds   share"]
    for name, seconds in rows:
        share = seconds / total if total else 0.0
        lines.append(f"{name:<8}  {seconds:7.3f}  {share:6.1%}")
    lines.append(f"{'total':<8}  {total:7.3f}")
    lines.append(
        f"{'cache-IO':<8}  {session.cache.io_seconds:7.3f}  (outside the stages above)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Design-space sweeps (``python -m repro.harness sweep SPEC``)
# ---------------------------------------------------------------------- #
def build_sweep_report(
    spec_path: str,
    cache_dir: str | None = None,
    session: EvaluationSession | None = None,
) -> str:
    """Run one spec-file sweep and render its report (grid + Pareto + stats).

    A failing workload stops the sweep with a
    :class:`~repro.session.engine.WorkloadExecutionError` naming it; points
    committed before it stay in the ``--cache-dir``.
    """
    # Imported here so `python -m repro.harness --list` stays import-light.
    from repro.dse import SweepSpec, format_sweep_report, run_sweep

    spec = SweepSpec.from_file(spec_path)
    owns_session = session is None
    if session is None:
        session = EvaluationSession(cache_dir=cache_dir)
    try:
        result = run_sweep(spec, session)
    finally:
        if owns_session:
            session.close()
    footer = _session_footer(session)
    sections = [
        "# Bit Fusion design-space sweep",
        "",
        f"_repro {__version__} — spec: {spec_path}_",
        "",
        "```",
        format_sweep_report(result),
        "```",
        "",
        "## Evaluation session statistics",
        "",
        "```",
        *footer,
        "```",
        "",
    ]
    return "\n".join(sections)


def build_sweep_dry_run_report(spec_path: str, cache_dir: str | None = None) -> str:
    """Expand a sweep spec and diff the planned grid against a cache directory.

    Nothing compiles or simulates: each expanded workload is either
    cached (its composed result is stored in ``--cache-dir``) or cold, and
    the report counts both, plus the directory's per-kind entry summary.
    Run this before committing to an expensive sweep to see what it will
    actually cost.
    """
    from repro.dse import SweepSpec

    spec = SweepSpec.from_file(spec_path)
    points = spec.expand()
    if cache_dir is not None and not Path(cache_dir).is_dir():
        raise ValueError(f"cache directory {cache_dir!r} does not exist")
    cache = ResultCache(cache_dir) if cache_dir is not None else ResultCache()

    keys = [point.workload.fingerprint() for point in points]
    cached = {key: key in cache for key in dict.fromkeys(keys)}
    cached_unique = sum(cached.values())
    cached_points = sum(cached[key] for key in keys)
    fraction = cached_points / len(points) if points else 0.0
    lines = [
        "# Bit Fusion design-space sweep — dry run",
        "",
        f"_repro {__version__} — spec: {spec_path}_",
        "",
        "```",
        spec.describe(),
        f"grid: {len(points)} points, {len(cached)} unique workloads",
        f"cached: {cached_unique} workloads (result stored, no fresh work)",
        f"cold: {len(cached) - cached_unique} workloads (compile and simulate)",
        f"planned grid already cached: {cached_points}/{len(points)} points ({fraction:.0%})",
        "```",
        "",
    ]
    if cache_dir is not None:
        lines.extend(["## Cache directory", "", "```", format_cache_info(cache_dir), "```", ""])
    else:
        lines.append("(no --cache-dir given: every workload counts as cold)")
        lines.append("")
    return "\n".join(lines)


def sweep_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``sweep`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness sweep",
        description="Run a declarative multi-axis design-space sweep from a "
        "JSON (or YAML) spec file and report its Pareto frontier. "
        "See docs/sweeps.md for the spec schema.",
    )
    parser.add_argument("spec", metavar="SPEC", help="path to the sweep spec (.json/.yaml)")
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the sweep report to a file instead of stdout",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="persist each grid point's composed result under PATH and "
        "reuse it across invocations",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="expand the grid and report how much of it the --cache-dir "
        "already holds (cached vs cold) without running any compilation "
        "or simulation",
    )
    args = parser.parse_args(argv)
    try:
        if args.dry_run:
            report = build_sweep_dry_run_report(args.spec, cache_dir=args.cache_dir)
        else:
            report = build_sweep_report(args.spec, cache_dir=args.cache_dir)
    except (OSError, RuntimeError, ValueError) as error:
        parser.error(str(error))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote sweep report to {args.output}")
    else:
        print(report)
    return 0


# ---------------------------------------------------------------------- #
# NAS candidate search (``python -m repro.harness nas SPEC``)
# ---------------------------------------------------------------------- #
def build_nas_report(spec_path: str, cache_dir: str | None = None) -> str:
    """Run one spec-file NAS search and render its report.

    The search prices candidates through the cache-composition estimator
    (:mod:`repro.nas`); ``--cache-dir`` persists each priced candidate's
    composed result, so a second search reads back every candidate the
    first one priced.  The footer reports the estimator's hit rate, stored
    results read, layers simulated vs composed, and candidates per second.
    """
    # Imported here so `python -m repro.harness --list` stays import-light.
    from repro.nas import Estimator, SearchSpec, format_search_report, run_search

    spec = SearchSpec.from_file(spec_path)
    cache = ResultCache(cache_dir)
    estimator = Estimator(cache=cache, batch_size=spec.batch_size)
    result = run_search(spec, estimator=estimator)
    stats = estimator.stats
    footer = [
        stats.summary(),
        f"candidates/second: {result.candidates_per_second:.1f}",
        f"estimate time: {stats.estimate_seconds:.3f} s "
        f"(sim {stats.sim_seconds:.3f} s)",
    ]
    if cache.cache_dir is not None:
        footer.append(f"persistent cache: {cache.cache_dir}")
    sections = [
        "# Bit Fusion NAS candidate search",
        "",
        f"_repro {__version__} — spec: {spec_path}_",
        "",
        "```",
        format_search_report(result),
        "```",
        "",
        "## Estimator statistics",
        "",
        "```",
        *footer,
        "```",
        "",
    ]
    return "\n".join(sections)


def nas_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``nas`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness nas",
        description="Run a NAS-style candidate search from a JSON spec file: "
        "random + evolutionary mutation over a zoo network, priced through "
        "the cache-composition surrogate estimator. See docs/nas.md for "
        "the spec schema.",
    )
    parser.add_argument("spec", metavar="SPEC", help="path to the nas spec (.json)")
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the search report to a file instead of stdout",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="persist each priced candidate's composed result under PATH; "
        "searches sharing the directory start warm",
    )
    args = parser.parse_args(argv)
    try:
        report = build_nas_report(args.spec, cache_dir=args.cache_dir)
    except (KeyError, OSError, RuntimeError, ValueError) as error:
        parser.error(str(error))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote nas report to {args.output}")
    else:
        print(report)
    return 0


# ---------------------------------------------------------------------- #
# Cache introspection (``--cache-info``)
# ---------------------------------------------------------------------- #
def format_cache_info(cache_dir: str) -> str:
    """Summarize a cache directory: entries and bytes per record kind.

    The numbers are added up from the store's segment index (kind and
    record-body length per key), so no record is read.  A path that is not an existing
    directory is an error: introspection must never create the directory a
    mistyped ``--cache-dir`` points at.
    """
    if not Path(cache_dir).is_dir():
        raise ValueError(f"cache directory {cache_dir!r} does not exist")
    cache = ResultCache(cache_dir)
    summary = cache.entry_summary()
    lines = [
        f"cache directory: {cache.cache_dir}",
        f"format: {cache.describe_layout()}",
    ]
    if not summary:
        lines.append("(empty)")
        return "\n".join(lines)
    for kind in sorted(summary):
        bucket = summary[kind]
        lines.append(f"{kind}: {bucket['entries']} entries, {bucket['bytes'] / 1024:.1f} KiB")
    total_entries = sum(bucket["entries"] for bucket in summary.values())
    total_bytes = sum(bucket["bytes"] for bucket in summary.values())
    lines.append(f"total: {total_entries} entries, {total_bytes / 1024:.1f} KiB")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point (``python -m repro.harness``)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "nas":
        return nas_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the Bit Fusion paper's tables and figures. "
        "Design-space sweeps run via the 'sweep' subcommand "
        "(python -m repro.harness sweep SPEC [options]) and NAS candidate "
        "searches via the 'nas' subcommand "
        "(python -m repro.harness nas SPEC [options]); "
        "full reference: docs/cli.md.",
    )
    parser.add_argument(
        "--experiments",
        nargs="*",
        metavar="KEY",
        help=f"subset of experiments to run (default: all of {[s.key for s in EXPERIMENTS]})",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        metavar="NAME",
        help="subset of benchmark DNNs to evaluate (default: all eight)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the markdown report to a file instead of stdout",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="persist each workload's composed result under PATH and reuse "
        "it across report invocations",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="append a per-stage (compile / simulate / compose / cache-IO) "
        "wall-time table to the report",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiments and exit",
    )
    parser.add_argument(
        "--cache-info",
        action="store_true",
        help="summarize the --cache-dir contents (entries and bytes per "
        "record kind, from the store index) and exit without running anything",
    )
    args = parser.parse_args(argv)

    if args.list:
        for spec in EXPERIMENTS:
            print(f"{spec.key:10s} {spec.description}")
        return 0

    if args.cache_info:
        if args.cache_dir is None:
            parser.error("--cache-info requires --cache-dir")
        try:
            print(format_cache_info(args.cache_dir))
        except ValueError as error:
            parser.error(str(error))
        return 0

    unknown = [key for key in args.experiments or () if key not in _EXPERIMENTS_BY_KEY]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; available: {sorted(_EXPERIMENTS_BY_KEY)}"
        )
    benchmarks = None
    if args.benchmarks:
        try:
            # Accept the same aliases as the model zoo ("alexnet", "cifar10")
            # and hand every experiment the canonical paper names.
            benchmarks = tuple(models.canonical_name(name) for name in args.benchmarks)
        except KeyError as error:
            parser.error(str(error).strip('"'))
    report = build_report(
        keys=args.experiments,
        benchmarks=benchmarks,
        cache_dir=args.cache_dir,
        profile=args.profile,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote report to {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
