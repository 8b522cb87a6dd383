"""End-to-end benchmark of the ``python -m repro.harness`` commands.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Each workload is one real command, run again and again in a fresh child
process, one at a time, for ``--seconds`` seconds (at least
``MIN_REPEATS`` times).  The inputs come from ``--seed`` (see
``e2e_inputs.py``); every output is checked (``e2e_check.py``).

``--trace 0`` reports the end-to-end metrics.  On a shared machine the
host's speed drifts by tens of percent within seconds, so the start-up
probe (``import repro.harness.runner`` in a fresh interpreter) and the
command alternate with a fixed reference program (``REFERENCE``, part of
the benchmark, not of the program): reference, probe, reference, command,
reference, probe, and so on.  Each time is reported at reference speed:
the median over repeats of its ratio to the geometric mean of the
reference times just before and after it, times ``REFERENCE_NOMINAL_S``.
It reads as the seconds the step takes on a host where the reference
takes that long (an idle 2-core x86 host, Python 3.11); the plain
medians are printed as comments.

- ``wall_s``: process spawn to exit of the command;
- ``setup_s``: process spawn until ``repro.harness.runner`` is imported;
- ``items_per_s``: items / (``wall_s`` - ``setup_s``); items are the
  experiments a report renders, the grid points of a sweep or the
  candidates a search prices;
- ``peak_rss_mb``: median peak resident memory of the command;
- ``paper_log_error``: geomean ``|ln(measured/paper)|`` of the Fig 13, 17
  and 18 rows (``e2e_fidelity.py``), computed once per run, untimed.

The error rate is ``failed / attempted`` of the result line: an item fails
with its whole repeat when the command exits non-zero, an output check
fails, or the output differs from the run's first repeat once timing
lines are stripped.  ``sweep_warm`` must also print the grid and frontier
of the untimed ``sweep_cold`` run that filled its cache.

``--trace 1`` alternates plain repeats with traced ones
(``e2e_trace.py``) and reports the per-layer metrics of ``e2e_layers.py``:
the median over traced repeats, plus ``trace.coverage`` and
``trace.overhead_s``.  The last trace is kept as Chrome trace-event JSON
in ``.e2ebench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output was correct, 1 when a check failed, and 2 (with no
result line) when the checkout holds no ``src/repro`` to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e_check  # noqa: E402
import e2e_inputs  # noqa: E402
from e2e_layers import LAYERS, METRICS, SPANS  # noqa: E402
from e2e_trace import read_trace, span_totals, top_level_ns  # noqa: E402

#: Fewest repeats of a command per run, however short ``--seconds`` is
#: (traced runs: fewest traced repeats, each next to a plain one).
MIN_REPEATS = 5
MIN_TRACED = 3
#: CPU seconds after which a child is killed (a hung command fails its repeat).
CHILD_CPU_LIMIT_S = 150
#: The end-to-end metrics and their units, in report order.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "paper_log_error": "ratio",
}
SETUP_PROBE = ["-c", "import repro.harness.runner"]
#: The fixed program every repeat is paired with: interpreter start, the
#: numpy import and pure-Python dict, JSON and sort work, like the commands.
REFERENCE = [
    "-c",
    "import json\n"
    "import numpy\n"
    "d = {str(i): [i, i * 2.5, {'k': i}] for i in range(20000)}\n"
    "json.loads(json.dumps(d))\n"
    "sorted(d.items(), key=lambda kv: -kv[1][1])\n",
]
#: Seconds the reference takes on the reference host; times are scaled to it.
REFERENCE_NOMINAL_S = 0.25


@dataclass
class Finished:
    """How one child process ended."""

    wall_s: float
    code: int
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Checked repeats: items attempted and failed, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def add(self, items: int, problems: list[str]) -> None:
        self.attempted += items
        if problems:
            self.failed += items
            self.problems.extend(problems)


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def spawn(args: list[str], cwd: Path, env: dict[str, str]) -> Finished:
    """Run ``python args`` to completion; time it from spawn to exit."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, preexec_fn=_limit_cpu,
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        wall_s=wall,
        code=child.returncode,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Workload:
    """One workload's inputs, work directory and output check."""

    def __init__(self, name: str, seed: int, root: Path, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.invocation = e2e_inputs.invocation(name, seed, work)
        self.env = {
            key: value for key, value in os.environ.items() if not key.startswith("PYTHON")
        }
        # One interpreter thread per command: no BLAS thread pools either.
        self.env.update(
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
        )
        self.grid_digest = ""

    def reset_cache(self) -> None:
        cache = self.invocation.cache_dir
        if cache is not None:
            shutil.rmtree(self.work / cache, ignore_errors=True)

    def prepare(self) -> None:
        """Untimed: compile bytecode, fill a warm cache, note the grid digest."""
        self.reset_cache()
        checked = self.check(self.command())
        if checked.problems:
            raise RuntimeError(f"untimed first run failed: {checked.problems}")
        self.grid_digest = checked.grid_digest

    def python(self, args: list[str]) -> Finished:
        return spawn(args, self.work, self.env)

    def probe(self, args: list[str]) -> float:
        """Wall seconds of a helper program that must succeed."""
        done = self.python(args)
        if done.code != 0:
            raise RuntimeError(f"{args[:2]} failed: {done.stderr.strip()[-500:]}")
        return done.wall_s

    def command(self, trace: Path | None = None) -> Finished:
        """One repeat of the workload's command, traced into ``trace`` if given."""
        if self.invocation.fresh_cache:
            self.reset_cache()
        if trace is None:
            prefix = ["-m", "repro.harness"]
        else:
            trace.unlink(missing_ok=True)
            prefix = [str(HERE / "e2e_trace.py"), str(trace), "--"]
        return self.python(prefix + self.invocation.argv)

    def check(self, done: Finished) -> e2e_check.Checked:
        """Check one repeat's output (a non-zero exit fails every item)."""
        expected = self.invocation.expected_items
        if self.name == "report_cold":
            checked = e2e_check.check_report(done.stdout, expected)
        elif self.name == "nas_search":
            checked = e2e_check.check_nas(
                done.stdout, e2e_inputs.NAS_POPULATION, e2e_inputs.NAS_GENERATIONS
            )
        else:
            checked = e2e_check.check_sweep(done.stdout, expected)
            if self.grid_digest and checked.grid_digest != self.grid_digest:
                checked.problems.append("grid and frontier differ from the sweep_cold run")
        if done.code != 0:
            tail = done.stderr.strip().splitlines()[-1:] or [""]
            checked.problems.insert(0, f"exit code {done.code}: {tail[0]}")
        return checked

    def tally(self, tally: Tally, done: Finished) -> e2e_check.Checked:
        """Check one repeat and count its items as attempted (and failed)."""
        checked = self.check(done)
        problems = list(checked.problems)
        digest = e2e_check.digest(done.stdout)
        if not tally.digest:
            tally.digest = digest
        elif digest != tally.digest and not problems:
            problems.append("output differs from the run's first repeat")
        tally.add(self.invocation.expected_items or max(checked.items, 1), problems)
        return checked


def paper_log_error(workload: Workload) -> float:
    done = workload.python([str(HERE / "e2e_fidelity.py")])
    if done.code != 0:
        raise RuntimeError(f"e2e_fidelity.py failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def measure_end_to_end(workload: Workload, seconds: float, tally: Tally) -> dict[str, float]:
    fidelity = paper_log_error(workload)
    references: list[float] = []
    walls: list[float] = []
    setups: list[float] = []
    rss: list[float] = []
    items: list[int] = []
    deadline = time.perf_counter() + seconds
    references.append(workload.probe(REFERENCE))
    while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
        setups.append(workload.probe(SETUP_PROBE))
        references.append(workload.probe(REFERENCE))
        done = workload.command()
        references.append(workload.probe(REFERENCE))
        checked = workload.tally(tally, done)
        walls.append(done.wall_s)
        rss.append(done.peak_rss_mb)
        items.append(checked.items)
    print(
        f"# {len(walls)} repeats, plain medians: wall {statistics.median(walls):.4f} s, "
        f"setup {statistics.median(setups):.4f} s, reference {statistics.median(references):.4f} s"
    )
    wall = at_reference_speed(walls, references[1::2], references[2::2])
    setup = at_reference_speed(setups, references[0::2], references[1::2])
    return {
        "wall_s": wall,
        "setup_s": setup,
        "items_per_s": statistics.median(items) / max(wall - setup, 1e-9),
        "peak_rss_mb": statistics.median(rss),
        "paper_log_error": fidelity,
    }


def at_reference_speed(times: list[float], before: list[float], after: list[float]) -> float:
    """Median ratio of each time to the references run just before and after it.

    The divisor is the geometric mean of the two reference times; the
    result is in nominal seconds.
    """
    ratios = [t / math.sqrt(b * a) for t, b, a in zip(times, before, after)]
    return statistics.median(ratios) * REFERENCE_NOMINAL_S


def _dir_bytes(path: Path | None) -> int:
    if path is None or not path.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def layer_values(document: dict) -> dict[str, float]:
    """Every span- and counter-derived per-layer metric of one trace."""
    spans = read_trace(document)
    totals = span_totals(spans)
    counters = document["otherData"]["counters"]
    values: dict[str, float] = {}
    for name, (_, _, (kind, source)) in METRICS.items():
        total = totals.get(source, {"self_s": 0.0, "calls": 0, "items": 0})
        if kind == "self":
            values[name] = total["self_s"]
        elif kind == "calls":
            values[name] = total["calls"]
        elif kind == "items":
            values[name] = total["items"]
        elif kind == "per_s":
            values[name] = total["items"] / total["self_s"] if total["self_s"] else 0.0
        elif kind == "counter" and source in counters:
            values[name] = counters[source]
    values["trace.coverage"] = top_level_ns(spans) / document["otherData"]["wall_ns"]
    return values


def missing_metrics(document: dict) -> dict[str, str]:
    """Metrics all of whose sources failed to resolve, with the reasons."""
    missing = document["otherData"]["missing"]
    out: dict[str, str] = {}
    for name, (_, _, (kind, source)) in METRICS.items():
        if kind == "counter" and f"counter:{source}" in missing:
            out[name] = missing[f"counter:{source}"]
        elif kind in ("self", "calls", "items", "per_s") and source in SPANS:
            targets = SPANS[source]
            if all(target in missing for target in targets):
                out[name] = "; ".join(missing[target] for target in targets)
    return out


def measure_per_layer(workload: Workload, seconds: float, tally: Tally) -> dict[str, float]:
    trace_path = workload.work / "trace.json"
    plain: list[float] = []
    traced: list[float] = []
    samples: list[dict[str, float]] = []
    document: dict = {}
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        done = workload.command()
        workload.tally(tally, done)
        plain.append(done.wall_s)
        done = workload.command(trace=trace_path)
        workload.tally(tally, done)
        traced.append(done.wall_s)
        document = json.loads(trace_path.read_text(encoding="utf-8"))
        values = layer_values(document)
        cache = workload.invocation.cache_dir
        values["cache.dir_bytes"] = _dir_bytes(workload.work / cache if cache else None)
        samples.append(values)
    metrics = {
        name: statistics.median(sample.get(name, 0.0) for sample in samples)
        for name in METRICS
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = min(traced) - min(plain)
    kept = workload.work.parent / f"trace-{workload.name}-seed{workload.seed}.json"
    shutil.copyfile(trace_path, kept)
    print_layers(metrics, missing_metrics(document), document["otherData"]["unused"], kept)
    return metrics


def print_layers(
    metrics: dict[str, float], missing: dict[str, str], unused: list[str], trace: Path
) -> None:
    for layer, (moves, mainly, flat) in LAYERS.items():
        print(
            f"# [{layer}] moves {', '.join(moves) or 'nothing'}; "
            f"mainly on {', '.join(mainly)}; flat on {', '.join(flat) or '-'}"
        )
        for name, (unit, _, _) in METRICS.items():
            if name.startswith(f"{layer}."):
                print(f"#   {name:28s} {metrics[name]:14.6g} {unit}")
    for name, reason in missing.items():
        print(f"# missing {name}: {reason}")
    if unused:
        print(f"# not run by this workload: {', '.join(unused)}")
    print(f"# trace: {trace}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=e2e_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "harness" / "__main__.py").is_file():
        print(f"error: no src/repro/harness under {root}; run from a checkout", file=sys.stderr)
        return 2
    work = root / ".e2ebench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        workload = Workload(args.workload, args.seed, root, work)
        workload.prepare()
        if args.trace:
            metrics = measure_per_layer(workload, args.seconds, tally)
            units = {name: unit for name, (unit, _, _) in METRICS.items()}
        else:
            metrics = measure_end_to_end(workload, args.seconds, tally)
            units = END_TO_END
            for name, unit in END_TO_END.items():
                print(f"# {name:16s} {metrics[name]:.6g} {unit}")
            rate = tally.failed / tally.attempted if tally.attempted else 0.0
            print(f"# {'error_rate':16s} {rate:.6g} ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in dict.fromkeys(tally.problems):
        print(f"# check failed: {problem}")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
