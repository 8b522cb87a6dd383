#!/usr/bin/env python3
"""Design-space exploration: a two-axis sweep with a Pareto frontier.

The BitFusion paper settles on a 16x16 array of 8-bit-fused units by
exploring a design space; this example reproduces a small slice of that
exploration with the declarative sweep engine (`repro.dse`):

1. declare a two-axis `SweepSpec` — systolic-array geometry crossed with
   technology node — over one benchmark network,
2. expand and execute it through an `EvaluationSession` (the structure-only
   program cache means the network is compiled exactly once for all six
   points, since neither axis affects the emitted program),
3. extract and print the Pareto frontier trading latency per inference
   against energy per inference and silicon area.

The same spec, as JSON, runs from the command line::

    python -m repro.harness sweep spec.json

See docs/sweeps.md for the full spec schema.

Run with::

    python examples/design_space_sweep.py
"""

from __future__ import annotations

from repro.dse.report import format_sweep_report
from repro.dse.runner import run_sweep
from repro.dse.spec import SweepSpec
from repro.session import EvaluationSession


def main() -> None:
    # 1. Declare the design space: array geometry x technology node.
    spec = SweepSpec.from_dict(
        {
            "name": "LeNet-5 array x node exploration",
            "networks": ["LeNet-5"],
            "batch_sizes": [16],
            "axes": {
                "array": [[16, 16], [32, 16], [32, 32]],
                "technology": ["45nm", "16nm"],
            },
            "objectives": ["latency", "energy", "area"],
        }
    )
    print(spec.describe())
    print()

    # 2. Execute the grid through a session.  All six workloads share one
    #    compiled program: the array and technology axes are excluded from
    #    the structure-only program cache key.
    with EvaluationSession() as session:
        result = run_sweep(spec, session)

        # 3. Report: the full grid, the Pareto frontier, and proof of the
        #    single compilation in the session's cache statistics.
        print(format_sweep_report(result))
        print()
        print(session.stats.summary())

    compiles = session.stats.programs.misses
    assert compiles == 1, f"expected exactly one compilation, saw {compiles}"
    print()
    print("The program cache compiled LeNet-5 exactly once for all six points.")


if __name__ == "__main__":
    main()
