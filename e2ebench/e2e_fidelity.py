"""Print the reproduction's ``paper_log_error`` as one JSON number.

Run with ``src`` on ``PYTHONPATH``.  The value is the geometric mean, over
every Fig 13 speedup and energy row, every Fig 17 row and every Fig 18
speedup and energy row, of ``|ln(measured / paper)|`` against
``repro.harness.paper_data``.  Every row weighs the same.  The simulator is
deterministic, so the number changes only when the modelled results do.
"""

from __future__ import annotations

import json
import math

from repro.harness import paper_data
from repro.harness.experiments import fig13_eyeriss, fig17_gpu, fig18_stripes


def measured_vs_paper() -> list[tuple[float, float]]:
    """(measured, paper) for every compared row of Figs 13, 17 and 18."""
    pairs: list[tuple[float, float]] = []
    for row in fig13_eyeriss.run().rows:
        pairs.append((row.speedup, paper_data.FIG13_SPEEDUP_OVER_EYERISS[row.benchmark]))
        pairs.append(
            (row.energy_reduction, paper_data.FIG13_ENERGY_REDUCTION_OVER_EYERISS[row.benchmark])
        )
    for row in fig17_gpu.run().rows:
        paper = paper_data.FIG17_SPEEDUP_OVER_TX2[row.benchmark]
        pairs.append((row.titanx_fp32, paper["titanx-fp32"]))
        pairs.append((row.titanx_int8, paper["titanx-int8"]))
        pairs.append((row.bitfusion, paper["bitfusion"]))
    for row in fig18_stripes.run().rows:
        pairs.append((row.speedup, paper_data.FIG18_SPEEDUP_OVER_STRIPES[row.benchmark]))
        pairs.append(
            (row.energy_reduction, paper_data.FIG18_ENERGY_REDUCTION_OVER_STRIPES[row.benchmark])
        )
    return pairs


def paper_log_error(pairs: list[tuple[float, float]]) -> float:
    """Geometric mean of ``|ln(measured / paper)|`` over ``pairs``."""
    errors = [abs(math.log(measured / paper)) for measured, paper in pairs]
    if min(errors) == 0.0:
        return 0.0
    return math.exp(math.fsum(math.log(error) for error in errors) / len(errors))


if __name__ == "__main__":
    print(json.dumps(paper_log_error(measured_vs_paper())))
