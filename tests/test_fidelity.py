"""Fidelity ratchet: how far Figures 13, 17 and 18 are from the paper.

Each figure's score is the arithmetic mean, over its rows, of
``|ln(measured / paper)|`` against :mod:`repro.harness.paper_data` — the
same 56 rows the end-to-end benchmark's ``paper_log_error`` reads: every
Fig 13 speedup and energy reduction, every Fig 17 column and every Fig 18
speedup and energy reduction.  The bounds may only tighten.  A change that
moves any row records the scores before and after in CHANGES.md.
"""

from __future__ import annotations

import math

import pytest

from repro.harness import paper_data
from repro.harness.experiments import fig13_eyeriss, fig17_gpu, fig18_stripes

#: Upper bounds on each figure's mean |ln(measured / paper)|, and on the
#: mean over all 56 rows.
_BOUNDS = {"fig13": 0.8976, "fig17": 0.6274, "fig18": 0.7580, "all": 0.7419}


def _errors(pairs):
    return [abs(math.log(measured / paper)) for measured, paper in pairs]


@pytest.fixture(scope="module")
def errors():
    """``{figure: [|ln(measured / paper)| per row]}``."""
    fig13 = [
        pair
        for row in fig13_eyeriss.run().rows
        for pair in (
            (row.speedup, paper_data.FIG13_SPEEDUP_OVER_EYERISS[row.benchmark]),
            (row.energy_reduction, paper_data.FIG13_ENERGY_REDUCTION_OVER_EYERISS[row.benchmark]),
        )
    ]
    fig17 = [
        (measured, paper_data.FIG17_SPEEDUP_OVER_TX2[row.benchmark][column])
        for row in fig17_gpu.run().rows
        for measured, column in (
            (row.titanx_fp32, "titanx-fp32"),
            (row.titanx_int8, "titanx-int8"),
            (row.bitfusion, "bitfusion"),
        )
    ]
    fig18 = [
        pair
        for row in fig18_stripes.run().rows
        for pair in (
            (row.speedup, paper_data.FIG18_SPEEDUP_OVER_STRIPES[row.benchmark]),
            (row.energy_reduction, paper_data.FIG18_ENERGY_REDUCTION_OVER_STRIPES[row.benchmark]),
        )
    ]
    scores = {"fig13": _errors(fig13), "fig17": _errors(fig17), "fig18": _errors(fig18)}
    scores["all"] = [error for rows in scores.values() for error in rows]
    return scores


def test_every_compared_row_is_scored(errors):
    assert {figure: len(rows) for figure, rows in errors.items()} == {
        "fig13": 16,
        "fig17": 24,
        "fig18": 16,
        "all": 56,
    }


@pytest.mark.parametrize("figure", sorted(_BOUNDS))
def test_mean_log_error_stays_within_its_bound(errors, figure):
    assert math.fsum(errors[figure]) / len(errors[figure]) <= _BOUNDS[figure]
