"""Fidelity ratchet: how far Figures 13, 15, 16, 17 and 18 are from the paper.

Each figure's score is the arithmetic mean, over its rows, of
``|ln(measured / paper)|`` against :mod:`repro.harness.paper_data`.  The
``all`` score covers the same 56 rows the end-to-end benchmark's
``paper_log_error`` reads: every Fig 13 speedup and energy reduction, every
Fig 17 column and every Fig 18 speedup and energy reduction.  Figures 15
and 16 are scored on their own, 32 rows each: every benchmark's speedup at
every swept bandwidth or batch size except the normalization point (128
bits/cycle, batch 1), which is 1.0 on both sides by construction.  The
bounds may only tighten.  A change that moves any row records the scores
before and after in CHANGES.md.
"""

from __future__ import annotations

import math

import pytest

from repro.harness import paper_data
from repro.harness.experiments import (
    fig13_eyeriss,
    fig15_bandwidth,
    fig16_batch,
    fig17_gpu,
    fig18_stripes,
)

#: Upper bounds on each figure's mean |ln(measured / paper)|, and on the
#: mean over the 56 rows of Figs 13, 17 and 18.
_BOUNDS = {
    "fig13": 0.8976,
    "fig15": 0.3456,
    "fig16": 0.5471,
    "fig17": 0.6274,
    "fig18": 0.7580,
    "all": 0.7419,
}


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
    scores["fig15"] = _errors(
        (measured, paper_data.FIG15_BANDWIDTH_SPEEDUP[row.benchmark][bandwidth])
        for row in fig15_bandwidth.run()
        for bandwidth, measured in row.speedup_by_bandwidth.items()
        if bandwidth != fig15_bandwidth.REFERENCE_BANDWIDTH
    )
    scores["fig16"] = _errors(
        (measured, paper_data.FIG16_BATCH_SPEEDUP[row.benchmark][batch])
        for row in fig16_batch.run()
        for batch, measured in row.speedup_by_batch.items()
        if batch != 1
    )
    return scores


def test_every_compared_row_is_scored(errors):
    assert {figure: len(rows) for figure, rows in errors.items()} == {
        "fig13": 16,
        "fig15": 32,
        "fig16": 32,
        "fig17": 24,
        "fig18": 16,
        "all": 56,
    }


@pytest.mark.parametrize("figure", sorted(_BOUNDS))
def test_mean_log_error_stays_within_its_bound(errors, figure):
    assert math.fsum(errors[figure]) / len(errors[figure]) <= _BOUNDS[figure]
