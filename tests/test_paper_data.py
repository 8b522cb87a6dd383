"""Relations the paper's own numbers (``harness/paper_data.py``) must satisfy.

Each test states one identity between published values and checks it on
the transcription.  A model can only match targets that hold together, so
a relation that fails is kept as a named exception: a test asserting the
contradiction, with the reason it cannot hold.  ``docs/fidelity.md``
lists the exceptions next to the fidelity scorecard.
"""

from __future__ import annotations

import math

import pytest

from repro.harness import paper_data
from repro.sim.stats import geometric_mean

#: Largest |ln(geomean of the rows / published geomean)| a figure may show.
#: The published geomeans are rounded to two digits; the worst case is
#: Bit Fusion's Fig 17 column, 16.67 against 16.0 (|ln| = 0.041).
_GEOMEAN_TOLERANCE = 0.05


def _log_error(measured: float, published: float) -> float:
    return abs(math.log(measured / published))


def _geomean_of_rows(rows: dict[str, float]) -> float:
    return geometric_mean([rows[name] for name in paper_data.BENCHMARK_ORDER])


@pytest.mark.parametrize(
    ("rows", "published"),
    [
        (paper_data.FIG13_SPEEDUP_OVER_EYERISS, paper_data.FIG13_GEOMEAN[0]),
        (paper_data.FIG13_ENERGY_REDUCTION_OVER_EYERISS, paper_data.FIG13_GEOMEAN[1]),
        (paper_data.FIG18_SPEEDUP_OVER_STRIPES, paper_data.FIG18_GEOMEAN[0]),
        (paper_data.FIG18_ENERGY_REDUCTION_OVER_STRIPES, paper_data.FIG18_GEOMEAN[1]),
    ],
    ids=["fig13-speedup", "fig13-energy", "fig18-speedup", "fig18-energy"],
)
def test_fig13_and_fig18_geomeans_match_their_rows(rows, published):
    assert _log_error(_geomean_of_rows(rows), published) <= _GEOMEAN_TOLERANCE


@pytest.mark.parametrize("column", ["titanx-fp32", "titanx-int8", "bitfusion"])
def test_fig17_geomean_row_matches_its_columns(column):
    table = paper_data.FIG17_SPEEDUP_OVER_TX2
    rows = {name: table[name][column] for name in paper_data.BENCHMARK_ORDER}
    assert _log_error(_geomean_of_rows(rows), table["geomean"][column]) <= _GEOMEAN_TOLERANCE


@pytest.mark.parametrize(
    "fractions",
    [paper_data.FIG14_BITFUSION_FRACTIONS, paper_data.FIG14_EYERISS_FRACTIONS],
    ids=["bitfusion", "eyeriss"],
)
def test_fig14_fractions_sum_to_one(fractions):
    for name in paper_data.BENCHMARK_ORDER:
        assert sum(fractions[name]) == pytest.approx(1.0, abs=0.002), name


def test_fig15_rows_are_normalized_to_128_bits_per_cycle():
    for name in paper_data.BENCHMARK_ORDER:
        assert paper_data.FIG15_BANDWIDTH_SPEEDUP[name][128] == 1.0, name


def test_fig16_rows_are_normalized_to_batch_1():
    for name in paper_data.BENCHMARK_ORDER:
        assert paper_data.FIG16_BATCH_SPEEDUP[name][1] == 1.0, name


def test_alexnet_group_energies_contradict_the_fig13_network_value():
    """Named exception: the embedded AlexNet table is not on Fig 13's accounting.

    A network's energy reduction is a weighted mean of its layer groups'
    reductions, so it lies between them unless layers outside the four
    groups dominate; the groups read 6.50-30.74 but the network reads 1.5.
    """
    group_energy = [energy for _, energy in paper_data.FIG13_ALEXNET_PER_LAYER.values()]
    network_energy = paper_data.FIG13_ENERGY_REDUCTION_OVER_EYERISS["AlexNet"]
    assert (min(group_energy), max(group_energy)) == (6.50, 30.74)
    assert network_energy < min(group_energy)


def _least_share(network: float, slow: float, fast: float) -> float:
    """Least share of Eyeriss time at speedup ``slow`` that mixes to ``network``.

    The rest runs at ``fast``.  A network speedup is the harmonic mean of
    its parts' speedups weighted by Eyeriss time, so a share ``w`` at
    ``slow`` gives ``1 / network = w / slow + (1 - w) / fast``.
    """
    return (1 / network - 1 / fast) / (1 / slow - 1 / fast)


def test_alexnet_speedup_pins_eyeriss_time_in_the_8_bit_groups():
    """Constraint: Fig 13's 1.9 and the group speedups pin Eyeriss's time split.

    The four groups partition AlexNet's GEMM layers.  The 8-bit share of
    Eyeriss time is least when all of it sits in the slowest 8-bit group
    (fc 8/8, 1.01) and the rest in the slowest 4/1-bit group (fc 4/1,
    3.31): 32.6%.  If both parts are convolution (1.67 and 6.39), 83.6%.
    """
    speedup = {group: value for group, (value, _) in paper_data.FIG13_ALEXNET_PER_LAYER.items()}
    network = paper_data.FIG13_SPEEDUP_OVER_EYERISS["AlexNet"]
    eight_bit = {group: value for group, value in speedup.items() if "8/8" in group}
    others = {group: value for group, value in speedup.items() if group not in eight_bit}
    assert len(eight_bit) == len(others) == 2
    # 1.9 lies between the groups, so some time split reproduces it.
    assert min(speedup.values()) < network < max(speedup.values())
    least = _least_share(network, min(eight_bit.values()), min(others.values()))
    assert least == pytest.approx(0.326, abs=5e-4)
    least_conv = _least_share(network, speedup["conv 8/8-bit"], speedup["conv 4/1-bit"])
    assert least_conv == pytest.approx(0.836, abs=5e-4)
    # Any other split puts more time at 8 bits: the slowest pair is the bound.
    for slow in eight_bit.values():
        for fast in others.values():
            if fast > network:
                assert _least_share(network, slow, fast) >= least
