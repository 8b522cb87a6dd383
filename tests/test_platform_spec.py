"""A bad fixed-function platform spec is a one-line error naming its field."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.platform import EYERISS, STRIPES


@pytest.mark.parametrize(
    ("spec", "field", "value"),
    [
        (EYERISS, "dram_bandwidth_bits_per_cycle", 0),
        (STRIPES, "dram_bandwidth_bits_per_cycle", 0),
        (EYERISS, "dram_bandwidth_bits_per_cycle", -128),
        (STRIPES, "conv_utilization", 0.0),
        (STRIPES, "fc_utilization", 1.5),
        (STRIPES, "input_bits", 4),
        (EYERISS, "on_chip_kb", 0.0),
        (STRIPES, "on_chip_kb", 0.0),
        (EYERISS, "frequency_mhz", 0.0),
        (STRIPES, "frequency_mhz", -980.0),
    ],
)
def test_bad_spec_is_a_one_line_error_naming_the_field(spec, field, value):
    with pytest.raises(ValueError, match=field) as error:
        replace(spec, **{field: value})
    assert "\n" not in str(error.value)
