"""Shared pytest fixtures for the Bit Fusion reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BitFusionConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> BitFusionConfig:
    """A small accelerator configuration that keeps functional tests fast."""
    return BitFusionConfig(
        rows=4,
        columns=4,
        frequency_mhz=500.0,
        ibuf_kb=4.0,
        wbuf_kb=8.0,
        obuf_kb=2.0,
        dram_bandwidth_bits_per_cycle=64,
        name="test-small",
    )


@pytest.fixture
def default_config() -> BitFusionConfig:
    """The paper's Eyeriss-matched configuration (Table III)."""
    return BitFusionConfig.eyeriss_matched()
