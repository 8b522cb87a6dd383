"""Tests for the energy models: breakdown, SRAM, DRAM and compute components."""

from __future__ import annotations

import pytest

from repro.core.config import TechnologyNode
from repro.core.fusion_unit import fusion_config_for
from repro.energy.breakdown import EnergyBreakdown
from repro.energy.cacti import SramEnergyModel, sram_access_energy_pj, sram_area_mm2
from repro.energy.components import (
    ComputeEnergyModel,
    FUSION_UNIT_AREA_UM2,
    FUSION_UNIT_POWER_NW,
    TEMPORAL_UNIT_AREA_UM2,
    TEMPORAL_UNIT_POWER_NW,
    fusion_unit_area_breakdown,
    temporal_unit_area_breakdown,
)
from repro.energy.dram import DramEnergyModel


class TestEnergyBreakdown:
    def test_total_and_fractions(self):
        breakdown = EnergyBreakdown(compute=1.0, buffers=2.0, register_file=3.0, dram=4.0)
        assert breakdown.total == 10.0
        fractions = breakdown.fractions()
        assert fractions["dram"] == pytest.approx(0.4)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_breakdown_fractions_are_zero(self):
        assert all(v == 0.0 for v in EnergyBreakdown().fractions().values())

    def test_sum(self):
        a = EnergyBreakdown(compute=1.0, dram=2.0)
        b = EnergyBreakdown(buffers=0.5, dram=1.0)
        combined = EnergyBreakdown.sum([a, b])
        assert combined.compute == 1.0
        assert combined.dram == 3.0
        assert combined.total == 4.5
        assert EnergyBreakdown.sum([]).total == 0.0

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(compute=-1.0)


class TestSramModel:
    def test_energy_grows_with_capacity(self):
        assert sram_access_energy_pj(64, 32) > sram_access_energy_pj(1, 32)

    def test_energy_scales_with_access_width(self):
        assert sram_access_energy_pj(32, 64) == pytest.approx(2 * sram_access_energy_pj(32, 32))

    def test_area_grows_linearly(self):
        assert sram_area_mm2(64) == pytest.approx(64 * sram_area_mm2(1))

    def test_model_object_consistency(self):
        model = SramEnergyModel(capacity_kb=32, access_bits=32)
        assert model.energy_per_access_pj == pytest.approx(sram_access_energy_pj(32, 32))
        assert model.energy_per_bit_pj == pytest.approx(model.energy_per_access_pj / 32)
        assert model.energy_for_bits_j(32e12) == pytest.approx(model.energy_per_access_pj)

    def test_validation(self):
        with pytest.raises(ValueError):
            sram_access_energy_pj(0, 32)
        with pytest.raises(ValueError):
            sram_access_energy_pj(32, 0)
        with pytest.raises(ValueError):
            sram_area_mm2(0)
        with pytest.raises(ValueError):
            SramEnergyModel(capacity_kb=0)
        model = SramEnergyModel(capacity_kb=1)
        with pytest.raises(ValueError):
            model.energy_for_bits_j(-1)


class TestDramModel:
    def test_default_energy_per_bit(self):
        model = DramEnergyModel()
        assert model.energy_for_bits_j(1e12) == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DramEnergyModel(pj_per_bit=0)
        with pytest.raises(ValueError):
            DramEnergyModel().energy_for_bits_j(-1)


class TestSynthesisConstants:
    def test_figure10_totals(self):
        """Figure 10: hybrid Fusion Unit is ~3.5x smaller and ~3.2x lower power."""
        assert TEMPORAL_UNIT_AREA_UM2 / FUSION_UNIT_AREA_UM2 == pytest.approx(3.5, rel=0.05)
        assert TEMPORAL_UNIT_POWER_NW / FUSION_UNIT_POWER_NW == pytest.approx(3.2, rel=0.05)

    def test_breakdowns_sum_to_totals(self):
        assert sum(fusion_unit_area_breakdown().values()) == pytest.approx(
            FUSION_UNIT_AREA_UM2, rel=0.01
        )
        assert sum(temporal_unit_area_breakdown().values()) == pytest.approx(
            TEMPORAL_UNIT_AREA_UM2, rel=0.01
        )

    def test_register_dominates_temporal_design(self):
        """The temporal design's accumulation registers are its area problem."""
        temporal = temporal_unit_area_breakdown()
        fusion = fusion_unit_area_breakdown()
        assert temporal["register"] / fusion["register"] == pytest.approx(16.0, rel=0.05)


class TestComputeEnergyModel:
    def test_mac_energy_scales_with_bricks(self):
        model = ComputeEnergyModel(technology=TechnologyNode.nm45())
        full = model.fusion_mac_energy_pj(fusion_config_for(8, 8))
        quarter = model.fusion_mac_energy_pj(fusion_config_for(4, 4))
        sixteenth = model.fusion_mac_energy_pj(fusion_config_for(2, 2))
        assert full == pytest.approx(4 * quarter)
        assert full == pytest.approx(16 * sixteenth)

    def test_sixteen_bit_mac_is_most_expensive(self):
        model = ComputeEnergyModel(technology=TechnologyNode.nm45())
        assert model.fusion_mac_energy_pj(fusion_config_for(16, 16)) > model.fusion_mac_energy_pj(
            fusion_config_for(8, 8)
        )

    def test_technology_scaling_reduces_energy(self):
        at_45 = ComputeEnergyModel(technology=TechnologyNode.nm45())
        at_16 = ComputeEnergyModel(technology=TechnologyNode.nm16())
        config = fusion_config_for(8, 8)
        assert at_16.fusion_mac_energy_pj(config) < at_45.fusion_mac_energy_pj(config)

    def test_eyeriss_energies(self):
        model = ComputeEnergyModel(technology=TechnologyNode.nm45())
        assert model.eyeriss_mac_energy_pj() > model.fusion_mac_energy_pj(fusion_config_for(8, 8))
        assert model.eyeriss_rf_energy_per_mac_pj() > model.eyeriss_mac_energy_pj()
        with pytest.raises(ValueError):
            model.eyeriss_rf_energy_per_mac_pj(-1)

    def test_stripes_energy_scales_with_weight_bits(self):
        model = ComputeEnergyModel(technology=TechnologyNode.nm45())
        assert model.stripes_mac_energy_pj(8) == pytest.approx(
            2 * model.stripes_mac_energy_pj(4)
        )
        with pytest.raises(ValueError):
            model.stripes_mac_energy_pj(0)

    def test_fusion_units_per_area(self):
        model = ComputeEnergyModel(technology=TechnologyNode.nm45())
        per_mm2 = 1.0 / model.fusion_unit_area_mm2()
        assert 500 < per_mm2 < 1000  # ~717 at the published 1394 um^2
