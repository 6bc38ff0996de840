"""Tests for the UCA hardware-unit model (Sec. 4.2 / 4.3)."""

import pytest

from repro import constants
from repro.core.uca import UCAConfig, UCAUnit
from repro.errors import ConfigurationError


class TestUCAConfig:
    def test_paper_defaults(self):
        cfg = UCAConfig()
        assert cfg.units == 2
        assert cfg.cycles_per_tile == 532
        assert cfg.tile_px == 32
        assert cfg.frequency_mhz == 500.0

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            UCAConfig(units=0)
        with pytest.raises(ConfigurationError):
            UCAConfig(cycles_per_tile=0)
        with pytest.raises(ConfigurationError):
            UCAConfig(critical_tail_fraction=0.0)


class TestTileAccounting:
    def test_tile_grid(self):
        uca = UCAUnit()
        assert uca.tile_grid(1920, 2160) == (60, 68)

    def test_tile_count_both_eyes(self):
        uca = UCAUnit()
        assert uca.tile_count(1920, 2160) == 60 * 68 * 2

    def test_tile_grid_rounds_up(self):
        uca = UCAUnit()
        assert uca.tile_grid(33, 33) == (2, 2)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            UCAUnit().tile_grid(0, 100)


class TestUCATiming:
    def test_occupancy_matches_paper_arithmetic(self):
        """8160 tiles x 532 cycles / 500 MHz / 2 units ~= 4.34 ms."""
        uca = UCAUnit()
        expected = 8160 * 532 / 500e3 / 2
        assert uca.occupancy_ms(1920, 2160) == pytest.approx(expected)

    def test_occupancy_meets_realtime_budget(self):
        """Sec. 4.3: 2 UCAs at 500 MHz are sufficient for realtime VR."""
        uca = UCAUnit()
        assert uca.occupancy_ms(1920, 2160) < constants.FRAME_BUDGET_MS

    def test_tail_is_fraction_of_occupancy(self):
        uca = UCAUnit(UCAConfig(critical_tail_fraction=0.25))
        assert uca.critical_tail_ms(1920, 2160) == pytest.approx(
            0.25 * uca.occupancy_ms(1920, 2160)
        )

    def test_more_units_scale_throughput(self):
        one = UCAUnit(UCAConfig(units=1))
        two = UCAUnit(UCAConfig(units=2))
        assert one.occupancy_ms(1920, 2160) == pytest.approx(
            2 * two.occupancy_ms(1920, 2160)
        )

    def test_frequency_scaling(self):
        slow = UCAUnit(UCAConfig(frequency_mhz=250))
        fast = UCAUnit(UCAConfig(frequency_mhz=500))
        assert slow.occupancy_ms(1920, 2160) == pytest.approx(
            2 * fast.occupancy_ms(1920, 2160)
        )
