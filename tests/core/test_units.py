"""Tests for unit conversion helpers."""

from __future__ import annotations

import pytest

from repro import units


class TestConversions:
    def test_seconds_to_milliseconds(self):
        assert units.s_to_ms(2.0) == 2000.0

    def test_bytes_to_bits(self):
        assert units.bytes_to_bits(10) == 80

    def test_milliamps_to_watts(self):
        assert units.ma_to_w(20.0, voltage=3.0) == pytest.approx(0.06)

    def test_ma_to_w_requires_positive_voltage(self):
        with pytest.raises(ValueError):
            units.ma_to_w(10.0, voltage=0.0)

    def test_require_positive(self):
        assert units.require_positive("x", 2.0) == 2.0
        with pytest.raises(ValueError):
            units.require_positive("x", 0.0)
        with pytest.raises(ValueError):
            units.require_positive("x", float("nan"))
