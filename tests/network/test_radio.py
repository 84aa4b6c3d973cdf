"""Unit tests for the radio hardware model."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.network.radio import (
    RADIO_PRESETS,
    RadioMode,
    RadioModel,
    cc1100,
    cc2420,
    radio_by_name,
    tr1001,
)


class TestRadioModel:
    def test_cc2420_power_draws_are_in_the_expected_range(self):
        radio = cc2420()
        assert 0.04 < radio.power_rx < 0.07
        assert 0.04 < radio.power_tx < 0.07
        assert radio.power_sleep < 1e-3

    def test_power_lookup_matches_fields(self):
        radio = cc2420()
        assert radio.power(RadioMode.TX) == radio.power_tx
        assert radio.power(RadioMode.RX) == radio.power_rx
        assert radio.power(RadioMode.IDLE) == radio.power_idle
        assert radio.power(RadioMode.SLEEP) == radio.power_sleep

    def test_power_accepts_string_mode(self):
        radio = cc2420()
        assert radio.power("tx") == radio.power_tx

    def test_power_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            cc2420().power("warp-drive")

    def test_airtime_scales_linearly_with_size(self):
        radio = cc2420()
        assert radio.airtime_bytes(100) == pytest.approx(2 * radio.airtime_bytes(50))

    def test_airtime_bytes_matches_bitrate(self):
        radio = cc2420()
        assert radio.airtime_bytes(125) == pytest.approx(125 * 8 / radio.bitrate)

    def test_airtime_rejects_negative_size(self):
        with pytest.raises(ConfigurationError):
            cc2420().airtime_bits(-1)

    def test_energy_rejects_negative_duration(self):
        with pytest.raises(ConfigurationError):
            cc2420().energy(RadioMode.RX, -0.5)

    def test_always_on_power_is_idle_power(self):
        radio = cc2420()
        assert radio.always_on_power == radio.power_idle

    def test_with_overrides_changes_only_selected_fields(self):
        fast = cc2420().with_overrides(bitrate=500_000.0)
        assert fast.bitrate == 500_000.0
        assert fast.power_tx == cc2420().power_tx

    def test_as_dict_contains_all_numeric_fields(self):
        fields = cc2420().as_dict()
        assert set(fields) >= {"power_tx", "power_rx", "bitrate", "carrier_sense_time"}

    def test_negative_power_is_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioModel(
                name="bad",
                power_tx=-1.0,
                power_rx=0.05,
                power_idle=0.05,
                power_sleep=0.0,
                bitrate=250_000.0,
            )

    def test_zero_bitrate_is_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioModel(
                name="bad",
                power_tx=0.05,
                power_rx=0.05,
                power_idle=0.05,
                power_sleep=0.0,
                bitrate=0.0,
            )

    def test_sleep_power_above_active_power_is_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioModel(
                name="bad",
                power_tx=0.05,
                power_rx=0.05,
                power_idle=0.05,
                power_sleep=0.1,
                bitrate=250_000.0,
            )


class TestPresets:
    def test_all_presets_are_constructible(self):
        for factory in (cc2420, cc1100, tr1001):
            radio = factory()
            assert radio.bitrate > 0

    def test_registry_matches_factories(self):
        assert set(RADIO_PRESETS) == {"cc2420", "cc1100", "tr1001"}

    def test_radio_by_name_is_case_insensitive(self):
        assert radio_by_name("CC2420").name == "CC2420"

    def test_radio_by_name_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            radio_by_name("nrf52840")

    def test_voltage_scales_power(self):
        low = cc2420(voltage=2.0)
        high = cc2420(voltage=3.0)
        assert high.power_rx == pytest.approx(1.5 * low.power_rx)

    def test_cc1100_is_slower_than_cc2420(self):
        assert cc1100().bitrate < cc2420().bitrate
