"""Radio hardware model.

Duty-cycled MAC protocols trade radio-on time against latency; the analytical
models therefore need to know how much power the transceiver draws in each
operating mode and how fast it can push bits.  The paper (and the
Langendoen & Meier analysis it builds on) assumes a CC2420-class IEEE
802.15.4 radio; the brief announcement never states the constants, so we take
them from the CC2420 datasheet and expose them as an explicit, overridable
:class:`RadioModel`.

Power figures are stored in **watts**, durations in **seconds** and bit-rates
in **bits per second**.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping

from repro.exceptions import ConfigurationError
from repro.units import bytes_to_bits, ma_to_w


class RadioMode(str, enum.Enum):
    """Operating modes of a low-power transceiver.

    The energy decomposition used throughout the library (carrier sensing,
    transmission, reception, overhearing, synchronization) maps onto these
    physical modes: carrier sensing and overhearing happen in ``RX``/``IDLE``,
    transmissions in ``TX``, and everything else in ``SLEEP``.
    """

    SLEEP = "sleep"
    IDLE = "idle"
    RX = "rx"
    TX = "tx"


@dataclass(frozen=True)
class RadioModel:
    """Power/time characteristics of a transceiver.

    Attributes:
        name: Human-readable identifier of the radio (e.g. ``"CC2420"``).
        power_tx: Power draw while transmitting, in watts.
        power_rx: Power draw while receiving, in watts.
        power_idle: Power draw while listening to an idle channel, in watts.
            For most packet radios this equals ``power_rx``.
        power_sleep: Power draw in sleep mode, in watts.
        bitrate: Physical-layer bit-rate in bits per second.
        turnaround_time: Time to switch between receive and transmit, in
            seconds.  Contributes to per-hop handshake costs.
        wakeup_time: Time to go from sleep to an operational (rx/tx) state,
            in seconds.  Paid on every duty-cycle wake-up.
        carrier_sense_time: Duration of a single clear-channel assessment /
            channel poll, in seconds.  Preamble-sampling MACs pay this once
            per wake-up interval.
    """

    name: str
    power_tx: float
    power_rx: float
    power_idle: float
    power_sleep: float
    bitrate: float
    turnaround_time: float = 192e-6
    wakeup_time: float = 1.0e-3
    carrier_sense_time: float = 2.5e-3

    def __post_init__(self) -> None:
        numeric_fields = {
            "power_tx": self.power_tx,
            "power_rx": self.power_rx,
            "power_idle": self.power_idle,
            "power_sleep": self.power_sleep,
            "bitrate": self.bitrate,
            "turnaround_time": self.turnaround_time,
            "wakeup_time": self.wakeup_time,
            "carrier_sense_time": self.carrier_sense_time,
        }
        for field_name, value in numeric_fields.items():
            if not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"RadioModel.{field_name} must be numeric, got {value!r}"
                )
            if value < 0:
                raise ConfigurationError(
                    f"RadioModel.{field_name} must be non-negative, got {value!r}"
                )
        if self.bitrate <= 0:
            raise ConfigurationError("RadioModel.bitrate must be strictly positive")
        if self.power_sleep > min(self.power_rx, self.power_tx, self.power_idle):
            raise ConfigurationError(
                "RadioModel.power_sleep must not exceed the active-mode powers; "
                f"got sleep={self.power_sleep!r}"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def power(self, mode: RadioMode) -> float:
        """Return the power draw (watts) of the given operating mode."""
        mapping: Dict[RadioMode, float] = {
            RadioMode.SLEEP: self.power_sleep,
            RadioMode.IDLE: self.power_idle,
            RadioMode.RX: self.power_rx,
            RadioMode.TX: self.power_tx,
        }
        try:
            return mapping[RadioMode(mode)]
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"unknown radio mode {mode!r}") from exc

    def airtime_bits(self, n_bits: float) -> float:
        """On-air duration (seconds) of a frame of ``n_bits`` bits."""
        if n_bits < 0:
            raise ConfigurationError(f"frame size must be non-negative, got {n_bits!r}")
        return float(n_bits) / self.bitrate

    def airtime_bytes(self, n_bytes: float) -> float:
        """On-air duration (seconds) of a frame of ``n_bytes`` bytes."""
        return self.airtime_bits(bytes_to_bits(n_bytes))

    def energy(self, mode: RadioMode, duration: float) -> float:
        """Energy (joules) spent staying ``duration`` seconds in ``mode``."""
        if duration < 0:
            raise ConfigurationError(f"duration must be non-negative, got {duration!r}")
        return self.power(mode) * float(duration)

    @property
    def always_on_power(self) -> float:
        """Power draw (watts) of a node that never sleeps (idle listening).

        Useful as a natural upper bound on any duty-cycled protocol's average
        power, and as the reference point for interpreting the paper's energy
        budgets: ``Ebudget = 0.06 J`` per second is roughly the always-on
        power of a CC2420-class radio.
        """
        return self.power_idle

    def with_overrides(self, **overrides: float) -> "RadioModel":
        """Return a copy of the model with some fields replaced.

        Example:
            >>> fast = cc2420().with_overrides(bitrate=500_000.0)
        """
        return replace(self, **overrides)

    def as_dict(self) -> Mapping[str, float]:
        """Return the numeric fields as a plain dictionary (for reporting)."""
        return {
            "power_tx": self.power_tx,
            "power_rx": self.power_rx,
            "power_idle": self.power_idle,
            "power_sleep": self.power_sleep,
            "bitrate": self.bitrate,
            "turnaround_time": self.turnaround_time,
            "wakeup_time": self.wakeup_time,
            "carrier_sense_time": self.carrier_sense_time,
        }


# ---------------------------------------------------------------------- #
# Presets
# ---------------------------------------------------------------------- #


def cc2420(voltage: float = 3.0) -> RadioModel:
    """IEEE 802.15.4 CC2420 radio (the one assumed by Langendoen & Meier).

    Datasheet current draws: 17.4 mA TX at 0 dBm, 18.8 mA RX/idle listening,
    ~20 µA in power-down; 250 kbps physical rate.
    """
    return RadioModel(
        name="CC2420",
        power_tx=ma_to_w(17.4, voltage),
        power_rx=ma_to_w(18.8, voltage),
        power_idle=ma_to_w(18.8, voltage),
        power_sleep=ma_to_w(0.02, voltage),
        bitrate=250_000.0,
        turnaround_time=192e-6,
        wakeup_time=0.58e-3,
        carrier_sense_time=2.5e-3,
    )


def cc1100(voltage: float = 3.0) -> RadioModel:
    """Sub-GHz CC1100/CC1101-class byte radio at 76.8 kbps."""
    return RadioModel(
        name="CC1100",
        power_tx=ma_to_w(16.9, voltage),
        power_rx=ma_to_w(16.4, voltage),
        power_idle=ma_to_w(16.4, voltage),
        power_sleep=ma_to_w(0.0005, voltage),
        bitrate=76_800.0,
        turnaround_time=9.6e-6,
        wakeup_time=0.24e-3,
        carrier_sense_time=0.9e-3,
    )


def tr1001(voltage: float = 3.0) -> RadioModel:
    """Legacy TR1001 bit radio (EYES nodes, used in the original LMAC work)."""
    return RadioModel(
        name="TR1001",
        power_tx=ma_to_w(12.0, voltage),
        power_rx=ma_to_w(3.8, voltage),
        power_idle=ma_to_w(3.8, voltage),
        power_sleep=ma_to_w(0.0007, voltage),
        bitrate=115_200.0,
        turnaround_time=20e-6,
        wakeup_time=0.02e-3,
        carrier_sense_time=0.5e-3,
    )


#: Registry of radio presets by lower-case name, used by the CLI.
RADIO_PRESETS = {
    "cc2420": cc2420,
    "cc1100": cc1100,
    "tr1001": tr1001,
}


def radio_by_name(name: str, voltage: float = 3.0) -> RadioModel:
    """Look up a radio preset by (case-insensitive) name.

    Raises:
        ConfigurationError: if the name does not match a known preset.
    """
    key = name.strip().lower()
    if key not in RADIO_PRESETS:
        known = ", ".join(sorted(RADIO_PRESETS))
        raise ConfigurationError(f"unknown radio {name!r}; known presets: {known}")
    return RADIO_PRESETS[key](voltage=voltage)
