"""Small helpers for unit handling and numeric hygiene.

The analytical models in :mod:`repro.protocols` and the game formulation in
:mod:`repro.core` mix quantities expressed in seconds, milliseconds, joules,
watts, bits and bytes.  Keeping the conversions in one place avoids the
classic class of bugs where a milli- factor silently goes missing.

All public model code in the library uses **SI base units internally**:
seconds for time, joules for energy, watts for power, bits for frame sizes
and hertz for rates.  The helpers below convert at the boundaries (user
input, report output).
"""

from __future__ import annotations

import math

#: Number of bits in a byte; frame sizes are specified in bytes by users.
BITS_PER_BYTE = 8

#: Milliseconds per second, used when formatting delays the way the paper does.
MS_PER_S = 1000.0


def s_to_ms(seconds: float) -> float:
    """Convert a duration in seconds to milliseconds.

    The paper's figures report end-to-end delay in milliseconds, so reporting
    code uses this helper when printing series.
    """
    return float(seconds) * MS_PER_S


def bytes_to_bits(n_bytes: float) -> float:
    """Convert a frame size in bytes to bits."""
    return float(n_bytes) * BITS_PER_BYTE


def ma_to_w(milliamps: float, voltage: float = 3.0) -> float:
    """Convert a current draw (mA) at the given supply voltage to watts.

    Radio datasheets (e.g. the CC2420) specify consumption as current draw;
    energy models need power.  ``P = V * I``.
    """
    if voltage <= 0:
        raise ValueError(f"voltage must be positive, got {voltage!r}")
    return float(milliamps) / 1000.0 * float(voltage)


def require_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a strictly positive finite number.

    Returns the value unchanged so the helper can be used inline in
    constructors, e.g. ``self.rate = require_positive("rate", rate)``.
    """
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value
