"""Unit conventions and conversions.

Internally every rate and detuning is an angular frequency in rad/ns.
Configuration files and presets quote rates the way lab tables do, as
``value/2π`` in GHz (1 GHz = 1/ns), so the only conversion is a factor 2π.
Times are ns throughout, wavelengths nm.  Memory is in bytes: a run may
hold BUDGET_BYTES.
"""

import numpy as np

TWO_PI = 2.0 * np.pi
# Bytes that a run may hold: the size guard refuses a config whose estimate
# exceeds it (config.DENSE_BUDGET_BYTES), and the yield pool draws no more
# chunks at once than fit in it together
BUDGET_BYTES = 2 * 1024 ** 3


def ghz_to_angular(value_over_2pi_ghz):
    """Rate quoted as value/2π in GHz -> angular rate in rad/ns."""
    return TWO_PI * np.asarray(value_over_2pi_ghz, dtype=float)


def angular_to_ghz(value_rad_per_ns):
    """Angular rate in rad/ns -> value/2π in GHz."""
    return np.asarray(value_rad_per_ns, dtype=float) / TWO_PI
