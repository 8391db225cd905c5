"""Coupling-phase regimes of the CW intensity correlations.

Checks the simulated phase dependence for a weakly driven left emitter
with the right one resonant but undriven (identical emitters,
beta = 0.95, gamma_d/2pi = 0.01 GHz, Omega_1/2pi = 1/16 GHz,
Gamma/2pi = 1 GHz): purely dissipative coupling shows no directionality;
a dispersive component antibunches the driven side, bunches the other,
and antibunches the cross-port correlations.
"""

import numpy as np
import pytest

from wgqed.dynamics import _clip_correlations, g2_cw
from wgqed.model import DriveConfig, EmitterParams, WaveguideSystem
from wgqed.units import ghz_to_angular

GAMMA = ghz_to_angular(1.0)
OMEGA = ghz_to_angular(1.0 / 16.0)
DEPH = ghz_to_angular(0.01)


def correlations(phi, pairs=("LL", "RR", "LR"), scale=1.0):
    """g2_cw with every rate times ``scale`` and the delays over it."""
    e = EmitterParams(scale * GAMMA, 0.95, dephasing=scale * DEPH)
    sys = WaveguideSystem((e, e), phi)
    drive = DriveConfig((scale * OMEGA, 0.0), (0.0, 0.0), "cw")
    return g2_cw(sys, drive, pairs=pairs, tau_max=3.0 / scale,
                 dt=0.01 / scale)


def test_dissipative_coupling_has_no_directionality():
    out = correlations(np.pi)
    np.testing.assert_allclose(out["g2"]["LL"], out["g2"]["RR"], atol=1e-10)
    assert out["intensity"]["L"] == pytest.approx(out["intensity"]["R"],
                                                  rel=1e-9)


def test_dispersive_coupling_splits_the_ports():
    out = correlations(np.pi / 2)
    assert out["g2"]["LL"][0] < 0.5          # driven side antibunched
    assert out["g2"]["RR"][0] > 2.0          # undriven side strongly bunched
    assert out["g2"]["LR"][0] < 0.5          # cross-port antibunched


def test_directionality_grows_with_dispersive_component():
    contrast = []
    for phi in (np.pi, 0.9 * np.pi, 0.75 * np.pi, 0.5 * np.pi):
        out = correlations(phi, pairs=("LL", "RR"))
        contrast.append(out["g2"]["RR"][0] - out["g2"]["LL"][0])
    assert contrast[0] == pytest.approx(0.0, abs=1e-10)
    assert all(b > a for a, b in zip(contrast, contrast[1:]))


def test_driven_side_oscillations_from_level_splitting():
    # the dispersive splitting 2|J12| shows up as oscillations in the
    # delay dependence on the driven side
    out = correlations(0.5 * np.pi, pairs=("LL",))
    g = out["g2"]["LL"]
    tau = out["tau"]
    rising = g[np.searchsorted(tau, 0.8)]
    assert g.max() > 1.02 * rising or np.any(np.diff(g) < 0)


def test_clip_count_does_not_depend_on_the_rates():
    # at 1e-3 of the rates G2 is 1e-6 of itself; the cross-port curve
    # reaches zero, and lowered by 1e-9 of its peak it dips below the clip
    # tolerance at the same delays at either scale
    counts, g2 = [], []
    for scale in (1.0, 1e-3):
        out = correlations(np.pi / 2, pairs=("LR",), scale=scale)
        g = out["G2"]["LR"]
        with pytest.warns(RuntimeWarning, match="clipped"):
            res = _clip_correlations(out["tau"], g - 1e-9 * g.max())
        counts.append(res.clipped)
        g2.append(out["g2"]["LR"])
    assert counts[0] == counts[1] > 0
    np.testing.assert_allclose(g2[1], g2[0], rtol=1e-6, atol=1e-9)
