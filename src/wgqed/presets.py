"""Measured device parameters used as defaults across experiments.

Two InGaAs quantum dots in opposite halves of a trenched photonic crystal
waveguide, characterized individually (rates quoted as value/2π in GHz and
converted to angular rad/ns here): total decay rates 0.388 and 0.349 GHz,
guided-mode couplings β = 0.95 and 0.85, spectral diffusion 0.30 and
0.22 GHz, pure dephasing 0.01 and 0.09 GHz, coupling phase φ = 0.8π, and a
detector IRF of σ = 188 ps.
"""

import numpy as np

from .instrument import DetectorModel
from .model import EmitterParams, WaveguideSystem
from .units import ghz_to_angular

COUPLING_PHASE = 0.8 * np.pi
IRF_SIGMA_NS = 0.188


def qd1(detuning=0.0):
    return EmitterParams(
        gamma_total=ghz_to_angular(0.388),
        beta=0.95,
        detuning=detuning,
        dephasing=ghz_to_angular(0.01),
        spectral_diffusion_sigma=ghz_to_angular(0.30),
        permanent_dipole=0.50,
        fano_xi=0.0,
    )


def qd2(detuning=0.0):
    return EmitterParams(
        gamma_total=ghz_to_angular(0.349),
        beta=0.85,
        detuning=detuning,
        dephasing=ghz_to_angular(0.09),
        spectral_diffusion_sigma=ghz_to_angular(0.22),
        permanent_dipole=0.54,
        fano_xi=0.1,
    )


def qd_pair(detunings=(0.0, 0.0), phi=COUPLING_PHASE):
    """The characterized emitter pair as a WaveguideSystem."""
    return WaveguideSystem((qd1(detunings[0]), qd2(detunings[1])), phi)


def detector():
    return DetectorModel(irf_sigma=IRF_SIGMA_NS, bin_width=0.01)

