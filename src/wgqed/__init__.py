"""Collective emission from waveguide-coupled two-level emitters.

Simulator and analysis toolkit: dense Lindblad dynamics for N emitters
sharing a bidirectional guided mode, directional intensities and photon
correlations, detector/inhomogeneity post-processing, closed-form weak-
drive oracles, and a Monte Carlo device-yield estimator, behind a
config-driven CLI (``wgqed run|validate|list-experiments``).
"""

import os

import numpy  # noqa: F401

# numpy and scipy each bundle an OpenBLAS with its own worker threads, and
# on the small dense products here the two pools fight over the cores.
# numpy's library, loaded above, keeps the user's thread count or its own
# default; only its count sets the last digits of the pulsed maps.  Unless
# the user set a thread variable, scipy's library (expm) loads with one
# thread.  It reads the variable once, when it loads, so this changes
# nothing when scipy.linalg was imported before wgqed.
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS",
                                     "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                                     "OPENBLAS_DEFAULT_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import scipy.linalg  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .hilbert import (CollectiveStateSpec, DensityState, basis_ket,
                      collective_state, lowering_operator, raising_operator)
from .model import (DriveConfig, EmitterParams, LindbladGenerator, PulseSpec,
                    WaveguideSystem, coupling_rates, effective_hamiltonian,
                    field_operator)
from .dynamics import (CorrelationMap, PulsedG2Result, Trajectory, g2_cw,
                       integrated_pulsed_g2, propagate, pulsed_g2_map,
                       steady_state, two_time_correlation)
from .observables import (IntensityRecord, TransmissionPoint, directionality,
                          intensity, intensity_record, population_projection,
                          transmission_coherent, transmission_saturated,
                          waveguide_drive)
from .instrument import (DetectorModel, NoiseAveragingPlan, jitter_convolve,
                         side_peak_normalize, spectral_diffusion_average)
from .analytics import (PerturbativeSteadyState, analytic_g2_zero,
                        analytic_intensities_single_drive, calibration_models,
                        g2_zero_from_populations, interference_intensities,
                        lifetime_irf_curve, perturbative_steady_state,
                        rabi_power_curve)
from .scalability import (ScalabilityConfig, YieldResult, min_feasible_spread,
                          poisson_weights, probabilities_per_waveguide,
                          probability_per_chip, probability_per_waveguide)

__version__ = "0.1.0"
