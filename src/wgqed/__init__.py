"""Collective emission from waveguide-coupled two-level emitters.

Simulator and analysis toolkit: dense Lindblad dynamics for N emitters
sharing a bidirectional guided mode, directional intensities and photon
correlations, detector/inhomogeneity post-processing, closed-form weak-
drive oracles, and a Monte Carlo device-yield estimator, behind a
config-driven CLI (``wgqed run|validate|list-experiments``).

``import wgqed`` loads numpy and ``scipy.special`` only.  The library
names below are imported from their modules on first use (PEP 562), so
that a yield run never loads the optics engines and their scipy modules.
"""

import importlib
import os

import numpy  # noqa: F401

# numpy and scipy each bundle an OpenBLAS with its own worker threads, and
# on the small dense products here the two pools fight over the cores.
# numpy's library, loaded above, keeps the user's thread count or its own
# default; only its count sets the last digits of the pulsed maps.  Unless
# the user set a thread variable, scipy's library (expm) loads with one
# thread.  It reads the variable once, when it loads, and scipy.special,
# the first scipy module any wgqed module imports, already loads it; so
# this changes nothing when scipy was imported before wgqed.
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS",
                                     "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                                     "OPENBLAS_DEFAULT_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import scipy.special  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
else:
    import scipy.special  # noqa: F401

__version__ = "0.1.0"

# module -> the library names it gives the package
_EXPORTS = {
    "hilbert": ("CollectiveStateSpec", "DensityState", "basis_ket",
                "collective_state", "lowering_operator", "raising_operator"),
    "model": ("DriveConfig", "EmitterParams", "LindbladGenerator",
              "PulseSpec", "WaveguideSystem", "coupling_rates",
              "effective_hamiltonian", "field_operator"),
    "dynamics": ("CorrelationMap", "PulsedG2Result", "Trajectory", "g2_cw",
                 "integrated_pulsed_g2", "propagate", "pulsed_g2_map",
                 "steady_state", "two_time_correlation"),
    "observables": ("IntensityRecord", "TransmissionPoint", "directionality",
                    "intensity", "intensity_record", "population_projection",
                    "transmission_coherent", "transmission_saturated",
                    "waveguide_drive"),
    "instrument": ("DetectorModel", "NoiseAveragingPlan", "jitter_convolve",
                   "side_peak_normalize", "spectral_diffusion_average"),
    "analytics": ("PerturbativeSteadyState", "analytic_g2_zero",
                  "analytic_intensities_single_drive", "calibration_models",
                  "g2_zero_from_populations", "interference_intensities",
                  "lifetime_irf_curve", "perturbative_steady_state",
                  "rabi_power_curve"),
    "scalability": ("ScalabilityConfig", "YieldResult", "min_feasible_spread",
                    "poisson_weights", "probabilities_per_waveguide",
                    "probability_per_chip", "probability_per_waveguide"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:    # the module itself, as in wgqed.dynamics.g2_cw
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
