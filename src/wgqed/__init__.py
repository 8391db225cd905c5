"""Collective emission from waveguide-coupled two-level emitters.

Simulator and analysis toolkit: dense Lindblad dynamics for N emitters
sharing a bidirectional guided mode, directional intensities and photon
correlations, detector/inhomogeneity post-processing, closed-form weak-
drive oracles, and a Monte Carlo device-yield estimator, behind a
config-driven CLI (``wgqed run|validate|list-experiments``).

``import wgqed`` imports none of its modules.  The library names below
are imported from their modules on first use (PEP 562), so that a run
loads only what its experiment uses.  No wgqed module imports scipy: the
engines and the yield Monte Carlo use numpy alone (the normal quantile
and the Poisson weights of ``scalability`` are ports of the Cephes
routines behind scipy.special), so no table depends on the installed
scipy, which the tests use only as an oracle.
"""

import importlib

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
