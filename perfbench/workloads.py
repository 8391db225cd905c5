"""The benchmark's workloads: which configs each one runs.

A workload is an ordered list of config files.  Every one is loaded,
given the run's seed the way ``wgqed run --seed`` does, resolved, run and
written.  ``optics-n2`` runs the example configs of the repository as
they are; the other two workloads write their configs, sized for a
two-core machine, into the run's output directory.
"""

from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

OPTICS_N2 = ("transmission-scan", "transmission-saturation", "lifetime",
             "phase-sweep", "detuning-sweep", "g2-cw", "g2-pulsed", "g2-map")

# the measured emitter pair of configs/ (presets.qd1, presets.qd2), repeated
QD1 = {"gamma_ghz": 0.388, "beta": 0.95, "dephasing_ghz": 0.01,
        "spectral_diffusion_ghz": 0.30}
QD2 = {"gamma_ghz": 0.349, "beta": 0.85, "dephasing_ghz": 0.09,
        "spectral_diffusion_ghz": 0.22}
# phase 0 is the only coupling phase a config can give N >= 3
_SYSTEM_N4 = {"coupling_phase_over_pi": 0.0,
              "emitters": [QD1, QD2, QD1, QD2]}
_PULSE = {"sigma_ns": 0.03, "area_over_pi": 1.0, "period_ns": 13.6}

OPTICS_N4 = {
    "g2-cw": {
        "experiment": "g2-cw", "system": _SYSTEM_N4,
        "drive": {"mode": "cw", "rabi_ghz": [0.02425, 0.0, 0.0, 0.0]},
        "grid": {"tau_max_ns": 6.0, "dt_ns": 0.005,
                 "pairs": ["LL", "RR", "LR", "RL"]}},
    "g2-pulsed": {
        "experiment": "g2-pulsed", "system": _SYSTEM_N4,
        "drive": {"mode": "pulsed", "weights": [1.0, 1.0, 0.0, 0.0],
                  "pulse": _PULSE},
        "grid": {"window_ns": 2.0, "dt_ns": 0.02, "pairs": ["LL", "RR"]}},
    "phase-sweep": {
        "experiment": "phase-sweep", "system": _SYSTEM_N4,
        "drive": {"mode": "pulsed", "weights": [1.0, 1.0, 1.0, 1.0],
                  "pulse": {"sigma_ns": 0.005, "area_over_pi": 0.05,
                            "period_ns": 13.6}},
        "grid": {"theta_over_pi": {"start": 0.0, "stop": 2.0, "points": 9},
                 "integration_windows_ns": [0.4, 3.0]}},
    "transmission-scan": {
        "experiment": "transmission-scan", "system": _SYSTEM_N4,
        "noise": {"scheme": "gauss_hermite", "nodes": 3},
        "grid": {"detuning1_ghz": {"start": -6.0, "stop": 6.0, "points": 11},
                 "detuning2_ghz": {"start": -6.0, "stop": 6.0,
                                   "points": 11}}},
}

# the published point, and a mu x delta_lambda/sigma heatmap
YIELD = {
    "scalability": {
        "experiment": "scalability",
        "scalability": {"mu_qd": 35.0, "sigma_qd_nm": 15.0,
                        "delta_lambda_nm": 0.15, "n_reg": 3, "n_set": 3,
                        "n_wg": 100, "runs": 20000, "mode": "both"}},
    "scalability-heatmap": {
        "experiment": "scalability-heatmap",
        "scalability": {"n_reg": 3, "n_set": 3, "n_wg": 100, "runs": 4000,
                        "mode": "consecutive"},
        "grid": {"mu_qd": {"values": [10, 35]},
                 "delta_over_sigma": {"start": 0.01, "stop": 1.0,
                                      "points": 3, "log": True}}},
}

WORKLOADS = ("optics-n2", "optics-n4", "yield")


def config_paths(workload):
    """Config files of a workload, in run order; writes generated ones."""
    if workload == "optics-n2":
        return [ROOT / "configs" / f"{name}.yaml" for name in OPTICS_N2]
    generated = {"optics-n4": OPTICS_N4, "yield": YIELD}[workload]
    folder = OUT / workload / "configs"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data in generated.items():
        path = folder / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        paths.append(path)
    return paths
