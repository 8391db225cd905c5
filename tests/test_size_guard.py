"""The size guard against traced memory.

Every Lindblad experiment and transmission-scan runs on a small grid for
N = 1–4 emitters, without noise nodes and with two Monte Carlo nodes,
under tracemalloc, and is written.  Its traced peak must stay within
``config.dense_bytes`` + 1 MiB; the slack covers what the estimate leaves
out at small sizes, such as transmission-saturation's ~50 KiB of Python
objects.  tracemalloc sees numpy's arrays and Python objects, not the
buffers that OpenBLAS and LAPACK allocate for themselves.
"""

import gc
import tracemalloc

import pytest

from wgqed.config import dense_bytes, resolve_config
from wgqed.experiments import run_experiment

SLACK = 1024 ** 2
QD1 = {"gamma_ghz": 0.388, "beta": 0.95, "dephasing_ghz": 0.01,
       "spectral_diffusion_ghz": 0.30}
QD2 = {"gamma_ghz": 0.349, "beta": 0.85, "dephasing_ghz": 0.09,
       "spectral_diffusion_ghz": 0.22}
# a short pulse, so that one grid step of the pulsed maps holds it
PULSE = {"sigma_ns": 0.005, "area_over_pi": 1.0, "period_ns": 13.6}


def small_config(experiment, n, noise):
    first = [1.0] + [0.0] * (n - 1)
    data = {"experiment": experiment,
            "system": {"coupling_phase_over_pi": 0.8 if n == 2 else 0.0,
                       "emitters": ([QD1, QD2] * 2)[:n]},
            "noise": {"scheme": "monte_carlo", "samples": 2} if noise
            else {"scheme": "none"}}
    scan = {"start": -3.0, "stop": 3.0, "points": 3}
    data["grid"], drive = {
        "transmission-scan": ({"detuning1_ghz": scan, "detuning2_ghz": scan},
                              None),
        "transmission-saturation": (
            {"rabi_over_gamma": {"values": [0.1, 1.0, 10.0]}}, None),
        "lifetime": ({"t_max_ns": 0.5, "dt_ns": 0.01}, first),
        "detuning-sweep": ({"detuning2_ghz": scan, "t_max_ns": 0.5,
                            "dt_ns": 0.02, "window_ns": 0.2}, first),
        "phase-sweep": ({"theta_over_pi": {"values": [0.0, 0.5, 1.0]},
                         "integration_windows_ns": [0.1, 0.5]}, [1.0] * n),
        "g2-cw": ({"tau_max_ns": 0.5, "dt_ns": 0.01,
                   "pairs": ["LL", "RR", "LR", "RL"]}, None),
        "g2-pulsed": ({"window_ns": 0.4, "dt_ns": 0.1,
                       "pairs": ["LL", "LR"]}, [1.0] * n),
        "g2-map": ({"window_ns": 0.4, "dt_ns": 0.1, "ports": "LR"},
                   [1.0] * n),
    }[experiment]
    if experiment == "g2-cw":
        data["drive"] = {"mode": "cw", "rabi_ghz": [0.02425] + [0.0] * (n - 1)}
    elif drive is not None:
        data["drive"] = {"mode": "pulsed", "weights": drive, "pulse": PULSE}
    return data


CASES = [(experiment, n, noise)
         for experiment in ("transmission-scan", "transmission-saturation",
                            "lifetime", "detuning-sweep", "phase-sweep",
                            "g2-cw", "g2-pulsed", "g2-map")
         for n in (1, 2, 3, 4) if experiment != "detuning-sweep" or n == 2
         for noise in (False, True)]


@pytest.mark.parametrize("experiment, n, noise", CASES, ids=[
    f"{e}-N{n}-{'nodes' if noise else 'plain'}" for e, n, noise in CASES])
def test_traced_peak_within_estimate(tmp_path, experiment, n, noise):
    cfg = resolve_config(small_config(experiment, n, noise))
    gc.collect()
    tracemalloc.start()
    try:
        run_experiment(cfg).write(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dense_bytes(cfg) + SLACK
