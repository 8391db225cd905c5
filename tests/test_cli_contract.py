"""Property test of the CLI contract over schema-valid configs.

For any schema-valid config, ``validate`` exits 0 or 2 and ``run`` exits
0, 2 or 3, with a JSON report on stderr for 2 and 3 and never a Python
traceback; ``validate`` rejects with 2 whatever ``run`` rejects with 2.
Grids, Monte Carlo runs and noise nodes are drawn tiny so that each run
takes well under a second, and ``run`` is tried for N <= 3 emitters only.
About one config in four has a NaN or infinity in one of its number
fields wherever the schema still accepts it; both commands must refuse
such a config with 2.  A second test draws long grids, spans up to 1e12 ns
and axes up to 1e12 points, for ``validate`` alone, which must exit 0 or
2 with JSON there too.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wgqed.cli import main
from wgqed.config import EXPERIMENTS, validate_config

PAIRS = ["LL", "RR", "LR", "RL"]
NON_FINITE = [math.nan, math.inf, -math.inf]
small = st.floats(0.0, 2.0, allow_nan=False)
signed = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def ranges(draw, lo=-3.0, hi=3.0):
    if draw(st.booleans()):
        return {"values": draw(st.lists(st.floats(lo, hi), min_size=1,
                                        max_size=3))}
    out = {"start": draw(st.floats(lo, hi)), "stop": draw(st.floats(lo, hi)),
           "points": draw(st.integers(1, 3))}
    if draw(st.booleans()):
        out["log"] = draw(st.booleans())
    return out


@st.composite
def emitters(draw):
    e = {"gamma_ghz": draw(st.sampled_from([0.05, 0.388, 2.0])),
         "beta": draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))}
    for key, values in (("detuning_ghz", signed),
                        ("dephasing_ghz", st.floats(0.0, 0.3)),
                        ("spectral_diffusion_ghz", st.floats(0.0, 0.3)),
                        ("fano_xi", signed)):
        if draw(st.booleans()):
            e[key] = draw(values)
    return e


@st.composite
def drives(draw, n):
    length = draw(st.sampled_from([n, n, n, n + 1]))
    d = {}
    if draw(st.booleans()):
        d["mode"] = draw(st.sampled_from(["cw", "pulsed"]))
    key = draw(st.sampled_from(["rabi_ghz", "weights", None]))
    if key is not None:
        d[key] = draw(st.lists(small, min_size=length, max_size=length))
    if draw(st.booleans()):
        d["phase_over_pi"] = draw(st.lists(signed, min_size=n, max_size=n))
    if draw(st.booleans()):
        d["pulse"] = {"sigma_ns": draw(st.sampled_from([0.005, 0.03, 0.1])),
                      "area_over_pi": draw(st.floats(0.0, 2.0)),
                      "period_ns": draw(st.sampled_from([0.5, 4.0, 13.6]))}
    return d


@st.composite
def configs(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    data = {"experiment": experiment, "seed": draw(st.integers(0, 5))}
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        data["system"] = {"emitters": draw(st.lists(emitters(), min_size=n,
                                                    max_size=n))}
        if draw(st.booleans()):
            data["system"]["coupling_phase_over_pi"] = draw(signed)
    if draw(st.booleans()):
        data["drive"] = draw(drives(len(data.get("system", {}).get(
            "emitters", [None, None]))))
    if draw(st.booleans()):
        data["noise"] = {"scheme": draw(st.sampled_from(
            ["none", "gauss_hermite", "monte_carlo"])),
            "nodes": draw(st.integers(1, 2)),
            "samples": draw(st.integers(1, 2))}
    if draw(st.booleans()):
        data["detector"] = {"irf_sigma_ns": draw(st.floats(0.0, 0.3)),
                            "bin_ns": draw(st.sampled_from([0.01, 0.5]))}
    # tiny grids: few points, short records, coarse steps
    dt = draw(st.sampled_from([0.01, 0.05, 0.2]))
    grid = {"dt_ns": dt, "tau_max_ns": draw(st.floats(0.01, 0.3)),
            "t_max_ns": draw(st.floats(0.01, 0.5)),
            "window_ns": draw(st.sampled_from([0.1, 0.4, 1.0])),
            "integration_windows_ns": draw(st.lists(signed, min_size=1,
                                                   max_size=2)),
            "pairs": draw(st.lists(st.sampled_from(PAIRS), min_size=1,
                                    max_size=3)),
            "ports": draw(st.sampled_from(PAIRS))}
    for key in ("detuning1_ghz", "detuning2_ghz", "theta_over_pi",
                "rabi_over_gamma", "delta_over_sigma"):
        grid[key] = draw(ranges())
    grid["mu_qd"] = draw(ranges(0.5, 8.0))
    data["grid"] = {k: v for k, v in grid.items() if draw(st.booleans())
                    or k in ("dt_ns", "t_max_ns", "tau_max_ns", "window_ns",
                             "detuning1_ghz", "detuning2_ghz",
                             "theta_over_pi", "rabi_over_gamma", "mu_qd",
                             "delta_over_sigma")}
    data["scalability"] = {
        "mu_qd": draw(st.floats(0.5, 8.0)),
        "sigma_qd_nm": draw(st.sampled_from([1.0, 15.0])),
        "delta_lambda_nm": draw(st.floats(0.0, 2.0)),
        "n_reg": draw(st.integers(1, 3)), "n_set": draw(st.integers(1, 3)),
        "n_wg": draw(st.integers(1, 3)), "runs": draw(st.integers(1, 40)),
        "mode": draw(st.sampled_from(["consecutive", "window_distinct",
                                      "both"]))}
    if draw(st.integers(0, 3)) == 0:
        slots = _float_slots(data)
        container, key = draw(st.sampled_from(slots))
        kept = container[key]
        container[key] = draw(st.sampled_from(NON_FINITE))
        if validate_config(data):   # e.g. beta = inf breaks its maximum
            container[key] = kept
    return data


long_spans = st.one_of(st.floats(0.01, 1e12),
                       st.sampled_from([1e3, 1e6, 1e9, 1e12]))
long_counts = st.one_of(st.integers(1, 10 ** 12),
                        st.sampled_from([10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12]))


@st.composite
def long_grids(draw):
    """A config at the default system and drive whose grid spans, pulse
    period and axis lengths may each be long."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    data = {"experiment": experiment}
    if draw(st.booleans()):
        data["noise"] = {"scheme": "gauss_hermite",
                         "nodes": draw(st.integers(1, 9))}
    if experiment in ("g2-pulsed", "g2-map") and draw(st.booleans()):
        data["drive"] = {"pulse": {"period_ns": draw(long_spans)}}
    grid = {}
    for key in ("tau_max_ns", "t_max_ns", "window_ns"):
        if draw(st.booleans()):
            grid[key] = draw(long_spans)
    if draw(st.booleans()):
        grid["dt_ns"] = draw(st.sampled_from([0.001, 0.01, 0.2]))
    if draw(st.booleans()):
        grid["integration_windows_ns"] = [0.4, draw(long_spans)]
    for key in ("detuning1_ghz", "detuning2_ghz", "theta_over_pi",
                "rabi_over_gamma", "mu_qd", "delta_over_sigma"):
        if draw(st.booleans()):
            grid[key] = {"start": 0.1, "stop": 2.0,
                         "points": draw(long_counts),
                         "log": draw(st.booleans())}
    data["grid"] = grid
    return data


def _float_slots(data):
    """(container, key) of every float in a config, in a fixed order."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    slots = []
    for key, value in items:
        if isinstance(value, float):
            slots.append((data, key))
        elif isinstance(value, (dict, list)):
            slots.extend(_float_slots(value))
    return slots


def _finite(data):
    return all(math.isfinite(c[k]) for c, k in _float_slots(data))


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _report(err, kind):
    report = json.loads(err.strip().splitlines()[-1])
    assert report["error"] == kind
    return report


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_cli_exit_codes_hold_for_schema_valid_configs(data):
    assert validate_config(data) == []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        checked, err = _call(["validate", str(path)])
        assert checked in (0, 2)
        if checked == 2:
            _report(err, "config")
        assert checked == 2 or _finite(data)
        n = len(data.get("system", {}).get("emitters", [None, None]))
        if n > 3:
            return
        code, err = _call(["run", str(path), "--out", str(Path(tmp) / "o")])
        assert code in (0, 2, 3)
        assert code == 2 or _finite(data)
        if code == 2:
            _report(err, "config")
            assert checked == 2
        elif code == 3:
            _report(err, "numerical")


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(long_grids())
def test_validate_exit_codes_hold_for_long_grids(data):
    assert validate_config(data) == []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        checked, err = _call(["validate", str(path)])
        assert checked in (0, 2)
        if checked == 2:
            _report(err, "config")


@pytest.mark.parametrize("gamma", [1e20, 1e40, 1e60, 1e120])
def test_stiff_pulse_window_exits_3_within_seconds(gamma):
    # an RK45 would need ~1e19 steps or more for stability alone in this
    # π pulse's window; the run is refused before the solve, in a fresh
    # interpreter that is killed should it run on
    data = {"experiment": "lifetime", "seed": 1,
            "system": {"emitters": [{"gamma_ghz": gamma, "beta": 0.5}]},
            "drive": {"mode": "pulsed", "weights": [1.0],
                      "pulse": {"sigma_ns": 0.03, "area_over_pi": 1.0,
                                "period_ns": 13.6}},
            "grid": {"t_max_ns": 0.2, "dt_ns": 0.004}}
    assert validate_config(data) == []
    src = Path(__file__).resolve().parent.parent / "src"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "wgqed.cli", "run", str(path), "--out",
             str(Path(tmp) / "o")], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
    assert done.returncode == 3
    assert "too stiff" in _report(done.stderr, "numerical")["message"]
    assert elapsed < 20


# JSON Schema 2020-12 counts 3.0 as an integer, but numpy's seeding,
# ranges and Gauss-Hermite nodes and Python's range() need an int: each
# such config exits 2 before it runs
FAST_YIELD = {"mu_qd": 3.0, "n_reg": 3, "n_set": 3, "n_wg": 2, "runs": 50}
INTEGRAL_FLOATS = {
    "seed": {"experiment": "lifetime", "seed": 1.0,
             "grid": {"t_max_ns": 0.2, "dt_ns": 0.02}},
    "scalability/runs": {"experiment": "scalability",
                         "scalability": {**FAST_YIELD, "runs": 50.0}},
    "scalability/n_reg": {"experiment": "scalability",
                          "scalability": {**FAST_YIELD, "n_reg": 3.0}},
    "scalability/n_wg": {"experiment": "scalability",
                         "scalability": {**FAST_YIELD, "n_wg": 2.0}},
    "grid/detuning1_ghz/points": {
        "experiment": "transmission-scan",
        "grid": {"detuning1_ghz": {"start": -1.0, "stop": 1.0,
                                   "points": 3.0},
                 "detuning2_ghz": {"values": [0.0]}}},
    "noise/nodes": {"experiment": "g2-cw",
                    "noise": {"scheme": "gauss_hermite", "nodes": 3.0},
                    "grid": {"tau_max_ns": 0.1, "dt_ns": 0.05}},
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("path", INTEGRAL_FLOATS)
def test_integral_float_in_integer_slot_exits_2(tmp_path, command, path):
    data = INTEGRAL_FLOATS[path]
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(data))
    argv = [command, str(config)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    code, err = _call(argv)
    assert code == 2
    value = data
    for key in path.split("/"):
        value = value[key]
    assert _report(err, "config")["details"] == [
        {"path": path, "message": f"{value!r} is not of type 'integer'"}]
