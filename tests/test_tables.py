"""Tables built from engine arrays: one strict column zip, rows in the
order the benchmark's corruptions assume (perfbench/selftest.py)."""

import numpy as np
import pytest

from wgqed.config import resolve_config, scalability_config, trace_times
from wgqed.dynamics import intensity_traces, pulsed_g2_map
from wgqed.experiments import (_table, run_detuning_sweep, run_g2_map,
                               run_lifetime)
from wgqed.instrument import jitter_convolve
from wgqed.units import ghz_to_angular


class TestTable:
    def test_rows_zip_the_columns(self):
        names, rows = _table(["a", "b"], np.arange(3.0), ["x", "y", "z"])
        assert names == ["a", "b"]
        assert rows == [(0.0, "x"), (1.0, "y"), (2.0, "z")]

    @pytest.mark.parametrize("short", [0, 1])
    def test_refuses_columns_of_unequal_length(self, short):
        columns = [np.arange(4.0), np.arange(4.0)]
        columns[short] = columns[short][:3]
        with pytest.raises(ValueError, match="zip"):
            _table(["a", "b"], *columns)

    def test_refuses_a_name_count_off_the_columns(self):
        with pytest.raises(ValueError, match="3 column names"):
            _table(["a", "b", "c"], [1.0], [2.0])


def test_g2_map_rows_run_t1_outer_t2_inner():
    cfg = resolve_config({"experiment": "g2-map",
                          "grid": {"window_ns": 0.2, "dt_ns": 0.05}})
    res = pulsed_g2_map(cfg.system, cfg.drive, ports="LL", window=0.2,
                        dt=0.05)
    t, same, diff = res.t, res.same.values, res.different.values
    same_irf = jitter_convolve(t, same, cfg.detector, axes=(0, 1))
    diff_irf = jitter_convolve(t, diff, cfg.detector, axes=(0, 1))
    expected = []
    for i in range(len(t)):
        for j in range(len(t)):
            expected.append((t[i], t[j], same[i, j], diff[i, j],
                             same_irf[i, j], diff_irf[i, j]))
    names, rows = run_g2_map(cfg).tables["map"]
    assert names == ["t1_ns", "t2_ns", "G2_same", "G2_different",
                     "G2_same_irf", "G2_different_irf"]
    assert rows == expected


def test_detuning_sweep_rows_run_detuning_outer_time_inner():
    deltas = [-2.0, 0.0, 1.5]
    cfg = resolve_config({
        "experiment": "detuning-sweep",
        "grid": {"detuning2_ghz": {"values": deltas}, "t_max_ns": 0.5,
                 "dt_ns": 0.05, "window_ns": 0.3}})
    t = trace_times(cfg)
    systems = [cfg.system.with_detuning_offsets(
        np.array([0.0, ghz_to_angular(d)])) for d in deltas]
    expected = []
    for delta, rec in zip(deltas, intensity_traces(
            systems, [cfg.drive] * len(systems), t)):
        il, ir = rec["left"], rec["right"]
        ili = jitter_convolve(t, il, cfg.detector)
        iri = jitter_convolve(t, ir, cfg.detector)
        for k in range(len(t)):
            expected.append((delta, t[k], il[k], ir[k], ili[k], iri[k]))
    names, rows = run_detuning_sweep(cfg).tables["time_resolved"]
    assert names[:2] == ["detuning2_ghz", "t_ns"]
    assert rows == expected


def test_lifetime_irf_wider_than_the_grid_stays_on_it():
    # a 2 ns IRF needs a kernel of 6001 points on the 2001-point grid
    cfg = resolve_config({"experiment": "lifetime",
                          "detector": {"irf_sigma_ns": 2.0}})
    names, rows = run_lifetime(cfg).tables["lifetime"]
    cols = dict(zip(names, np.array(rows).T))
    t = trace_times(cfg)
    assert len(rows) == len(t)
    peak = np.argmax(cols["intensity_left_irf"])
    assert 0 < peak < len(t) - 1
    # the mass beyond the grid is dropped, none is added
    assert 0 < np.trapezoid(cols["intensity_left_irf"], t) \
        < np.trapezoid(cols["intensity_left"], t)


@pytest.mark.parametrize("experiment, mode, runs", [
    ("scalability", "both", 200_000),
    ("scalability-heatmap", "consecutive", 20_000)])
def test_scalability_section_filled_in_at_resolution(experiment, mode, runs):
    cfg = resolve_config({"experiment": experiment})
    assert cfg.scalability == {
        "mu_qd": 35.0, "sigma_qd_nm": 15.0, "delta_lambda_nm": 0.15,
        "n_reg": 3, "n_set": 3, "n_wg": 100, "mode": mode, "runs": runs}
    given = resolve_config({"experiment": experiment,
                            "scalability": {"runs": 7, "n_wg": 2}})
    sc = scalability_config(given, mode="window_distinct")
    assert (sc.runs, sc.n_wg, sc.mu_qd) == (7, 2, 35.0)
    assert given.raw == {"experiment": experiment,
                         "scalability": {"runs": 7, "n_wg": 2}}
