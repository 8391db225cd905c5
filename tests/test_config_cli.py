import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from wgqed import cli, config, dynamics, model, scalability
from wgqed.cli import main
from wgqed.config import (DENSE_BUDGET_BYTES, dense_bytes, expand_range,
                          load_config, resolve_config, validate_config)
from wgqed.errors import ConfigError
from wgqed.experiments import run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_yaml(tmp_path, data, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return p


def refuse_builds(monkeypatch, refuse):
    """Make every Lindblad generator or superoperator stack build call
    ``refuse``: the one-member view and the stack build, under each name
    by which the package calls it."""
    monkeypatch.setattr(model.LindbladGenerator, "__init__", refuse)
    monkeypatch.setattr(model, "superoperators", refuse)
    monkeypatch.setattr(dynamics, "superoperators", refuse)


# grids whose time axis, delays, maps or table rows alone would not fit
LONG_GRIDS = [
    {"experiment": "lifetime", "grid": {"t_max_ns": 1.0e9, "dt_ns": 0.004}},
    {"experiment": "g2-cw", "grid": {"tau_max_ns": 1.0e9}},
    {"experiment": "g2-map", "drive": {"pulse": {"period_ns": 1.0e6}},
     "grid": {"window_ns": 1.0e5}},
    {"experiment": "phase-sweep",
     "grid": {"theta_over_pi": {"start": 0, "stop": 2, "points": 10 ** 12}}},
]

FAST_LIFETIME = {
    "experiment": "lifetime",
    "seed": 3,
    "drive": {"mode": "pulsed", "weights": [1.0, 0.0],
              "pulse": {"sigma_ns": 0.03, "area_over_pi": 1.0,
                        "period_ns": 13.6}},
    "grid": {"t_max_ns": 2.0, "dt_ns": 0.02},
}


class TestConfigValidation:
    def test_examples_validate(self):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            data = load_config(path)
            assert validate_config(data) == [], path.name
            resolve_config(data)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_loader_gives_pure_python_data(self, path):
        # load_config parses with libyaml where PyYAML has it
        with open(path) as fh:
            assert load_config(path) == yaml.load(fh, Loader=yaml.SafeLoader)

    def test_unknown_key_rejected(self):
        errors = validate_config({"experiment": "lifetime", "bogus": 1})
        assert any("bogus" in e["message"] for e in errors)

    def test_unknown_experiment_rejected(self):
        assert validate_config({"experiment": "nope"})

    def test_weights_invalid_for_cw(self, tmp_path):
        data = {"experiment": "g2-cw",
                "drive": {"mode": "cw", "weights": [1.0, 0.0]}}
        with pytest.raises(ConfigError, match="weights"):
            resolve_config(data)

    def test_range_expansion(self):
        np.testing.assert_allclose(
            expand_range({"start": 0.0, "stop": 1.0, "points": 3}),
            [0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            expand_range({"values": [3.0, 1.0]}), [3.0, 1.0])
        log = expand_range({"start": 0.01, "stop": 1.0, "points": 3,
                            "log": True})
        np.testing.assert_allclose(log, [0.01, 0.1, 1.0])

    def test_default_system_is_device_pair(self):
        cfg = resolve_config({"experiment": "g2-cw"})
        assert cfg.system.n == 2
        assert cfg.system.emitters[0].beta == 0.95
        # default drive: weak CW on emitter 1 only
        assert cfg.drive.rabi_amplitude[1] == 0.0
        assert cfg.drive.rabi_amplitude[0] > 0


class TestCLI:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "scalability" in out and "g2-cw" in out

    def test_validate_ok(self, tmp_path, capsys):
        p = write_yaml(tmp_path, FAST_LIFETIME)
        assert main(["validate", str(p)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_exit_2(self, tmp_path, capsys):
        p = write_yaml(tmp_path, {"experiment": "lifetime", "junk": True})
        assert main(["validate", str(p)]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config"

    def test_missing_file_exit_2(self, capsys):
        assert main(["validate", "/nonexistent/x.yaml"]) == 2

    def test_invalid_yaml_exit_2(self, tmp_path, capsys):
        p = tmp_path / "broken.yaml"
        p.write_text("experiment: [lifetime\nseed: 1\n")
        assert main(["validate", str(p)]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config"
        assert report["message"].startswith(f"invalid YAML in {p}: ")

    def test_run_writes_tables_and_metadata(self, tmp_path, capsys):
        p = write_yaml(tmp_path, FAST_LIFETIME)
        out = tmp_path / "results"
        assert main(["run", str(p), "--out", str(out)]) == 0
        csv = out / "lifetime" / "lifetime.csv"
        meta = out / "lifetime" / "metadata.json"
        assert csv.exists() and meta.exists()
        head = csv.read_text().splitlines()
        assert head[0].startswith("# wgqed")
        assert head[4].split(",")[0] == "t_ns"
        md = json.loads(meta.read_text())
        assert md["seed"] == 3
        assert md["config"]["experiment"] == "lifetime"

    def test_byte_identical_reruns_and_thread_invariance(self, tmp_path):
        p = write_yaml(tmp_path, {
            "experiment": "transmission-scan", "seed": 9,
            "noise": {"scheme": "gauss_hermite", "nodes": 5},
            "grid": {"detuning1_ghz": {"start": -2.0, "stop": 2.0,
                                       "points": 7},
                     "detuning2_ghz": {"start": -2.0, "stop": 2.0,
                                       "points": 7}}})
        outs = []
        for i, threads in enumerate(("1", "1", "4")):
            out = tmp_path / f"r{i}"
            assert main(["run", str(p), "--out", str(out),
                         "--threads", threads]) == 0
            outs.append(
                (out / "transmission-scan" / "transmission.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed_override(self, tmp_path):
        p = write_yaml(tmp_path, FAST_LIFETIME)
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out), "--seed", "77"]) == 0
        md = json.loads((out / "lifetime" / "metadata.json").read_text())
        assert md["seed"] == 77

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # undriven lossless dephasing-free pair at phi=0 has a degenerate
        # steady state: the g2-cw pipeline must fail with exit code 3
        data = {
            "experiment": "g2-cw",
            "system": {"coupling_phase_over_pi": 0.0, "emitters": [
                {"gamma_ghz": 0.388, "beta": 1.0},
                {"gamma_ghz": 0.388, "beta": 1.0}]},
            "drive": {"mode": "cw", "rabi_ghz": [0.0, 0.0]},
            "grid": {"tau_max_ns": 1.0, "dt_ns": 0.05, "pairs": ["LL"]},
        }
        p = write_yaml(tmp_path, data)
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "numerical"

    @pytest.mark.parametrize("data", [
        {"experiment": "g2-pulsed",
         "drive": {"mode": "pulsed", "pulse": {"period_ns": 2.0}}},
        {"experiment": "g2-cw",
         "system": {"coupling_phase_over_pi": 0.8, "emitters": [
             {"gamma_ghz": 0.388, "beta": 0.95}] * 3}},
        {"experiment": "scalability",
         "scalability": {"n_set": 3, "n_reg": 2}},
        {"experiment": "transmission-saturation",
         "system": {"emitters": [{"gamma_ghz": 0.388, "beta": 0.0},
                                 {"gamma_ghz": 0.388, "beta": 0.95}]},
         "grid": {"rabi_over_gamma": {"values": [1.0]}}},
        {"experiment": "transmission-saturation",
         "grid": {"rabi_over_gamma": {"values": [-1.0]}}},
        {"experiment": "detuning-sweep",
         "system": {"emitters": [{"gamma_ghz": 0.388, "beta": 0.95}]}},
        {"experiment": "transmission-saturation",
         "grid": {"rabi_over_gamma": {"values": [1e-200]}}},
        {"experiment": "lifetime",
         "drive": {"mode": "cw", "rabi_ghz": [0.1, 0.0]}},
        {"experiment": "g2-cw", "drive": {"mode": "pulsed"}},
        {"experiment": "lifetime", "grid": {"t_max_ns": 0.01, "dt_ns": 0.05}},
        {"experiment": "g2-map", "grid": {"window_ns": 14.0, "dt_ns": 2.0}},
        {"experiment": "phase-sweep",
         "grid": {"integration_windows_ns": [0.4, 0.001]}},
        {"experiment": "phase-sweep",
         "grid": {"theta_over_pi": {"start": 0.0, "stop": 1.0, "points": 3,
                                    "log": True}}},
        {"experiment": "phase-sweep",
         "grid": {"theta_over_pi": {"start": -1.0, "stop": 2.0, "points": 3,
                                    "log": True}}},
        {"experiment": "phase-sweep",
         "grid": {"theta_over_pi": {"values": [float("nan")]},
                  "dt_ns": 0.05}},
        {"experiment": "lifetime", "grid": {"t_max_ns": float("inf")}},
        {"experiment": "g2-cw", "system": {"emitters": [
            {"gamma_ghz": float("nan"), "beta": 0.95},
            {"gamma_ghz": 0.349, "beta": 0.85}]}},
        {"experiment": "scalability",
         "scalability": {"mu_qd": float("inf"), "runs": 10}},
    ] + LONG_GRIDS, ids=[
        "short-period", "phase-n3", "n-set-above-n-reg", "saturation-beta-0",
        "saturation-negative-grid", "sweep-one-emitter",
        "saturation-power-underflow", "lifetime-cw-drive",
        "g2-cw-pulsed-drive", "span-below-step", "window-above-period",
        "integration-window-below-step", "log-axis-through-zero",
        "log-axis-across-zero", "nan-grid-value", "inf-span", "nan-rate",
        "inf-density", "long-lifetime-span", "long-g2-cw-delay",
        "long-g2-map-window", "huge-theta-axis"])
    def test_physics_rule_violation_exit_2(self, tmp_path, capsys,
                                           monkeypatch, data):
        def refuse(*args, **kwargs):
            raise AssertionError("generator, axis or experiment built")

        refuse_builds(monkeypatch, refuse)
        monkeypatch.setattr(cli, "run_experiment", refuse)
        if data in LONG_GRIDS:
            monkeypatch.setattr(config, "expand_range", refuse)
        p = write_yaml(tmp_path, data)
        for argv in (["validate", str(p)],
                     ["run", str(p), "--out", str(tmp_path / "x")]):
            assert main(argv) == 2
            report = json.loads(capsys.readouterr().err)
            assert report["error"] == "config"
            assert data not in LONG_GRIDS or "GiB budget" in report["message"]

    def test_non_finite_numbers_named_in_report(self):
        data = {"experiment": "phase-sweep",
                "drive": {"phase_over_pi": [0.0, float("-inf")]},
                "grid": {"theta_over_pi": {"values": [0.5, float("nan")]}}}
        assert validate_config(data) == []
        with pytest.raises(ConfigError, match="non-finite") as err:
            resolve_config(data)
        assert [d["path"] for d in err.value.details] == [
            "drive/phase_over_pi/1", "grid/theta_over_pi/values/1"]

    def test_console_entrypoint(self):
        # the package need not be installed: run the source tree's copy
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "wgqed.cli", "list-experiments"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "transmission-scan" in proc.stdout


def collinear(n):
    return {"coupling_phase_over_pi": 0.0,
            "emitters": [{"gamma_ghz": 0.388, "beta": 0.95}] * n}


class TestDenseSizeGuard:
    @pytest.mark.parametrize("experiment", [
        "transmission-saturation", "lifetime", "phase-sweep", "g2-cw",
        "g2-pulsed", "g2-map"])
    def test_seven_emitters_exit_2_before_allocating(
            self, tmp_path, capsys, monkeypatch, experiment):
        def refuse(*args, **kwargs):
            raise AssertionError("dense generator built")

        refuse_builds(monkeypatch, refuse)
        p = write_yaml(tmp_path, {"experiment": experiment,
                                  "system": collinear(7)})
        for argv in (["validate", str(p)],
                     ["run", str(p), "--out", str(tmp_path / "x")]):
            assert main(argv) == 2
            report = json.loads(capsys.readouterr().err)
            assert report["error"] == "config"
            assert "GiB budget" in report["message"]

    def test_estimate_counts_superoperators(self):
        # N = 7: one 16384² complex superoperator alone is 4 GiB
        cfg = resolve_config({"experiment": "transmission-scan",
                              "system": collinear(7)})
        cfg.experiment = "g2-cw"
        cfg.drive = model.DriveConfig.off(7)
        cfg.grid = {"tau_max_ns": 6.0, "dt_ns": 0.005, "pairs": ["LL", "RR"]}
        # 1201 delays: a table of 2401 rows and 5 columns, and the readout,
        # G2 and g2 for one node and two pairs; the static generator, one
        # node's stack superoperators and its exponential's work
        grid = config.table_bytes(2401, 5) + 3 * 8 * 1201 * 2
        count = 1 + dynamics.STACK_SUPEROPERATORS + dynamics.EXPM_WORK
        assert dense_bytes(cfg) == 16 * 16 ** 7 * count + grid
        assert 16 * 16 ** 7 > DENSE_BUDGET_BYTES
        small = resolve_config({"experiment": "g2-map",
                                "system": collinear(4)})
        assert 0 < dense_bytes(small) < DENSE_BUDGET_BYTES

    def test_stacked_noise_nodes_counted_one_chunk(self):
        # 4 emitters with spread, 9 nodes each: 6561 stacked nodes would
        # hold 6·6561 superoperators of 1 MiB; one chunk stays small
        emitter = {"gamma_ghz": 0.388, "beta": 0.95,
                   "spectral_diffusion_ghz": 0.3}
        cfg = resolve_config({
            "experiment": "g2-cw",
            "system": {"coupling_phase_over_pi": 0.0,
                       "emitters": [emitter] * 4},
            "drive": {"mode": "cw", "rabi_ghz": [0.02, 0.0, 0.0, 0.0]},
            "noise": {"scheme": "gauss_hermite", "nodes": 9}})
        superop = 16 * 16 ** 4
        assert 6 * 9 ** 4 * superop > DENSE_BUDGET_BYTES
        chunk = dynamics.stack_chunk(16, 1201, 8 * 4)
        assert 1 < chunk < 9 ** 4
        # 1201 delays: a table of 2401 rows and 9 columns, and the readout,
        # G2 and g2 for one chunk of nodes and four pairs
        grid = config.table_bytes(2401, 9) + 3 * 8 * 1201 * chunk * 4
        assert dense_bytes(cfg) == superop * (
            2 + dynamics.STACK_SUPEROPERATORS * chunk + dynamics.EXPM_WORK) \
            + grid
        assert dense_bytes(cfg) < DENSE_BUDGET_BYTES

    def test_twelve_emitter_transmission_scan_resolves(self):
        # the batched resolvent: one 12×12 complex matrix per grid point,
        # and a table of 3 columns with one row per grid point
        cfg = resolve_config({"experiment": "transmission-scan",
                              "system": collinear(12)})
        assert dense_bytes(cfg) == 16 * 12 ** 2 * 41 * 41 \
            + config.table_bytes(41 * 41, 3)
        assert dense_bytes(cfg) < DENSE_BUDGET_BYTES

    def test_transmission_scan_resolvent_over_budget_exit_2(
            self, tmp_path, capsys):
        # 16·12²·P bytes of resolvents and a table of P rows and 3 columns:
        # P = 883 346 is the first above 2 GiB
        def scan(points):
            return {"experiment": "transmission-scan",
                    "system": collinear(12),
                    "grid": {"detuning1_ghz": {"start": -6.0, "stop": 6.0,
                                               "points": points},
                             "detuning2_ghz": {"values": [0.0]}}}

        def need(points):
            return 16 * 144 * points + config.table_bytes(points, 3)

        assert need(883345) <= DENSE_BUDGET_BYTES < need(883346)
        assert main(["validate", str(write_yaml(tmp_path, scan(883345)))]) \
            == 0
        p = write_yaml(tmp_path, scan(883346))
        assert main(["validate", str(p)]) == 2
        capsys.readouterr()
        assert main(["run", str(p), "--out", str(tmp_path / "x")]) == 2
        report = json.loads(capsys.readouterr().err)
        assert "GiB budget" in report["message"]

    @pytest.mark.parametrize("experiment, n, noise, members, times", [
        ("phase-sweep", 3, None, 41, 1225),
        ("detuning-sweep", 2, {"scheme": "gauss_hermite", "nodes": 5},
         31 * 25, 251),
        ("lifetime", 2, {"scheme": "monte_carlo", "samples": 500}, 500,
         2001)])
    def test_stacked_traces_counted_one_chunk(
            self, tmp_path, capsys, monkeypatch, experiment, n, noise,
            members, times):
        # the θ points, (Δ₂, node) pairs or nodes of one stack, with
        # one chunk's readouts (the trace and two intensities per time), its
        # pulse-window solve on one column per member, and the (rows,
        # columns) of the tables; phase-sweep halves its step so
        # that its 41 θ points need two chunks
        tables = {"phase-sweep": [(41, 6)],
                  "detuning-sweep": [(31 * 251, 6), (31, 3)],
                  "lifetime": [(2001, 5)]}[experiment]
        emitter = {"gamma_ghz": 0.388, "beta": 0.95,
                   "spectral_diffusion_ghz": 0.3}
        data = {"experiment": experiment,
                "system": {"coupling_phase_over_pi": 0.0,
                           "emitters": [emitter] * n}}
        if noise:
            data["noise"] = noise
        if experiment == "phase-sweep":
            data["grid"] = {"dt_ns": 0.0025}
        cfg = resolve_config(data)
        driven = sum(w != 0 for w in cfg.drive.rabi_amplitude)
        chunk = dynamics.stack_chunk(2 ** n, times, 8 * 3)
        assert 1 < chunk < members
        need = 16 * 16 ** n * (1 + driven + dynamics.STACK_SUPEROPERATORS
                               * chunk + dynamics.EXPM_WORK) \
            + 16 * dynamics.RK45_WORK * 4 ** n * chunk \
            + 8 * 3 * chunk * times \
            + sum(config.table_bytes(rows, cols) for rows, cols in tables)
        assert dense_bytes(cfg) == need

        def refuse(*args, **kwargs):
            raise AssertionError("dense generator built")

        refuse_builds(monkeypatch, refuse)
        p = write_yaml(tmp_path, data)
        monkeypatch.setattr(config, "DENSE_BUDGET_BYTES", need)
        assert main(["validate", str(p)]) == 0
        monkeypatch.setattr(config, "DENSE_BUDGET_BYTES", need - 1)
        capsys.readouterr()
        for argv in (["validate", str(p)],
                     ["run", str(p), "--out", str(tmp_path / "x")]):
            assert main(argv) == 2
            assert "GiB budget" in json.loads(
                capsys.readouterr().err)["message"]


# small grids of every experiment, and g2-cw delay spans that are not a
# whole number of steps (the τ grid runs through tau_max + dt/2)
SMALL_GRIDS = [
    {"experiment": "g2-cw", "grid": {"tau_max_ns": 0.13, "dt_ns": 0.02}},
    {"experiment": "g2-cw", "grid": {"tau_max_ns": 0.03, "dt_ns": 0.02}},
    {"experiment": "g2-cw", "grid": {"tau_max_ns": 0.1, "dt_ns": 0.02,
                                     "pairs": ["LR"]}},
    {"experiment": "transmission-scan",
     "grid": {"detuning1_ghz": {"start": -1.0, "stop": 1.0, "points": 3},
              "detuning2_ghz": {"values": [0.0, 0.5]}}},
    {"experiment": "transmission-saturation",
     "grid": {"rabi_over_gamma": {"values": [0.1, 1.0]}}},
    {"experiment": "lifetime", "grid": {"t_max_ns": 0.5, "dt_ns": 0.03}},
    {"experiment": "phase-sweep",
     "grid": {"theta_over_pi": {"values": [0.0, 1.0]}, "dt_ns": 0.05,
              "integration_windows_ns": [0.1]}},
    {"experiment": "detuning-sweep",
     "grid": {"detuning2_ghz": {"values": [0.0, 1.0]}, "t_max_ns": 0.5,
              "dt_ns": 0.05, "window_ns": 0.2}},
    {"experiment": "g2-pulsed", "grid": {"window_ns": 0.3, "dt_ns": 0.03,
                                         "pairs": ["LL", "LR"]}},
    {"experiment": "g2-map", "grid": {"window_ns": 0.13, "dt_ns": 0.02}},
    {"experiment": "scalability", "scalability": {"runs": 50}},
    {"experiment": "scalability-heatmap", "scalability": {"runs": 50},
     "grid": {"mu_qd": {"values": [5.0]},
              "delta_over_sigma": {"values": [0.01, 0.1]}}},
]


@pytest.mark.parametrize("data", SMALL_GRIDS, ids=lambda d: d["experiment"])
def test_guard_counts_the_tables_an_experiment_builds(data):
    # dense_bytes counts each table from its (rows, columns) in _tables
    cfg = resolve_config(data)
    built = [(len(rows), len(names))
             for names, rows in run_experiment(cfg).tables.values()]
    assert config._tables(cfg) == built


class TestYieldSizeGuard:
    """The yield experiments count one chunk of Monte Carlo samples at the
    largest N of the largest mu_qd's Poisson support; the thread pool runs
    no more chunks at once than fit the budget together."""

    @pytest.mark.parametrize("name", ["scalability", "scalability-heatmap"])
    def test_examples_count_one_chunk(self, name):
        cfg = resolve_config(load_config(CONFIG_DIR / f"{name}.yaml"))
        mu = max(expand_range(cfg.grid["mu_qd"])) \
            if name == "scalability-heatmap" else cfg.scalability["mu_qd"]
        n_max = scalability.poisson_weights(float(mu))[-1][0]
        tables = sum(config.table_bytes(rows, cols)
                     for rows, cols in config._tables(cfg))
        assert dense_bytes(cfg) == tables + scalability.chunk_bytes(
            n_max, cfg.scalability["runs"])

    @pytest.mark.parametrize("data", [
        {"experiment": "scalability", "scalability": {"mu_qd": 8000}},
        {"experiment": "scalability-heatmap",
         "scalability": {"runs": 200_000},
         "grid": {"mu_qd": {"values": [5.0, 8000.0]}}},
        {"experiment": "scalability-heatmap",
         "scalability": {"runs": 200_000},
         "grid": {"mu_qd": {"start": 5.0, "stop": 8000.0, "points": 2,
                            "log": True}}},
        # Poisson support beyond N = 100 000
        {"experiment": "scalability",
         "scalability": {"mu_qd": 1.0e6, "runs": 1}}])
    def test_large_mu_exit_2_before_drawing(self, tmp_path, capsys,
                                            monkeypatch, data):
        def refuse(*args, **kwargs):
            raise AssertionError("samples drawn")

        monkeypatch.setattr(scalability, "_walk", refuse)
        p = write_yaml(tmp_path, data)
        for argv in (["validate", str(p)],
                     ["run", str(p), "--out", str(tmp_path / "x")]):
            assert main(argv) == 2
            report = json.loads(capsys.readouterr().err)
            assert report["error"] == "config"
            assert "GiB budget" in report["message"] or \
                "too large" in report["message"]

    def test_verdict_follows_one_chunk_not_the_cpu_count(
            self, tmp_path, monkeypatch):
        # N_max = 5234 at mu 5000: one chunk of 20 000 rows fits, two
        # would not, whatever the width of the pool
        data = {"experiment": "scalability",
                "scalability": {"mu_qd": 5000, "runs": 20_000}}
        one = scalability.chunk_bytes(5234, 20_000)
        assert one < DENSE_BUDGET_BYTES < 2 * one
        p = write_yaml(tmp_path, data)
        for width in (1, 2, 64):
            monkeypatch.setattr(scalability, "_width", lambda: width)
            assert main(["validate", str(p)]) == 0

    def test_mu_5000_at_200000_runs_fits(self, tmp_path, monkeypatch):
        # a chunk keeps at most 8 bytes a sample value: N_max = 5234 in
        # 32 768 rows is about 1.7 GiB (13 bytes a value were 2.4 GiB)
        def refuse(*args, **kwargs):
            raise AssertionError("samples drawn")

        monkeypatch.setattr(scalability, "_walk", refuse)
        p = write_yaml(tmp_path, {"experiment": "scalability",
                                  "scalability": {"mu_qd": 5000}})
        assert scalability.chunk_bytes(5234, 200_000) \
            < DENSE_BUDGET_BYTES
        assert main(["validate", str(p)]) == 0

    def test_pool_runs_one_chunk_when_two_do_not_fit(self, monkeypatch):
        threads = set()
        counts = scalability._success_counts

        def recorded(*args):
            threads.add(threading.get_ident())
            return counts(*args)

        monkeypatch.setattr(scalability, "_width", lambda: 3)
        monkeypatch.setattr(scalability, "_success_counts", recorded)
        cfg = scalability.ScalabilityConfig(
            mu_qd=20.0, sigma_qd=15.0, delta_lambda=0.15, n_reg=3,
            n_set=3, runs=400)
        n_max = scalability.poisson_weights(cfg.mu_qd)[-1][0]
        one = scalability.chunk_bytes(n_max, cfg.runs)
        monkeypatch.setattr(scalability, "BUDGET_BYTES", 2 * one - 1)
        capped = scalability.probabilities_per_waveguide([cfg])
        assert len(threads) == 1
        assert capped == [scalability.probability_per_waveguide(cfg)]
