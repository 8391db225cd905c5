"""Named experiments: map configurations to module pipelines and tables.

Every experiment returns a ResultBundle whose CSV tables and JSON metadata
are byte-identical for identical (config, seed).  No experiment uses
threads: grid points and noise nodes are batched or stacked instead.
"""

import json
import warnings
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__, presets
from .config import expand_range, scalability_config, trace_times
from .dynamics import (CorrelationMap, PulsedG2Result, g2_cw,
                       integrated_pulsed_g2, intensity_traces, pulsed_g2_map,
                       stack_chunk)
from .instrument import (DetectorModel, NodeAverage, jitter_convolve,
                         noise_nodes, spectral_diffusion_average)
from .model import DriveConfig
from .observables import (directionality, saturation_powers,
                          transmission_coherent, transmission_saturated)
from .scalability import probabilities_per_waveguide
from .units import angular_to_ghz, ghz_to_angular


@dataclass
class ResultBundle:
    experiment: str
    tables: dict                 # name -> (columns, rows)
    metadata: dict = field(default_factory=dict)

    def write(self, out_dir):
        out = Path(out_dir) / self.experiment
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, (columns, rows) in self.tables.items():
            path = out / f"{name}.csv"
            with open(path, "w") as fh:
                fh.write(f"# wgqed {__version__}\n")
                fh.write(f"# experiment: {self.experiment}\n")
                fh.write(f"# seed: {self.metadata.get('seed', 0)}\n")
                fh.write("# metadata: metadata.json\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
            paths.append(path)
        meta_path = out / "metadata.json"
        with open(meta_path, "w") as fh:
            json.dump(self.metadata, fh, indent=1, sort_keys=True,
                      default=_json_default)
            fh.write("\n")
        paths.append(meta_path)
        return paths


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _base_metadata(cfg, **extra):
    meta = {
        "version": __version__,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config": cfg.raw,
        "system": {
            "coupling_phase_rad": [
                [float(x) for x in row] for row in cfg.system.phase_matrix],
            "emitters": [
                {"gamma_ghz": angular_to_ghz(e.gamma_total),
                 "beta": e.beta,
                 "detuning_ghz": angular_to_ghz(e.detuning),
                 "dephasing_ghz": angular_to_ghz(e.dephasing),
                 "spectral_diffusion_ghz":
                     angular_to_ghz(e.spectral_diffusion_sigma),
                 "fano_xi": e.fano_xi}
                for e in cfg.system.emitters],
        },
        "conventions": {
            "rates": "angular rad/ns internally; config values are "
                     "value/2pi in GHz",
            "jitter": "Gaussian IRF applied to computed signals along each "
                      "time axis (sqrt(2)*sigma along tau for integrated "
                      "correlograms)",
            "negative_correlation_clip": 1e-10,
        },
    }
    meta.update(extra)
    return meta


def _noise_spec(cfg):
    if cfg.noise is None:
        return {"scheme": "none"}
    return {"scheme": cfg.noise.scheme, "n": cfg.noise.samples_or_nodes,
            "seed": cfg.noise.seed}


def _sd_nodes(cfg):
    """Offsets ``(K, N)`` and weights of cfg's spectral-diffusion average
    (``noise_nodes``); one zero-offset node and weights None without one."""
    sigmas = [e.spectral_diffusion_sigma for e in cfg.system.emitters]
    if cfg.noise is None or all(s == 0 for s in sigmas):
        return np.zeros((1, len(sigmas))), None
    return noise_nodes(sigmas, cfg.noise)


def _sd_average(cfg, weights, nodes):
    """Average dict-of-arrays node results over spectral-diffusion offsets.

    ``nodes`` yields one dict per node of ``_sd_nodes(cfg)``, in order,
    and ``weights`` are that call's weights.  Each key is reduced on its
    own with the arithmetic of ``spectral_diffusion_average``; scalar
    values become floats.  Without a noise average (weights None) the one
    node's dict is returned as is.
    """
    if weights is None:
        return next(iter(nodes))
    sums = None
    for node in islice(nodes, len(weights)):
        if sums is None:
            sums = {key: NodeAverage(weights, cfg.noise) for key in node}
        for key, value in node.items():
            sums[key].add(value)
    out = {}
    for key, avg in sums.items():
        value = avg.result().value
        out[key] = float(value) if value.ndim == 0 else value
    return out


# --------------------------------------------------------------------------
# experiments


def run_transmission_scan(cfg):
    d1 = expand_range(cfg.grid["detuning1_ghz"])
    d2 = expand_range(cfg.grid["detuning2_ghz"])
    if cfg.system.n == 1:
        d2 = np.array([0.0])
    a = np.repeat(d1, len(d2))
    b = np.tile(d2, len(d1))
    dets = np.column_stack([ghz_to_angular(a)] +
                           [ghz_to_angular(b)] * (cfg.system.n - 1))
    if cfg.noise is None:
        ts = transmission_coherent(cfg.system, dets).transmission
    else:
        ts = spectral_diffusion_average(
            lambda off: transmission_coherent(cfg.system, dets + off
                                              ).transmission,
            [e.spectral_diffusion_sigma for e in cfg.system.emitters],
            cfg.noise).value
    rows = list(zip(a, b, ts))
    meta = _base_metadata(cfg, noise=_noise_spec(cfg),
                          regime="linear single-photon transmission",
                          resolved={"detuning1_ghz": list(d1),
                                    "detuning2_ghz": list(d2)})
    return ResultBundle(cfg.experiment,
                        {"transmission": (
                            ["detuning1_ghz", "detuning2_ghz",
                             "transmission"], rows)},
                        meta)


def run_transmission_saturation(cfg):
    fracs = expand_range(cfg.grid["rabi_over_gamma"])
    powers = saturation_powers(cfg.system, fracs)
    points = transmission_saturated(cfg.system, powers)
    rows = [(f, p.power, p.transmission_coherent, p.transmission_flux)
            for f, p in zip(fracs, points)]
    meta = _base_metadata(
        cfg, power_convention="input photon flux P with Omega_1 = "
        "sqrt(2*gamma_wg_1*P); rabi_over_gamma refers to emitter 1",
        resolved={"rabi_over_gamma": list(fracs)})
    return ResultBundle(cfg.experiment,
                        {"saturation": (
                            ["rabi_over_gamma", "power_photons_per_ns",
                             "transmission_coherent", "transmission_flux"],
                            rows)},
                        meta)


def run_lifetime(cfg):
    t_max = cfg.grid["t_max_ns"]
    dt = cfg.grid["dt_ns"]
    t = trace_times(cfg)
    offsets, weights = _sd_nodes(cfg)
    systems = [cfg.system.with_detuning_offsets(o) for o in offsets]
    rec = _sd_average(cfg, weights, intensity_traces(
        systems, [cfg.drive] * len(systems), t))
    left_irf = jitter_convolve(t, rec["left"], cfg.detector)
    right_irf = jitter_convolve(t, rec["right"], cfg.detector)
    rows = list(zip(t, rec["left"], rec["right"], left_irf, right_irf))
    meta = _base_metadata(cfg, noise=_noise_spec(cfg),
                          irf_sigma_ns=cfg.detector.irf_sigma,
                          resolved={"t_max_ns": t_max, "dt_ns": dt,
                                    "pulse_sigma_ns": cfg.drive.pulse.sigma_t,
                                    "pulse_area_over_pi":
                                        cfg.drive.pulse.area / np.pi})
    return ResultBundle(cfg.experiment,
                        {"lifetime": (
                            ["t_ns", "intensity_left", "intensity_right",
                             "intensity_left_irf", "intensity_right_irf"],
                            rows)},
                        meta)


def run_phase_sweep(cfg):
    thetas = expand_range(cfg.grid["theta_over_pi"])
    windows = cfg.grid["integration_windows_ns"]
    pulse = cfg.drive.pulse
    t_prompt = pulse.center + 6.0 * pulse.sigma_t
    dt = cfg.grid["dt_ns"]
    t = trace_times(cfg)
    drives = [DriveConfig(cfg.drive.rabi_amplitude,
                          tuple(np.pi * theta_over_pi * (1 if m else 0)
                                for m in range(cfg.system.n)),
                          "pulsed", pulse)
              for theta_over_pi in thetas]
    k0 = int(np.searchsorted(t, t_prompt))
    ks = [int(np.searchsorted(t, t_prompt + w)) for w in windows]
    rows = []
    for theta_over_pi, rec in zip(thetas, intensity_traces(
            [cfg.system] * len(drives), drives, t)):
        _, fr_prompt = directionality(rec["left"][k0], rec["right"][k0])
        row = [theta_over_pi, fr_prompt]
        for k1 in ks:
            i_l = np.trapezoid(rec["left"][k0:k1], t[k0:k1])
            i_r = np.trapezoid(rec["right"][k0:k1], t[k0:k1])
            row.extend(directionality(i_l, i_r))
        rows.append(tuple(row))
    cols = ["theta_over_pi", "frac_right_prompt"]
    for w in windows:
        cols.extend([f"frac_left_{w}ns", f"frac_right_{w}ns"])
    meta = _base_metadata(
        cfg, pulse={"sigma_ns": pulse.sigma_t,
                    "area_over_pi": pulse.area / np.pi},
        prompt_time_ns=t_prompt, integration_windows_ns=list(windows),
        resolved={"theta_over_pi": list(thetas), "dt_ns": dt})
    return ResultBundle(cfg.experiment, {"directionality": (cols, rows)},
                        meta)


def run_detuning_sweep(cfg):
    deltas = expand_range(cfg.grid["detuning2_ghz"])
    t_max = cfg.grid["t_max_ns"]
    dt = cfg.grid["dt_ns"]
    window = cfg.grid["window_ns"]
    t = trace_times(cfg)
    pulse = cfg.drive.pulse
    t0 = pulse.center + 6.0 * pulse.sigma_t
    k0, k1 = np.searchsorted(t, [t0, t0 + window])

    # every (detuning, noise node) pair in one stack, detuning outermost
    offsets, weights = _sd_nodes(cfg)
    systems = [cfg.system.with_detuning_offsets(
        o + np.array([0.0, ghz_to_angular(delta)]))
        for delta in deltas for o in offsets]
    traces = intensity_traces(systems, [cfg.drive] * len(systems), t)
    map_rows = []
    summary_rows = []
    for delta in deltas:
        rec = _sd_average(cfg, weights, traces)
        il, ir = rec["left"], rec["right"]
        ili = jitter_convolve(t, il, cfg.detector)
        iri = jitter_convolve(t, ir, cfg.detector)
        i_l = np.trapezoid(il[k0:k1], t[k0:k1])
        i_r = np.trapezoid(ir[k0:k1], t[k0:k1])
        summary_rows.append((delta, *directionality(i_l, i_r)))
        for k in range(len(t)):
            map_rows.append((delta, t[k], il[k], ir[k], ili[k], iri[k]))
    meta = _base_metadata(cfg, noise=_noise_spec(cfg),
                          integration_window_ns=window,
                          resolved={"detuning2_ghz": list(deltas),
                                    "t_max_ns": t_max, "dt_ns": dt})
    return ResultBundle(
        cfg.experiment,
        {"time_resolved": (
            ["detuning2_ghz", "t_ns", "intensity_left", "intensity_right",
             "intensity_left_irf", "intensity_right_irf"], map_rows),
         "directionality": (
             ["detuning2_ghz", "frac_left", "frac_right"], summary_rows)},
        meta)


def _symmetrize_tau(tau, fwd, bwd):
    """Assemble a symmetric-delay curve from g(τ≥0) of pair and reversed."""
    full_tau = np.concatenate([-tau[::-1], tau[1:]])
    return full_tau, np.concatenate([bwd[::-1], fwd[1:]])


def run_g2_cw(cfg):
    pairs = tuple(cfg.grid["pairs"])
    tau_max = cfg.grid["tau_max_ns"]
    dt = cfg.grid["dt_ns"]

    need = tuple(sorted(set(pairs) | {p[::-1] for p in pairs}))  # τ < 0
    tau = np.arange(0.0, tau_max + dt / 2, dt)
    chunk = stack_chunk(2 ** cfg.system.n, len(tau), 8 * len(need))

    def bundles(offsets):
        for lo in range(0, len(offsets), chunk):
            res = g2_cw([cfg.system.with_detuning_offsets(o)
                         for o in offsets[lo:lo + chunk]], cfg.drive,
                        pairs=need, tau_max=tau_max, dt=dt)
            for k in range(len(res["intensity"]["L"])):
                out = {f"G2_{p}": res["G2"][p][k] for p in need}
                out["I_L"] = res["intensity"]["L"][k]
                out["I_R"] = res["intensity"]["R"][k]
                yield out

    offsets, weights = _sd_nodes(cfg)
    avg = _sd_average(cfg, weights, bundles(offsets))
    # CW correlograms: sigma_IRF is the correlator's effective response
    # along the delay axis (matches the published antidip heights)
    det_tau = DetectorModel(irf_sigma=cfg.detector.irf_sigma,
                            bin_width=cfg.detector.bin_width)
    cols = ["tau_ns"]
    data = {}
    for p in pairs:
        denom = avg[f"I_{p[0]}"] * avg[f"I_{p[1]}"]
        g_fwd = avg[f"G2_{p}"] / denom
        g_bwd = avg[f"G2_{p[::-1]}"] / denom
        full_tau, g_full = _symmetrize_tau(tau, g_fwd, g_bwd)
        g_irf = jitter_convolve(full_tau, g_full, det_tau)
        data[f"g2_{p}"] = g_full
        data[f"g2_{p}_irf"] = g_irf
        cols.extend([f"g2_{p}", f"g2_{p}_irf"])
    rows = list(zip(full_tau, *[data[c] for c in cols[1:]]))
    meta = _base_metadata(
        cfg, noise=_noise_spec(cfg),
        steady_intensities={"L": avg["I_L"], "R": avg["I_R"]},
        drive_rabi_ghz=[angular_to_ghz(x) for x in cfg.drive.rabi_amplitude],
        irf_along_tau_sigma_ns=det_tau.irf_sigma,
        resolved={"tau_max_ns": tau_max, "dt_ns": dt, "pairs": list(pairs)})
    return ResultBundle(cfg.experiment, {"g2": (cols, rows)}, meta)


def _pulsed_correlograms(cfg, pairs, window, dt):
    """Spectral-diffusion-averaged pulsed maps, pair → PulsedG2Result."""
    map_meta = {}

    def bundle(offsets):
        sys_off = cfg.system.with_detuning_offsets(offsets)
        res = pulsed_g2_map(sys_off, cfg.drive, ports=pairs, window=window,
                            dt=dt)
        out = {}
        for pair, r in res.items():
            map_meta.update(r.different.normalization)
            out[f"same_{pair}"] = r.same.values
            out[f"different_{pair}"] = r.different.values
            out[f"I_{pair[0]}"] = r.intensity_a
            out[f"I_{pair[1]}"] = r.intensity_b
        return out

    offsets, weights = _sd_nodes(cfg)
    avg = _sd_average(cfg, weights, map(bundle, offsets))
    t = np.arange(int(round(window / dt)) + 1) * dt
    period = cfg.drive.pulse.repetition_period
    separation = map_meta["separation_periods"]
    maps = {}
    for pair in pairs:
        meta = {"ports": pair, "dt": dt, "window": window, "period": period,
                "separation_periods": separation,
                "spectral_diffusion": _noise_spec(cfg)}
        maps[pair] = PulsedG2Result(
            ports=pair, t=t,
            same=CorrelationMap(t, t, np.asarray(avg[f"same_{pair}"]),
                                "same_pulse", dict(meta)),
            different=CorrelationMap(t, t + separation * period,
                                     np.asarray(avg[f"different_{pair}"]),
                                     "different_pulse", dict(meta)),
            intensity_a=np.asarray(avg[f"I_{pair[0]}"]),
            intensity_b=np.asarray(avg[f"I_{pair[1]}"]),
            period=period)
    return maps


def run_g2_pulsed(cfg):
    ports_list = cfg.grid["pairs"]
    window = cfg.grid["window_ns"]
    dt = cfg.grid["dt_ns"]
    det_tau = DetectorModel(irf_sigma=np.sqrt(2.0) * cfg.detector.irf_sigma,
                            bin_width=cfg.detector.bin_width)
    cols = ["tau_ns"]
    data = {}
    heights = []
    tau_axis = None
    maps = _pulsed_correlograms(cfg, ports_list, window, dt)
    for ports in ports_list:
        cg = integrated_pulsed_g2(maps[ports])
        tau_axis = cg.tau
        center_irf = jitter_convolve(cg.tau, cg.center, det_tau)
        side_irf = jitter_convolve(cg.tau, cg.side, det_tau)
        data[f"center_{ports}"] = cg.center
        data[f"side_{ports}"] = cg.side
        data[f"center_{ports}_irf"] = center_irf
        data[f"side_{ports}_irf"] = side_irf
        cols.extend([f"center_{ports}", f"side_{ports}",
                     f"center_{ports}_irf", f"side_{ports}_irf"])
        heights.append((ports, cg.center_height(),
                        float(center_irf.max() / side_irf.max())))
    rows = list(zip(tau_axis, *[data[c] for c in cols[1:]]))
    meta = _base_metadata(
        cfg, noise=_noise_spec(cfg),
        irf_along_tau_sigma_ns=det_tau.irf_sigma,
        normalization="correlation densities q(tau) = "
                      "int G2(t,t+tau) dt / (int I_a int I_b); peak heights "
                      "are max(center)/max(side)",
        resolved={"window_ns": window, "dt_ns": dt,
                  "pairs": list(ports_list),
                  "period_ns": cfg.drive.pulse.repetition_period})
    return ResultBundle(
        cfg.experiment,
        {"correlogram": (cols, rows),
         "heights": (["ports", "height", "height_irf"], heights)},
        meta)


def run_g2_map(cfg):
    ports = cfg.grid["ports"]
    window = cfg.grid["window_ns"]
    dt = cfg.grid["dt_ns"]
    maps = _pulsed_correlograms(cfg, [ports], window, dt)[ports]
    t = maps.t
    same_irf = jitter_convolve(t, maps.same.values, cfg.detector, axes=(0, 1))
    diff_irf = jitter_convolve(t, maps.different.values, cfg.detector,
                               axes=(0, 1))
    rows = []
    for i in range(len(t)):
        for j in range(len(t)):
            rows.append((t[i], t[j], maps.same.values[i, j],
                         maps.different.values[i, j], same_irf[i, j],
                         diff_irf[i, j]))
    meta = _base_metadata(
        cfg, noise=_noise_spec(cfg), ports=ports,
        jitter="applied independently along t1 and t2",
        different_pulse_separation_periods=maps.different.normalization[
            "separation_periods"],
        resolved={"window_ns": window, "dt_ns": dt})
    return ResultBundle(
        cfg.experiment,
        {"map": (["t1_ns", "t2_ns", "G2_same", "G2_different",
                  "G2_same_irf", "G2_different_irf"], rows)},
        meta)


def run_scalability(cfg):
    mode = cfg.scalability.get("mode", "both")
    modes = ["consecutive", "window_distinct"] if mode == "both" else [mode]
    configs = [scalability_config(cfg, mode=m) for m in modes]
    rows = [(sc.mode, sc.n_set, sc.n_reg, sc.mu_qd, sc.delta_lambda,
             sc.n_wg, res.p_per_waveguide, res.standard_error,
             res.p_per_chip, res.truncation_n_max, res.truncated_mass)
            for sc, res in zip(configs, probabilities_per_waveguide(configs))]
    meta = _base_metadata(
        cfg, runs=scalability_config(cfg).runs,
        note="consecutive reproduces the published sampling rule; "
             "window_distinct is the exact feasibility criterion and "
             "dominates it")
    return ResultBundle(
        cfg.experiment,
        {"yield": (["mode", "n_set", "n_reg", "mu_qd", "delta_lambda_nm",
                    "n_wg", "p_per_waveguide", "standard_error",
                    "p_per_chip", "truncation_n_max", "truncated_mass"],
                   rows)},
        meta)


def run_scalability_heatmap(cfg):
    mus = expand_range(cfg.grid["mu_qd"])
    rels = expand_range(cfg.grid["delta_over_sigma"])
    mode = cfg.scalability.get("mode", "consecutive")
    runs = cfg.scalability.get("runs", 20_000)
    sigma = cfg.scalability.get("sigma_qd_nm", 15.0)
    pts = [(mu, rel) for mu in mus for rel in rels]
    results = probabilities_per_waveguide(
        scalability_config(cfg, mu_qd=float(mu), mode=mode, runs=runs,
                           delta_lambda=float(rel) * sigma)
        for mu, rel in pts)
    rows = [(mu, rel, res.p_per_waveguide, res.standard_error,
             res.p_per_chip) for (mu, rel), res in zip(pts, results)]
    meta = _base_metadata(cfg, mode=mode, runs=runs,
                          resolved={"mu_qd": list(mus),
                                    "delta_over_sigma": list(rels)})
    return ResultBundle(
        cfg.experiment,
        {"heatmap": (["mu_qd", "delta_over_sigma", "p_per_waveguide",
                      "standard_error", "p_per_chip"], rows)},
        meta)


EXPERIMENTS = {
    "transmission-scan": run_transmission_scan,
    "transmission-saturation": run_transmission_saturation,
    "lifetime": run_lifetime,
    "phase-sweep": run_phase_sweep,
    "detuning-sweep": run_detuning_sweep,
    "g2-cw": run_g2_cw,
    "g2-pulsed": run_g2_pulsed,
    "g2-map": run_g2_map,
    "scalability": run_scalability,
    "scalability-heatmap": run_scalability_heatmap,
}

DESCRIPTIONS = {
    "transmission-scan": "2-D waveguide transmission vs both detunings "
                         "(cross pattern)",
    "transmission-saturation": "transmission dip vs input power "
                               "(saturable mirror)",
    "lifetime": "pulsed excitation decay traces with IRF convolution",
    "phase-sweep": "emission directionality vs relative driving phase",
    "detuning-sweep": "time-resolved emission vs undriven-emitter detuning",
    "g2-cw": "steady-state intensity correlations g2(tau) per port pair",
    "g2-pulsed": "pulse-integrated correlograms and center-peak heights",
    "g2-map": "fully time-resolved G2(t1,t2) same/different-pulse maps",
    "scalability": "Monte Carlo yield of tunable resonant emitter sets",
    "scalability-heatmap": "yield probability over (tuning range, density)",
}


def run_experiment(cfg, threads=1):
    """The ResultBundle of cfg's experiment, with the messages of the
    warnings raised while computing it under metadata["warnings"].

    ``threads`` is ignored, since no experiment uses threads; it is still
    accepted because callers such as ``perfbench/run.py`` pass it.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bundle = EXPERIMENTS[cfg.experiment](cfg)
    bundle.metadata["warnings"] = [str(w.message) for w in caught]
    return bundle
