"""Named experiments: map configurations to module pipelines and tables.

Every experiment returns a ResultBundle whose CSV tables and JSON metadata
are byte-identical for identical (config, seed).  The optics experiments
batch or stack their grid points and noise nodes in one thread; the yield
Monte Carlo runs on a thread pool whose width does not change its tables
(``scalability.probabilities_per_waveguide``).

The optics runners import the engines (``dynamics``, ``observables``)
where they call them, so that the command line and the yield runs load
neither; resolving an optics config has imported them already
(``config.dense_bytes``).
"""

import json
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, presets
from .config import (WRITE_BLOCK_ROWS, expand_range, scalability_config,
                     trace_times, write_block_rows)
from .floattext import WIDTH, float_text
from .instrument import (DetectorModel, jitter_convolve, node_average,
                         noise_nodes, spectral_diffusion_average)
from .model import DriveConfig
from .units import angular_to_ghz, ghz_to_angular


# Below this many rows a block's float column is formatted whole: sorting
# out its distinct values costs more than it saves.
_DEDUPE_MIN = 64
# A block of float columns with fewer values is formatted value by value,
# which costs less than float_text's fixed ~0.2 ms a call.
_FLOAT_BLOCK_MIN = 512


class Rows(Sequence):
    """The rows of a table that keeps its columns.

    A read-only sequence of row tuples over ``columns`` (arrays or lists
    of one length): ``len``, iteration, ``rows[i]`` and ``==`` with a
    list of row tuples behave as that list would, while each value stays
    in its column.
    """

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = tuple(columns)

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)

    def __getitem__(self, i):
        i = operator.index(i)
        return tuple(c[i] for c in self.columns)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and \
            all(a == b for a, b in zip(self, other))


@dataclass
class ResultBundle:
    experiment: str
    # name -> (column names, rows); rows is a Rows over the table's
    # columns, or any list of row tuples (perfbench/ puts one in place of
    # a table it corrupts)
    tables: dict
    metadata: dict = field(default_factory=dict)

    def write(self, out_dir):
        out = Path(out_dir) / self.experiment
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, (names, rows) in self.tables.items():
            path = out / f"{name}.csv"
            with open(path, "w") as fh:
                fh.write(f"# wgqed {__version__}\n")
                fh.write(f"# experiment: {self.experiment}\n")
                fh.write(f"# seed: {self.metadata.get('seed', 0)}\n")
                fh.write("# metadata: metadata.json\n")
                fh.write(",".join(names) + "\n")
                _write_rows(fh, rows)
            paths.append(path)
        meta_path = out / "metadata.json"
        with open(meta_path, "w") as fh:
            json.dump(self.metadata, fh, indent=1, sort_keys=True,
                      default=_json_default)
            fh.write("\n")
        paths.append(meta_path)
        return paths


def _write_rows(fh, rows):
    """Write each row as one CSV line, with the text ``_fmt`` gives each
    value, a block of rows at a time.

    A table of float arrays is cut into blocks of ``write_block_rows``
    rows, and each block of at least ``_FLOAT_BLOCK_MIN`` values is
    formatted by ``floattext.float_text``; any other table is formatted
    value by value, one column at a time, in blocks of WRITE_BLOCK_ROWS
    rows, and so is a shorter block.
    """
    columns = rows.columns if isinstance(rows, Rows) else list(zip(*rows))
    floats = bool(columns) and all(
        isinstance(c, np.ndarray) and c.dtype.kind == "f" and c.itemsize <= 8
        for c in columns)
    step = write_block_rows(len(columns)) if floats else WRITE_BLOCK_ROWS
    # per column: may its next block repeat?  A block that came out more
    # than half distinct says its later blocks will not.
    dedupe = [True] * len(columns)
    for lo in range(0, len(rows), step):
        block = [c[lo:lo + step] for c in columns]
        if floats and len(block[0]) * len(block) >= _FLOAT_BLOCK_MIN:
            fh.write(_float_lines(block, dedupe))
        else:
            fh.write(_lines(block))
            fh.write("\n")


def _lines(block):
    """The CSV lines, without the last newline, of a block of columns,
    value by value; the text of its values is freed on return.  A float
    array is formatted through Python floats, which ``float`` converts
    exactly."""
    text = [list(map(float.__repr__, values.tolist()))
            if isinstance(values, np.ndarray) and values.dtype.kind == "f"
            and values.itemsize <= 8 else list(map(_fmt, values))
            for values in block]
    return "\n".join(map(",".join, zip(*text)))


def _float_lines(block, dedupe):
    """The CSV lines, each with its newline, of a block of float array
    columns, updating each column's ``dedupe`` flag.

    Each value gets a cell of its ``float_text`` and its separator, a
    comma or the newline after the last column, and the NUL padding is
    dropped.  While ``dedupe`` holds, a column of at least _DEDUPE_MIN
    rows in which at most half the bit patterns are distinct is formatted
    once per pattern (g2-map's t1 and t2), so ±0.0 and every NaN keep
    their own text; a block with more distinct values clears the flag.
    The block's values are formatted in one call.
    """
    rows = len(block[0])
    cells = np.empty((rows, len(block), WIDTH + 1), np.uint8)
    cells[:, :, WIDTH] = ord(",")
    cells[:, -1, WIDTH] = ord("\n")
    distinct, rest = {}, []
    for i, values in enumerate(block):
        if dedupe[i] and rows >= _DEDUPE_MIN:
            bits, index = np.unique(np.asarray(values, np.float64).view(
                np.int64), return_inverse=True)
            if 2 * len(bits) <= rows:
                distinct[i] = bits.view(np.float64), index
                continue
            dedupe[i] = False
        rest.append(i)
    parts = [values for values, _ in distinct.values()]
    parts.append(np.column_stack([block[i] for i in rest]).ravel()
                 if rest else np.empty(0))
    text = float_text(np.concatenate(parts))
    lo = 0
    for i, (values, index) in distinct.items():
        cells[:, i, :WIDTH] = text[lo:lo + len(values)][index]
        lo += len(values)
    cells[:, rest, :WIDTH] = text[lo:].reshape(rows, len(rest), WIDTH)
    return cells[cells != 0].tobytes().decode("ascii")


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


def _table(names, *columns):
    """A table ``(names, Rows(columns))`` from one column per name; the
    columns must all have the same length."""
    if len(names) != len(columns):
        raise ValueError(f"{len(names)} column names for "
                         f"{len(columns)} columns")
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns of lengths {lengths} do not zip into "
                         "rows")
    return names, Rows(columns)


def _fields(items, *names):
    """One column per attribute name, read off each item in order."""
    return [[getattr(item, name) for item in items] for name in names]


def _stack_traces(records):
    """``(left, right)`` arrays, one row per ``{"left", "right"}`` record."""
    return (np.array([r["left"] for r in records]),
            np.array([r["right"] for r in records]))


def _fractions(t, left, right, start, stop):
    """Left and right shares of the emission integrated (trapezoid, along
    the last axis) over the grid times from ``start`` up to, not
    including, ``stop``."""
    from .observables import directionality
    k0, k1 = np.searchsorted(t, [start, stop])
    return directionality(np.trapezoid(left[..., k0:k1], t[k0:k1]),
                          np.trapezoid(right[..., k0:k1], t[k0:k1]))


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
            # dynamics.NEGATIVE_G_TOL, relative to each result's scale
            "negative_correlation_clip": {
                "clipped_to": 0.0,
                "counted_below": -1e-10,
                "relative_to": "max|G| of each result: one port pair's "
                               "curve for one noise node, or both maps of "
                               "one pulsed pair",
            },
        },
    }
    meta.update(extra)
    return meta


def _noise_spec(cfg):
    if cfg.noise is None:
        return {"scheme": "none"}
    return {"scheme": cfg.noise.scheme, "n": cfg.noise.samples_or_nodes,
            "seed": cfg.noise.seed}


def _sigmas(cfg):
    """Spectral-diffusion sigma of each emitter."""
    return [e.spectral_diffusion_sigma for e in cfg.system.emitters]


# --------------------------------------------------------------------------
# experiments


def run_transmission_scan(cfg):
    from .observables import transmission_coherent
    d1 = expand_range(cfg.grid["detuning1_ghz"])
    d2 = expand_range(cfg.grid["detuning2_ghz"])
    if cfg.system.n == 1:
        d2 = np.array([0.0])
    a = np.repeat(d1, len(d2))
    b = np.tile(d2, len(d1))
    dets = np.column_stack([ghz_to_angular(a)] +
                           [ghz_to_angular(b)] * (cfg.system.n - 1))
    ts = spectral_diffusion_average(
        lambda off: transmission_coherent(cfg.system, dets + off
                                          ).transmission,
        _sigmas(cfg), cfg.noise).value
    meta = _base_metadata(cfg, noise=_noise_spec(cfg),
                          regime="linear single-photon transmission",
                          resolved={"detuning1_ghz": list(d1),
                                    "detuning2_ghz": list(d2)})
    return ResultBundle(cfg.experiment,
                        {"transmission": _table(
                            ["detuning1_ghz", "detuning2_ghz",
                             "transmission"], a, b, ts)},
                        meta)


def run_transmission_saturation(cfg):
    from .observables import saturation_powers, transmission_saturated
    fracs = expand_range(cfg.grid["rabi_over_gamma"])
    powers = saturation_powers(cfg.system, fracs)
    points = transmission_saturated(cfg.system, powers)
    meta = _base_metadata(
        cfg, power_convention="input photon flux P with Omega_1 = "
        "sqrt(2*gamma_wg_1*P); rabi_over_gamma refers to emitter 1",
        resolved={"rabi_over_gamma": list(fracs)})
    return ResultBundle(cfg.experiment,
                        {"saturation": _table(
                            ["rabi_over_gamma", "power_photons_per_ns",
                             "transmission_coherent", "transmission_flux"],
                            fracs, *_fields(points, "power",
                                            "transmission_coherent",
                                            "transmission_flux"))},
                        meta)


def run_lifetime(cfg):
    from .dynamics import intensity_traces
    t_max = cfg.grid["t_max_ns"]
    dt = cfg.grid["dt_ns"]
    t = trace_times(cfg)
    offsets, weights = noise_nodes(_sigmas(cfg), cfg.noise)
    systems = [cfg.system.with_detuning_offsets(o) for o in offsets]
    rec = node_average(intensity_traces(
        systems, [cfg.drive] * len(systems), t), weights, cfg.noise).value
    meta = _base_metadata(cfg, noise=_noise_spec(cfg),
                          irf_sigma_ns=cfg.detector.irf_sigma,
                          resolved={"t_max_ns": t_max, "dt_ns": dt,
                                    "pulse_sigma_ns": cfg.drive.pulse.sigma_t,
                                    "pulse_area_over_pi":
                                        cfg.drive.pulse.area / np.pi})
    return ResultBundle(cfg.experiment,
                        {"lifetime": _table(
                            ["t_ns", "intensity_left", "intensity_right",
                             "intensity_left_irf", "intensity_right_irf"],
                            t, rec["left"], rec["right"],
                            jitter_convolve(t, rec["left"], cfg.detector),
                            jitter_convolve(t, rec["right"], cfg.detector))},
                        meta)


def run_phase_sweep(cfg):
    from .dynamics import intensity_traces
    from .observables import directionality
    thetas = expand_range(cfg.grid["theta_over_pi"])
    windows = cfg.grid["integration_windows_ns"]
    pulse = cfg.drive.pulse
    t_prompt = pulse.support[1]
    dt = cfg.grid["dt_ns"]
    t = trace_times(cfg)
    drives = [DriveConfig(cfg.drive.rabi_amplitude,
                          tuple(np.pi * theta_over_pi * (1 if m else 0)
                                for m in range(cfg.system.n)),
                          "pulsed", pulse)
              for theta_over_pi in thetas]
    left, right = _stack_traces(list(intensity_traces(
        [cfg.system] * len(drives), drives, t)))
    k0 = np.searchsorted(t, t_prompt)
    names = ["theta_over_pi", "frac_right_prompt"]
    columns = [thetas, directionality(left[:, k0], right[:, k0])[1]]
    for w in windows:
        names.extend([f"frac_left_{w}ns", f"frac_right_{w}ns"])
        columns.extend(_fractions(t, left, right, t_prompt, t_prompt + w))
    meta = _base_metadata(
        cfg, pulse={"sigma_ns": pulse.sigma_t,
                    "area_over_pi": pulse.area / np.pi},
        prompt_time_ns=t_prompt, integration_windows_ns=list(windows),
        resolved={"theta_over_pi": list(thetas), "dt_ns": dt})
    return ResultBundle(cfg.experiment,
                        {"directionality": _table(names, *columns)}, meta)


def run_detuning_sweep(cfg):
    from .dynamics import intensity_traces
    deltas = expand_range(cfg.grid["detuning2_ghz"])
    t_max = cfg.grid["t_max_ns"]
    dt = cfg.grid["dt_ns"]
    window = cfg.grid["window_ns"]
    t = trace_times(cfg)
    t0 = cfg.drive.pulse.support[1]

    # every (detuning, noise node) pair in one stack, detuning outermost
    offsets, weights = noise_nodes(_sigmas(cfg), cfg.noise)
    systems = [cfg.system.with_detuning_offsets(
        o + np.array([0.0, ghz_to_angular(delta)]))
        for delta in deltas for o in offsets]
    traces = intensity_traces(systems, [cfg.drive] * len(systems), t)
    left, right = _stack_traces([node_average(traces, weights,
                                              cfg.noise).value
                                 for _ in deltas])
    meta = _base_metadata(cfg, noise=_noise_spec(cfg),
                          integration_window_ns=window,
                          resolved={"detuning2_ghz": list(deltas),
                                    "t_max_ns": t_max, "dt_ns": dt})
    return ResultBundle(
        cfg.experiment,
        {"time_resolved": _table(
            ["detuning2_ghz", "t_ns", "intensity_left", "intensity_right",
             "intensity_left_irf", "intensity_right_irf"],
            np.repeat(deltas, len(t)), np.tile(t, len(deltas)),
            left.ravel(), right.ravel(),
            jitter_convolve(t, left, cfg.detector).ravel(),
            jitter_convolve(t, right, cfg.detector).ravel()),
         "directionality": _table(
             ["detuning2_ghz", "frac_left", "frac_right"], deltas,
             *_fractions(t, left, right, t0, t0 + window))},
        meta)


def _symmetrize_tau(tau, fwd, bwd):
    """Assemble a symmetric-delay curve from g(τ≥0) of pair and reversed."""
    full_tau = np.concatenate([-tau[::-1], tau[1:]])
    return full_tau, np.concatenate([bwd[::-1], fwd[1:]])


def run_g2_cw(cfg):
    from .dynamics import g2_cw, grid_points, stack_chunk
    pairs = tuple(cfg.grid["pairs"])
    tau_max = cfg.grid["tau_max_ns"]
    dt = cfg.grid["dt_ns"]

    need = tuple(sorted(set(pairs) | {p[::-1] for p in pairs}))  # τ < 0
    tau = np.arange(grid_points(tau_max, dt)) * dt
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

    offsets, weights = noise_nodes(_sigmas(cfg), cfg.noise)
    avg = node_average(bundles(offsets), weights, cfg.noise).value
    # CW correlograms: sigma_IRF is the correlator's effective response
    # along the delay axis (matches the published antidip heights)
    det_tau = DetectorModel(irf_sigma=cfg.detector.irf_sigma,
                            bin_width=cfg.detector.bin_width)
    names, columns = ["tau_ns"], []
    for p in pairs:
        denom = avg[f"I_{p[0]}"] * avg[f"I_{p[1]}"]
        g_fwd = avg[f"G2_{p}"] / denom
        g_bwd = avg[f"G2_{p[::-1]}"] / denom
        full_tau, g_full = _symmetrize_tau(tau, g_fwd, g_bwd)
        names.extend([f"g2_{p}", f"g2_{p}_irf"])
        columns.extend([g_full, jitter_convolve(full_tau, g_full, det_tau)])
    meta = _base_metadata(
        cfg, noise=_noise_spec(cfg),
        steady_intensities={"L": avg["I_L"], "R": avg["I_R"]},
        drive_rabi_ghz=[angular_to_ghz(x) for x in cfg.drive.rabi_amplitude],
        irf_along_tau_sigma_ns=det_tau.irf_sigma,
        resolved={"tau_max_ns": tau_max, "dt_ns": dt, "pairs": list(pairs)})
    return ResultBundle(cfg.experiment,
                        {"g2": _table(names, full_tau, *columns)}, meta)


def _pulsed_correlograms(cfg, pairs, window, dt):
    """Spectral-diffusion-averaged pulsed maps, pair → PulsedG2Result.

    The two maps and two intensities of each pair are averaged over the
    nodes by ``node_average``; the results are the first node's, with
    those four arrays replaced by their averages.
    """
    from .dynamics import pulsed_g2_map

    def node(offsets):
        return pulsed_g2_map(cfg.system.with_detuning_offsets(offsets),
                             cfg.drive, ports=pairs, window=window, dt=dt)

    def arrays(results):
        return {(pair, part): value for pair, r in results.items()
                for part, value in (("same", r.same.values),
                                    ("different", r.different.values),
                                    ("intensity_a", r.intensity_a),
                                    ("intensity_b", r.intensity_b))}

    offsets, weights = noise_nodes(_sigmas(cfg), cfg.noise)
    first = node(offsets[0])
    avg = node_average(map(arrays, chain([first], map(node, offsets[1:]))),
                       weights, cfg.noise).value
    return {pair: replace(
                r, same=replace(r.same, values=avg[pair, "same"]),
                different=replace(r.different,
                                  values=avg[pair, "different"]),
                intensity_a=avg[pair, "intensity_a"],
                intensity_b=avg[pair, "intensity_b"])
            for pair, r in first.items()}


def run_g2_pulsed(cfg):
    from .dynamics import integrated_pulsed_g2
    ports_list = cfg.grid["pairs"]
    window = cfg.grid["window_ns"]
    dt = cfg.grid["dt_ns"]
    det_tau = DetectorModel(irf_sigma=np.sqrt(2.0) * cfg.detector.irf_sigma,
                            bin_width=cfg.detector.bin_width)
    names, columns = ["tau_ns"], []
    heights, heights_irf = [], []
    maps = _pulsed_correlograms(cfg, ports_list, window, dt)
    for ports in ports_list:
        cg = integrated_pulsed_g2(maps[ports])
        center_irf = jitter_convolve(cg.tau, cg.center, det_tau)
        side_irf = jitter_convolve(cg.tau, cg.side, det_tau)
        names.extend([f"center_{ports}", f"side_{ports}",
                      f"center_{ports}_irf", f"side_{ports}_irf"])
        columns.extend([cg.center, cg.side, center_irf, side_irf])
        heights.append(cg.center_height())
        heights_irf.append(float(center_irf.max() / side_irf.max()))
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
        {"correlogram": _table(names, cg.tau, *columns),
         "heights": _table(["ports", "height", "height_irf"], ports_list,
                           heights, heights_irf)},
        meta)


def run_g2_map(cfg):
    ports = cfg.grid["ports"]
    window = cfg.grid["window_ns"]
    dt = cfg.grid["dt_ns"]
    maps = _pulsed_correlograms(cfg, [ports], window, dt)[ports]
    t = maps.t
    same, diff = maps.same.values, maps.different.values
    meta = _base_metadata(
        cfg, noise=_noise_spec(cfg), ports=ports,
        jitter="applied independently along t1 and t2",
        different_pulse_separation_periods=maps.different.normalization[
            "separation_periods"],
        resolved={"window_ns": window, "dt_ns": dt})
    return ResultBundle(
        cfg.experiment,
        {"map": _table(
            ["t1_ns", "t2_ns", "G2_same", "G2_different", "G2_same_irf",
             "G2_different_irf"],
            np.repeat(t, len(t)), np.tile(t, len(t)), same.ravel(),
            diff.ravel(),
            jitter_convolve(t, same, cfg.detector, axes=(0, 1)).ravel(),
            jitter_convolve(t, diff, cfg.detector, axes=(0, 1)).ravel())},
        meta)


def run_scalability(cfg):
    from .scalability import probabilities_per_waveguide
    mode = cfg.scalability["mode"]
    modes = ["consecutive", "window_distinct"] if mode == "both" else [mode]
    configs = [scalability_config(cfg, mode=m) for m in modes]
    results = probabilities_per_waveguide(configs)
    meta = _base_metadata(
        cfg, runs=cfg.scalability["runs"],
        note="consecutive reproduces the published sampling rule; "
             "window_distinct is the exact feasibility criterion and "
             "dominates it")
    return ResultBundle(
        cfg.experiment,
        {"yield": _table(
            ["mode", "n_set", "n_reg", "mu_qd", "delta_lambda_nm", "n_wg",
             "p_per_waveguide", "standard_error", "p_per_chip",
             "truncation_n_max", "truncated_mass"],
            *_fields(configs, "mode", "n_set", "n_reg", "mu_qd",
                     "delta_lambda", "n_wg"),
            *_fields(results, "p_per_waveguide", "standard_error",
                     "p_per_chip", "truncation_n_max", "truncated_mass"))},
        meta)


def run_scalability_heatmap(cfg):
    from .scalability import probabilities_per_waveguide
    mus = expand_range(cfg.grid["mu_qd"])
    rels = expand_range(cfg.grid["delta_over_sigma"])
    s = cfg.scalability
    mu_col, rel_col = np.repeat(mus, len(rels)), np.tile(rels, len(mus))
    results = probabilities_per_waveguide(
        scalability_config(cfg, mu_qd=float(mu),
                           delta_lambda=float(rel) * s["sigma_qd_nm"])
        for mu, rel in zip(mu_col, rel_col))
    meta = _base_metadata(cfg, mode=s["mode"], runs=s["runs"],
                          resolved={"mu_qd": list(mus),
                                    "delta_over_sigma": list(rels)})
    return ResultBundle(
        cfg.experiment,
        {"heatmap": _table(["mu_qd", "delta_over_sigma", "p_per_waveguide",
                            "standard_error", "p_per_chip"],
                           mu_col, rel_col,
                           *_fields(results, "p_per_waveguide",
                                    "standard_error", "p_per_chip"))},
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

    ``threads`` is ignored; it is still accepted because callers such as
    ``perfbench/run.py`` pass it.  The yield experiments run one thread
    per CPU of the process's affinity mask, and their tables do not
    depend on that number.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bundle = EXPERIMENTS[cfg.experiment](cfg)
    bundle.metadata["warnings"] = [str(w.message) for w in caught]
    return bundle
