"""Experiment configuration: YAML schema, validation, and resolution.

Units at the boundary follow the lab quoting style: rates as value/2π in
GHz, times in ns, wavelengths in nm, phases in units of π.  Unknown keys
are rejected everywhere.
"""

import operator
from dataclasses import dataclass, field
from numbers import Number

import numpy as np
import yaml

from . import presets
from .errors import ConfigError
from .instrument import DetectorModel, NoiseAveragingPlan, node_count
from .model import DriveConfig, EmitterParams, PulseSpec, WaveguideSystem
from .units import BUDGET_BYTES, ghz_to_angular

EXPERIMENTS = (
    "transmission-scan", "transmission-saturation", "lifetime",
    "phase-sweep", "detuning-sweep", "g2-cw", "g2-pulsed", "g2-map",
    "scalability", "scalability-heatmap",
)

_RANGE = {
    "type": "object",
    "additionalProperties": False,
    "oneOf": [
        {"required": ["start", "stop", "points"]},
        {"required": ["values"]},
    ],
    "properties": {
        "start": {"type": "number"},
        "stop": {"type": "number"},
        "points": {"type": "integer", "minimum": 1},
        "log": {"type": "boolean"},
        "values": {"type": "array", "items": {"type": "number"},
                   "minItems": 1},
    },
}

_EMITTER = {
    "type": "object",
    "additionalProperties": False,
    "required": ["gamma_ghz", "beta"],
    "properties": {
        "gamma_ghz": {"type": "number", "exclusiveMinimum": 0},
        "beta": {"type": "number", "minimum": 0, "maximum": 1},
        "detuning_ghz": {"type": "number"},
        "dephasing_ghz": {"type": "number", "minimum": 0},
        "spectral_diffusion_ghz": {"type": "number", "minimum": 0},
        "permanent_dipole_ghz_per_mv": {"type": "number"},
        "fano_xi": {"type": "number"},
    },
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string"},
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "coupling_phase_over_pi": {"type": "number"},
                "emitters": {"type": "array", "items": _EMITTER,
                             "minItems": 1, "maxItems": 12},
            },
        },
        "drive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["cw", "pulsed"]},
                "rabi_ghz": {"type": "array", "items": {"type": "number"}},
                "weights": {"type": "array", "items": {"type": "number"}},
                "phase_over_pi": {"type": "array",
                                  "items": {"type": "number"}},
                "pulse": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "sigma_ns": {"type": "number", "exclusiveMinimum": 0},
                        "area_over_pi": {"type": "number", "minimum": 0},
                        "period_ns": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
            },
        },
        "detector": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "irf_sigma_ns": {"type": "number", "minimum": 0},
                "bin_ns": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scheme": {"enum": ["none", "gauss_hermite", "monte_carlo"]},
                "nodes": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 1},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "detuning1_ghz": _RANGE,
                "detuning2_ghz": _RANGE,
                "theta_over_pi": _RANGE,
                "rabi_over_gamma": _RANGE,
                "mu_qd": _RANGE,
                "delta_over_sigma": _RANGE,
                "tau_max_ns": {"type": "number", "exclusiveMinimum": 0},
                "t_max_ns": {"type": "number", "exclusiveMinimum": 0},
                "window_ns": {"type": "number", "exclusiveMinimum": 0},
                "dt_ns": {"type": "number", "exclusiveMinimum": 0},
                "integration_windows_ns": {
                    "type": "array", "items": {"type": "number"},
                    "minItems": 1},
                "pairs": {"type": "array",
                          "items": {"enum": ["LL", "RR", "LR", "RL"]},
                          "minItems": 1},
                "ports": {"enum": ["LL", "RR", "LR", "RL"]},
            },
        },
        "scalability": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mu_qd": {"type": "number", "exclusiveMinimum": 0},
                "sigma_qd_nm": {"type": "number", "exclusiveMinimum": 0},
                "delta_lambda_nm": {"type": "number", "minimum": 0},
                "n_reg": {"type": "integer", "minimum": 1},
                "n_set": {"type": "integer", "minimum": 1},
                "n_wg": {"type": "integer", "minimum": 1},
                "runs": {"type": "integer", "minimum": 1},
                "mode": {"enum": ["consecutive", "window_distinct", "both"]},
            },
        },
    },
}


@dataclass
class ResolvedConfig:
    """Validated configuration with physics objects attached."""
    experiment: str
    seed: int
    output: str
    system: WaveguideSystem
    drive: DriveConfig
    detector: DetectorModel
    noise: NoiseAveragingPlan  # None when scheme == 'none'
    grid: dict
    scalability: dict
    raw: dict = field(default_factory=dict)


# libyaml's parser where PyYAML was built with it: the same data, parsed
# several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path):
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    return data


def validate_config(data):
    """Schema-validate a raw config dict; returns the list of errors.

    Each error is ``{"path", "message"}``, sorted by path, with the
    message text of JSON Schema 2020-12's reference validator
    (jsonschema), except that an ``integer`` is an int and never an
    integral float such as ``3.0``.
    """
    return [{"path": "/".join(map(str, path)) or "<root>", "message": message}
            for path, message in sorted(_schema_errors(SCHEMA, data, ()),
                                        key=lambda error: error[0])]


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le,
                         "is less than or equal to the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
}
# the keywords _schema_errors checks, additionalProperties only as false;
# SCHEMA may use no other
KEYWORDS = frozenset({
    "type", "enum", "required", "properties", "additionalProperties",
    "items", "minItems", "maxItems", "minimum", "exclusiveMinimum",
    "maximum", "oneOf"})


def _schema_errors(schema, instance, path):
    """(path, message) of each way ``instance`` breaks ``schema``, keyword
    by keyword in the schema's own order, as jsonschema yields them."""
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](instance):
                yield path, f"{instance!r} is not of type {value!r}"
        elif key == "enum":
            # True == 1 in Python, but not in JSON
            if not any(each == instance
                       and isinstance(each, bool) == isinstance(instance, bool)
                       for each in value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif key == "oneOf":
            valid = [each for each in value
                     if next(_schema_errors(each, instance, path), None)
                     is None]
            if not valid:
                yield path, (f"{instance!r} is not valid under any of the "
                             "given schemas")
            elif len(valid) > 1:
                schemas = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield path, f"{instance!r} is valid under each of {schemas}"
        elif key in _BOUNDS:
            breaks, words = _BOUNDS[key]
            if _TYPES["number"](instance) and breaks(instance, value):
                yield path, f"{instance!r} {words} {value!r}"
        elif key not in KEYWORDS or (key == "additionalProperties"
                                     and value is not False):
            raise NotImplementedError(f"schema keyword {key!r}: {value!r}")
        elif isinstance(instance, list):
            if key == "items":
                for index, item in enumerate(instance):
                    yield from _schema_errors(value, item, path + (index,))
            elif key == "minItems" and len(instance) < value:
                yield path, (f"{instance!r} should be non-empty" if value == 1
                             else f"{instance!r} is too short")
            elif key == "maxItems" and len(instance) > value:
                yield path, (f"{instance!r} is expected to be empty"
                             if value == 0 else f"{instance!r} is too long")
        elif isinstance(instance, dict):
            if key == "required":
                for name in value:
                    if name not in instance:
                        yield path, f"{name!r} is a required property"
            elif key == "properties":
                for name, sub in value.items():
                    if name in instance:
                        yield from _schema_errors(sub, instance[name],
                                                  path + (name,))
            elif key == "additionalProperties":
                # keys that print alike (1 and '1') keep the config's
                # order, where jsonschema's set of them follows the hash
                # seed
                extra = sorted((name for name in instance
                                if name not in schema.get("properties", {})),
                               key=str)
                if extra:
                    verb = "was" if len(extra) == 1 else "were"
                    yield path, ("Additional properties are not allowed "
                                 f"({', '.join(map(repr, extra))} {verb} "
                                 "unexpected)")


def expand_range(spec):
    """Materialize a grid axis from {start,stop,points[,log]} or {values}."""
    if "values" in spec:
        return np.asarray(spec["values"], dtype=float)
    if spec.get("log"):
        return np.geomspace(spec["start"], spec["stop"], spec["points"])
    return np.linspace(spec["start"], spec["stop"], spec["points"])


def _build_emitter(entry):
    return EmitterParams(
        gamma_total=ghz_to_angular(entry["gamma_ghz"]),
        beta=entry["beta"],
        detuning=ghz_to_angular(entry.get("detuning_ghz", 0.0)),
        dephasing=ghz_to_angular(entry.get("dephasing_ghz", 0.0)),
        spectral_diffusion_sigma=ghz_to_angular(
            entry.get("spectral_diffusion_ghz", 0.0)),
        permanent_dipole=entry.get("permanent_dipole_ghz_per_mv", 0.0),
        fano_xi=entry.get("fano_xi", 0.0),
    )


def _build_system(section):
    if section is None:
        return presets.qd_pair()
    emitters = section.get("emitters")
    if emitters is None:
        built = presets.qd_pair().emitters
    else:
        built = tuple(_build_emitter(e) for e in emitters)
    phi = np.pi * section.get("coupling_phase_over_pi",
                              presets.COUPLING_PHASE / np.pi)
    if len(built) == 1:
        phi = 0.0
    return WaveguideSystem(built, phi)


def _build_drive(section, system, default_mode, default_rabi_ghz=None,
                 default_weights=None, default_pulse=None):
    n = system.n
    section = section or {}
    mode = section.get("mode", default_mode)
    phases = tuple(np.pi * p for p in section.get(
        "phase_over_pi", [0.0] * n))
    if len(phases) != n:
        raise ConfigError("drive.phase_over_pi length mismatch")
    if mode == "cw":
        if "weights" in section:
            raise ConfigError("drive.weights is only valid in pulsed mode")
        rabi_ghz = section.get("rabi_ghz", default_rabi_ghz)
        if rabi_ghz is None:
            raise ConfigError("cw drive requires drive.rabi_ghz")
        if len(rabi_ghz) != n:
            raise ConfigError("drive.rabi_ghz length mismatch")
        return DriveConfig(tuple(ghz_to_angular(x) for x in rabi_ghz),
                           phases, "cw")
    if "rabi_ghz" in section:
        raise ConfigError("drive.rabi_ghz is only valid in cw mode; "
                          "use drive.weights for pulses")
    weights = section.get("weights", default_weights)
    if weights is None:
        weights = [1.0] * n
    if len(weights) != n:
        raise ConfigError("drive.weights length mismatch")
    p = dict(default_pulse or {})
    p.update(section.get("pulse", {}))
    pulse = PulseSpec(sigma_t=p.get("sigma_ns", 0.03),
                      area=np.pi * p.get("area_over_pi", 1.0),
                      repetition_period=p.get("period_ns", 13.6))
    drive = DriveConfig(tuple(weights), phases, "pulsed", pulse)
    drive.validate_against(system)
    return drive


# Grid values and axes that each experiment falls back on, filled in at
# resolution so that the rules and the experiment read the same numbers.
_DETUNING_AXIS = {"start": -6.0, "stop": 6.0, "points": 41}
_GRID_DEFAULTS = {
    "transmission-scan": {"detuning1_ghz": _DETUNING_AXIS,
                          "detuning2_ghz": _DETUNING_AXIS},
    "transmission-saturation": {"rabi_over_gamma": {
        "start": 0.01, "stop": 50.0, "points": 21, "log": True}},
    "lifetime": {"t_max_ns": 8.0, "dt_ns": 0.004},
    "phase-sweep": {"theta_over_pi": {"start": 0.0, "stop": 2.0,
                                      "points": 41},
                    "dt_ns": 0.005, "integration_windows_ns": [0.4, 3.0]},
    "detuning-sweep": {"detuning2_ghz": {"start": -6.0, "stop": 6.0,
                                         "points": 31},
                       "t_max_ns": 5.0, "dt_ns": 0.02, "window_ns": 2.0},
    "g2-cw": {"tau_max_ns": 6.0, "dt_ns": 0.005,
              "pairs": ["LL", "RR", "LR", "RL"]},
    "g2-pulsed": {"window_ns": 4.0, "dt_ns": 0.01,
                  "pairs": ["LL", "RR", "LR", "RL"]},
    "g2-map": {"window_ns": 4.0, "dt_ns": 0.01, "ports": "LL"},
    "scalability-heatmap": {
        "mu_qd": {"values": [5.0, 10.0, 20.0, 35.0, 50.0, 75.0, 100.0]},
        "delta_over_sigma": {"start": 1e-3, "stop": 1.0, "points": 13,
                             "log": True}},
}

# The scalability section that each yield experiment falls back on, filled
# in at resolution like the grid defaults.
_YIELD_POINT = {"mu_qd": 35.0, "sigma_qd_nm": 15.0, "delta_lambda_nm": 0.15,
                "n_reg": 3, "n_set": 3, "n_wg": 100}
_SCALABILITY_DEFAULTS = {
    "scalability": {**_YIELD_POINT, "mode": "both", "runs": 200_000},
    "scalability-heatmap": {**_YIELD_POINT, "mode": "consecutive",
                            "runs": 20_000},
}

# the grid span an experiment steps through in dt_ns
_SPANS = {"lifetime": "t_max_ns", "detuning-sweep": "t_max_ns",
          "g2-cw": "tau_max_ns", "g2-pulsed": "window_ns",
          "g2-map": "window_ns"}


def trace_times(cfg):
    """Time grid of a time-trace experiment (lifetime, phase-sweep,
    detuning-sweep): from 0 in steps of dt_ns through t_max_ns, or for
    phase-sweep through the end of the pulse plus the longest integration
    window."""
    return np.arange(0.0, _trace_end(cfg), cfg.grid["dt_ns"])


def _trace_end(cfg):
    """The (exclusive) end of ``trace_times``, half a step past the last
    time, so that ⌈end/dt_ns⌉ counts the times without building them."""
    grid = cfg.grid
    if cfg.experiment == "phase-sweep":
        last = cfg.drive.pulse.support[1] + \
            max(grid["integration_windows_ns"])
    else:
        last = grid["t_max_ns"]
    return last + grid["dt_ns"] / 2


_DEFAULT_DRIVES = {
    # weak resonant CW drive of emitter 1 (units: Omega/2pi GHz)
    "g2-cw": ("cw", "weak_left"),
    "lifetime": ("pulsed", [1.0, 0.0]),
    "detuning-sweep": ("pulsed", [1.0, 0.0]),
    "phase-sweep": ("pulsed", "weak_collective"),
    "g2-pulsed": ("pulsed", [1.0, 1.0]),
    "g2-map": ("pulsed", [1.0, 1.0]),
}


def scalability_config(cfg, **overrides):
    """The ScalabilityConfig of a resolved config's scalability section;
    ``mode`` must be overridden where the section's mode is "both"."""
    from .scalability import ScalabilityConfig
    s = cfg.scalability
    base = dict(mu_qd=s["mu_qd"], sigma_qd=s["sigma_qd_nm"],
                delta_lambda=s["delta_lambda_nm"], n_reg=s["n_reg"],
                n_set=s["n_set"], n_wg=s["n_wg"], runs=s["runs"],
                seed=cfg.seed, mode=s["mode"])
    base.update(overrides)
    return ScalabilityConfig(**base)


def _check_scalability(cfg):
    """Build the yield configs the experiment builds, so that their rules
    fail at resolution.  The heatmap's rules on mu_qd and delta_lambda are
    lower bounds, so its smallest grid values stand for all."""
    scalability_config(cfg, mode="consecutive")
    if cfg.experiment != "scalability-heatmap":
        return
    if cfg.scalability["mode"] == "both":
        raise ConfigError("scalability-heatmap runs one mode at a time")
    mu = expand_range(cfg.grid["mu_qd"]).min()
    rel = expand_range(cfg.grid["delta_over_sigma"]).min()
    scalability_config(cfg, mu_qd=float(mu))
    scalability_config(
        cfg, delta_lambda=float(rel) * cfg.scalability["sigma_qd_nm"])


# An experiment holds dense complex matrices (the Lindblad experiments
# 4ᴺ×4ᴺ superoperators, transmission-scan one N×N resolvent per grid
# point), arrays that grow with its grid, and its table rows.  A config
# whose estimate exceeds this budget is refused before anything is built.
DENSE_BUDGET_BYTES = BUDGET_BYTES
_DENSE_WORK = 8     # one generator's build temporaries and SVD factors
_DENSE_EXPERIMENTS = ("transmission-saturation", "lifetime", "phase-sweep",
                      "detuning-sweep", "g2-cw", "g2-pulsed", "g2-map")
_G2_ARRAYS = 2      # g2-cw's τ × node × pair floats: G2 and g2
_MAP_ARRAYS = 8     # pulsed nt × nt floats per pair: the raw maps of the
                    # pair and its reverse, the far map, clipped results,
                    # the node average and the jittered maps
# ResultBundle.write formats a table this many rows at a time, so that the
# text it holds stays small next to the columns themselves
WRITE_BLOCK_ROWS = 1024


def axis_length(spec):
    """Points of a grid axis, read from its spec without building it."""
    return len(spec["values"]) if "values" in spec else spec["points"]


def table_bytes(rows, columns):
    """Bytes of a table of ``rows`` rows and ``columns`` columns while it
    is written.

    A table keeps its columns (``experiments.Rows``): an array column
    takes 8 bytes a value and a list column (``experiments._fields``) at
    most 41, a list slot with its over-allocation and a boxed np.float64,
    so 41 bounds both.  The writer holds the text of one block of
    WRITE_BLOCK_ROWS rows besides, which tracemalloc measured at 128–139
    bytes a value for 1–30 columns of 24-character floats.
    """
    return (41 * rows + 140 * min(rows, WRITE_BLOCK_ROWS)) * columns


def _trace_count(cfg):
    """Length of ``trace_times(cfg)``, without building it."""
    return int(np.ceil(_trace_end(cfg) / cfg.grid["dt_ns"]))


def _scan_points(cfg):
    points = axis_length(cfg.grid["detuning1_ghz"])
    if cfg.system.n > 1:
        points *= axis_length(cfg.grid["detuning2_ghz"])
    return points


def _tables(cfg):
    """(rows, columns) of each table that cfg's experiment builds."""
    grid, experiment = cfg.grid, cfg.experiment
    if experiment == "transmission-scan":
        return [(_scan_points(cfg), 3)]
    if experiment == "transmission-saturation":
        return [(axis_length(grid["rabi_over_gamma"]), 4)]
    if experiment == "lifetime":
        return [(_trace_count(cfg), 5)]
    if experiment == "phase-sweep":
        return [(axis_length(grid["theta_over_pi"]),
                 2 + 2 * len(grid["integration_windows_ns"]))]
    if experiment == "detuning-sweep":
        deltas = axis_length(grid["detuning2_ghz"])
        return [(deltas * _trace_count(cfg), 6), (deltas, 3)]
    if experiment == "scalability-heatmap":
        return [(axis_length(grid["mu_qd"])
                 * axis_length(grid["delta_over_sigma"]), 5)]
    if experiment == "scalability":
        return [(2, 11)]    # one row per mode
    from .dynamics import grid_points
    nt = grid_points(grid[_SPANS[experiment]], grid["dt_ns"])
    if experiment == "g2-cw":
        return [(2 * nt - 1, 1 + 2 * len(grid["pairs"]))]
    if experiment == "g2-pulsed":
        return [(2 * nt - 1, 1 + 4 * len(grid["pairs"])),
                (len(grid["pairs"]), 3)]
    return [(nt ** 2, 6)]   # g2-map


def _axis_max(spec):
    """Largest point of a grid axis, read from its spec without building
    it: linspace and geomspace end exactly at start and stop."""
    if "values" in spec:
        return max(spec["values"])
    return spec["start"] if spec["points"] == 1 else \
        max(spec["start"], spec["stop"])


def _yield_chunk_bytes(cfg):
    """Bytes of one yield chunk at the largest N of the Poisson support of
    the experiment's largest mu_qd (``scalability.chunk_bytes``)."""
    from .scalability import chunk_bytes, poisson_weights
    mu = cfg.scalability["mu_qd"] if cfg.experiment == "scalability" \
        else _axis_max(cfg.grid["mu_qd"])
    n_max = poisson_weights(float(mu))[-1][0]
    return chunk_bytes(n_max, cfg.scalability["runs"])


def dense_bytes(cfg):
    """Estimated bytes of the dense matrices, grid arrays and table rows
    that cfg's experiment holds at once.

    Every axis length is read from its spec, so nothing is built.  Each
    experiment holds its tables (``table_bytes``).
    transmission-scan solves its P grid points as one batch of N×N
    resolvents, 16·N²·P bytes.  The Lindblad experiments hold the static
    generator and one superoperator per driven emitter (a conservative
    count of the one summed drive part that the build holds), and beyond
    those the superoperators of the step that peaks, each counted from
    the engine's own constants: for the pulsed maps one step propagator
    per grid step that overlaps the pulse and ``dynamics.RK45_WORK`` for
    the solve that marches the identity through a pulse step; for g2-cw
    and the time traces STACK_SUPEROPERATORS per member of one stack chunk
    (the noise nodes of g2-cw and lifetime, the θ points of phase-sweep,
    the (Δ₂, noise node) pairs of detuning-sweep) and
    ``dynamics.EXPM_WORK`` for the exponential of one member at a time;
    transmission-saturation _DENSE_WORK for one generator's build and
    steady state.  Grid arrays are one chunk's readouts (members × nt
    reals: one per pair for g2-cw, the trace and two intensities for the
    time traces), the time traces' RK45_WORK states of one column per
    member in a pulse window, g2-cw's _G2_ARRAYS τ × node × pair floats
    for one chunk, and _MAP_ARRAYS nt × nt floats per port pair for the
    pulsed maps.  The yield experiments hold one chunk of Monte Carlo
    samples at the largest N (``_yield_chunk_bytes``) per worker thread,
    and run no more threads than fit in the budget together, so one chunk
    is counted.
    """
    total = sum(table_bytes(rows, columns) for rows, columns in _tables(cfg))
    if cfg.experiment.startswith("scalability"):
        return total + _yield_chunk_bytes(cfg)
    # An optics config imports its engines here, as it is resolved, so
    # that its run imports nothing; observables imports dynamics.
    from . import observables  # noqa: F401
    from .dynamics import (EXPM_WORK, RK45_WORK, STACK_SUPEROPERATORS,
                           grid_points, stack_chunk)
    n = cfg.system.n
    grid = cfg.grid
    if cfg.experiment == "transmission-scan":
        return total + 16 * n * n * _scan_points(cfg)
    if cfg.experiment not in _DENSE_EXPERIMENTS:
        return total
    dim2 = 4 ** n
    driven = 1 if cfg.drive is None else \
        sum(r != 0 for r in cfg.drive.rabi_amplitude)
    count = 1 + driven
    if cfg.experiment in ("g2-pulsed", "g2-map") and not cfg.drive.is_cw:
        dt = grid["dt_ns"]
        nt = grid_points(grid["window_ns"], dt)
        count += min(int(np.ceil(12.0 * cfg.drive.pulse.sigma_t / dt)) + 2,
                     nt - 1) + RK45_WORK
        pairs = 1 if cfg.experiment == "g2-map" else len(grid["pairs"])
        total += 8 * _MAP_ARRAYS * pairs * nt ** 2
    members = pairs = 0
    nodes = node_count([e.spectral_diffusion_sigma
                        for e in cfg.system.emitters], cfg.noise)
    if cfg.experiment == "g2-cw":
        pairs = len(set(grid["pairs"]) | {p[::-1] for p in grid["pairs"]})
        members, row = nodes, 8 * pairs
        times = grid_points(grid["tau_max_ns"], grid["dt_ns"])
    elif cfg.experiment in ("lifetime", "phase-sweep", "detuning-sweep"):
        if cfg.experiment == "phase-sweep":
            members = axis_length(grid["theta_over_pi"])
        else:
            members = nodes
        if cfg.experiment == "detuning-sweep":
            members *= axis_length(grid["detuning2_ghz"])
        times, row = _trace_count(cfg), 8 * 3
    if members:
        chunk = min(members, stack_chunk(2 ** n, times, row))
        count += STACK_SUPEROPERATORS * chunk + EXPM_WORK
        total += (row + 8 * _G2_ARRAYS * pairs) * chunk * times
        if cfg.experiment != "g2-cw":
            total += 16 * RK45_WORK * dim2 * chunk
    elif cfg.experiment == "transmission-saturation":
        count += _DENSE_WORK
    return total + 16 * dim2 ** 2 * count


def _check_experiment(cfg):
    """Rules an experiment puts on the rest of its config, checked at
    resolution so that ``validate`` rejects what ``run`` would."""
    grid = cfg.grid
    for key, spec in grid.items():
        if isinstance(spec, dict) and "values" not in spec and \
                spec.get("log") and not (spec["start"] > 0 < spec["stop"] or
                                         spec["start"] < 0 > spec["stop"]):
            raise ConfigError(f"grid.{key}: a log range needs start and "
                              "stop of one sign")
    if cfg.experiment in _DEFAULT_DRIVES:
        mode = _DEFAULT_DRIVES[cfg.experiment][0]
        if cfg.drive.mode != mode:
            raise ConfigError(f"{cfg.experiment} needs a {mode} drive")
    span = _SPANS.get(cfg.experiment)
    if span is not None and grid[span] < grid["dt_ns"]:
        raise ConfigError(f"grid.{span} must be at least grid.dt_ns")
    if cfg.experiment in ("g2-pulsed", "g2-map") and \
            grid["window_ns"] > cfg.drive.pulse.repetition_period:
        raise ConfigError("grid.window_ns exceeds the pulse period")
    if cfg.experiment == "phase-sweep" and \
            min(grid["integration_windows_ns"]) < grid["dt_ns"]:
        raise ConfigError("grid.integration_windows_ns must each be at "
                          "least grid.dt_ns")
    need = dense_bytes(cfg)
    if need > DENSE_BUDGET_BYTES:
        held = "a chunk of Monte Carlo samples and table rows" \
            if cfg.experiment.startswith("scalability") else \
            f"dense matrices, grid arrays and table rows for " \
            f"{cfg.system.n} emitters"
        raise ConfigError(
            f"{cfg.experiment} needs about {need / 1024 ** 3:.1f} GiB of "
            f"{held}, above the {DENSE_BUDGET_BYTES / 1024 ** 3:.0f} GiB "
            "budget")
    if cfg.experiment == "transmission-saturation":
        fracs = expand_range(cfg.grid["rabi_over_gamma"])
        if not np.all(fracs > 0):
            raise ConfigError("rabi_over_gamma grid must be > 0")
        if cfg.system.emitters[0].gamma_wg == 0:
            raise ConfigError("transmission-saturation sets the power through "
                              "emitter 1's waveguide coupling: it needs "
                              "beta > 0")
        # the power grows with the ratio: the smallest decides
        from .observables import saturation_powers
        if not saturation_powers(cfg.system, [fracs.min()])[0] > 0:
            raise ConfigError("rabi_over_gamma grid too small: the input "
                              "power underflows to 0")
    elif cfg.experiment == "detuning-sweep" and cfg.system.n != 2:
        raise ConfigError("detuning-sweep requires a two-emitter system")
    elif cfg.experiment.startswith("scalability"):
        _check_scalability(cfg)


def _non_finite(data, path="<root>"):
    """Paths of the NaN and infinite numbers in a raw config, which the
    schema's bounds do not catch (every comparison with NaN is false)."""
    if isinstance(data, float) and not np.isfinite(data):
        yield path
    elif isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        for key, value in items:
            yield from _non_finite(
                value, str(key) if path == "<root>" else f"{path}/{key}")


def resolve_config(data):
    """Validate a raw dict and construct the physics objects.

    A NaN or infinite number anywhere is refused like a schema violation.
    The physics constructors own their rules and raise ValueError; such a
    failure is reported as a ConfigError too.
    """
    errors = validate_config(data)
    if errors:
        raise ConfigError("config failed schema validation", details=errors)
    bad = [{"path": path, "message": "not a finite number"}
           for path in _non_finite(data)]
    if bad:
        raise ConfigError("config holds non-finite numbers", details=bad)
    try:
        cfg = _resolve(data)
        _check_experiment(cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _resolve(data):
    experiment = data["experiment"]
    system = _build_system(data.get("system"))

    drive = None
    if experiment in _DEFAULT_DRIVES:
        mode, default = _DEFAULT_DRIVES[experiment]
        kw = {}
        if default == "weak_left":
            gamma1_ghz = system.emitters[0].gamma_total / (2 * np.pi)
            kw["default_rabi_ghz"] = [gamma1_ghz / 16.0] + \
                [0.0] * (system.n - 1)
        elif default == "weak_collective":
            kw["default_weights"] = [1.0] * system.n
            kw["default_pulse"] = {"sigma_ns": 0.005, "area_over_pi": 0.05,
                                   "period_ns": 13.6}
        elif isinstance(default, list):
            kw["default_weights"] = (default + [0.0] * system.n)[:system.n]
        drive = _build_drive(data.get("drive"), system, mode, **kw)

    det = data.get("detector", {})
    detector = DetectorModel(
        irf_sigma=det.get("irf_sigma_ns", presets.IRF_SIGMA_NS),
        bin_width=det.get("bin_ns", 0.01))

    noise_sec = data.get("noise", {})
    scheme = noise_sec.get("scheme", "none")
    seed = data.get("seed", 0)
    noise = None
    if scheme == "gauss_hermite":
        noise = NoiseAveragingPlan("gauss_hermite",
                                   noise_sec.get("nodes", 11))
    elif scheme == "monte_carlo":
        noise = NoiseAveragingPlan("monte_carlo",
                                   noise_sec.get("samples", 2000), seed=seed)

    return ResolvedConfig(
        experiment=experiment,
        seed=seed,
        output=data.get("output", "results"),
        system=system,
        drive=drive,
        detector=detector,
        noise=noise,
        grid={**_GRID_DEFAULTS.get(experiment, {}), **data.get("grid", {})},
        scalability={**_SCALABILITY_DEFAULTS.get(experiment, {}),
                     **data.get("scalability", {})},
        raw=data,
    )
