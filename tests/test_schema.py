"""wgqed's schema checker against jsonschema, the reference validator.

``config.validate_config`` checks ``config.SCHEMA`` with a checker of its
own.  jsonschema is a test-only dependency and the oracle here: over
example configs mutated at random, both give the same ``{"path",
"message"}`` list, once the oracle's ``integer`` is an int and never an
integral float (the one rule in which wgqed's checker differs from
JSON Schema 2020-12).
"""

import copy
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, validators

from wgqed import config
from wgqed.config import KEYWORDS, SCHEMA, load_config, validate_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent
                  / "configs").glob("*.yaml"))

Oracle = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)))


def oracle_errors(data, schema=SCHEMA):
    """The error list that validate_config gave when jsonschema checked
    the schema, with the integer rule above."""
    return [{"path": "/".join(map(str, e.path)) or "<root>",
             "message": e.message}
            for e in sorted(Oracle(schema).iter_errors(data),
                            key=lambda e: list(e.path))]


# a config that holds every key of the schema, so that mutations reach
# every subschema
FULL = {
    "experiment": "g2-cw", "seed": 4, "output": "results",
    "system": {"coupling_phase_over_pi": 0.8, "emitters": [
        {"gamma_ghz": 0.388, "beta": 0.95, "detuning_ghz": 0.0,
         "dephasing_ghz": 0.01, "spectral_diffusion_ghz": 0.3,
         "permanent_dipole_ghz_per_mv": 0.5, "fano_xi": 0.0},
        {"gamma_ghz": 0.2, "beta": 0.5}]},
    "drive": {"mode": "pulsed", "rabi_ghz": [0.02, 0.0],
              "weights": [1.0, 1.0], "phase_over_pi": [0.0, 0.5],
              "pulse": {"sigma_ns": 0.03, "area_over_pi": 1.0,
                        "period_ns": 13.6}},
    "detector": {"irf_sigma_ns": 0.188, "bin_ns": 0.01},
    "noise": {"scheme": "gauss_hermite", "nodes": 3, "samples": 10},
    "grid": {"detuning1_ghz": {"start": -1, "stop": 1, "points": 3},
             "detuning2_ghz": {"values": [0.0, 0.5]},
             "theta_over_pi": {"start": 0, "stop": 2, "points": 5,
                               "log": False},
             "rabi_over_gamma": {"start": 0.1, "stop": 1, "points": 2,
                                 "log": True},
             "mu_qd": {"values": [10]},
             "delta_over_sigma": {"values": [0.1]},
             "tau_max_ns": 1.0, "t_max_ns": 2.0, "window_ns": 0.5,
             "dt_ns": 0.01, "integration_windows_ns": [0.4, 1.0],
             "pairs": ["LL", "LR"], "ports": "RR"},
    "scalability": {"mu_qd": 35.0, "sigma_qd_nm": 15.0,
                    "delta_lambda_nm": 0.15, "n_reg": 3, "n_set": 3,
                    "n_wg": 1, "runs": 100, "mode": "both"},
}
BASES = [FULL] + [load_config(path) for path in CONFIGS]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20),
    st.integers(-3, 20).map(float),                  # integral floats
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1.5, 1e300]),
    st.sampled_from(["x", "", "cw", "LL", "none", "g2-cw", "both"]))
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.sampled_from(
        ["start", "stop", "points", "values", "log", "gamma_ghz", "beta",
         "x"]), scalars, max_size=4),
    st.sampled_from([{"start": 0, "stop": 1, "points": 2, "values": [1.0]},
                     {"values": []}, {"start": 0}, [{"beta": 2}]]),
).map(copy.deepcopy)   # later mutations may edit a value in place
# extra keys: names the schema uses elsewhere, a wrong case and a number
extra_keys = st.sampled_from(["bogus", "Seed", "values", "points", "seed",
                              "log", "emitters", 7])


def _containers(data):
    """Every dict and list in a config, the config itself first."""
    found = [data]
    for value in data.values() if isinstance(data, dict) else data:
        if isinstance(value, (dict, list)):
            found += _containers(value)
    return found


@st.composite
def mutated_configs(draw):
    """An example config with one to four of: a value replaced by one of
    another type, a non-finite or integral float, or a bool; an extra key;
    a required key deleted; a range given both points and values."""
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 4))):
        container = draw(st.sampled_from(_containers(data)))
        kind = draw(st.sampled_from(["replace", "add", "delete"]))
        if isinstance(container, list):
            if container:
                index = draw(st.integers(0, len(container) - 1))
                container[index] = draw(values)
        elif kind == "add":
            container[draw(extra_keys)] = draw(values)
        elif kind == "delete" and container:
            del container[draw(st.sampled_from(sorted(container, key=str)))]
        elif container:
            key = draw(st.sampled_from(sorted(container, key=str)))
            container[key] = draw(values)
    return data


@settings(max_examples=2000, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_errors_match_jsonschema(data):
    assert validate_config(data) == oracle_errors(data)


def test_full_config_is_valid():
    assert validate_config(FULL) == oracle_errors(FULL) == []


EMITTER = {"gamma_ghz": 0.388, "beta": 0.95}


@pytest.mark.parametrize("data", [
    {"experiment": "g2-cw", "system": {"emitters": [EMITTER] * 13}},
    {"experiment": "g2-cw", "system": {"emitters": []}},
    {"experiment": "g2-cw", "grid": {"integration_windows_ns": []}},
    {"experiment": "g2-cw", "grid": {"tau_max_ns": 0}},
    {"experiment": "g2-cw", "grid": {"tau_max_ns": -0.0}},
    {"experiment": "g2-cw", "system": {"emitters": [
        {"gamma_ghz": 0, "beta": 1.5}, {"beta": -1, "x": 1, "y": 2}]}},
    {"experiment": "g2-cw", "grid": {"mu_qd": {"points": 0, "values": []}}},
    {"experiment": "g2-cw", "grid": {"mu_qd": []}},
    [], "g2-cw", None, {},
], ids=["13-emitters", "no-emitters", "no-windows", "zero-span",
        "minus-zero-span", "emitter-bounds", "empty-range", "list-range",
        "list", "string", "null", "empty"])
def test_boundary_cases_match_jsonschema(data):
    assert validate_config(data) == oracle_errors(data)


@pytest.mark.parametrize("extra", [{1: 0, "1": 0}, {"1": 0, 1: 0}])
def test_extra_keys_that_print_alike_keep_their_order(extra):
    [error] = validate_config({"experiment": "lifetime", **extra})
    listed = ", ".join(map(repr, extra))
    assert error["message"] == ("Additional properties are not allowed "
                                f"({listed} were unexpected)")


def _keywords(schema):
    """(keyword, value) of every keyword in a schema and its subschemas."""
    for key, value in schema.items():
        yield key, value
        if key == "properties":
            for sub in value.values():
                yield from _keywords(sub)
        elif key == "items":
            yield from _keywords(value)
        elif key == "oneOf":
            for sub in value:
                yield from _keywords(sub)


def test_schema_uses_only_checked_keywords():
    used = list(_keywords(SCHEMA))
    assert {key for key, _ in used} <= KEYWORDS
    assert all(value is False for key, value in used
               if key == "additionalProperties")
    assert all(isinstance(each, str) for key, value in used if key == "enum"
               for each in value)


@pytest.mark.parametrize("schema", [
    {"type": "object", "patternProperties": {"^x": {}}},
    {"type": "object", "additionalProperties": {"type": "number"}},
])
def test_unchecked_keyword_raises(monkeypatch, schema):
    monkeypatch.setattr(config, "SCHEMA", schema)
    with pytest.raises(NotImplementedError):
        validate_config({"x": 1})


@pytest.mark.parametrize("value", [True, False, 1, 1.0, 0, "1"])
def test_enum_tells_true_from_one(monkeypatch, value):
    # True == 1 in Python; JSON has no such equality, but has 1.0 == 1
    schema = {"enum": [1, 0, "x"]}
    monkeypatch.setattr(config, "SCHEMA", schema)
    assert validate_config(value) == oracle_errors(value, schema)
    assert bool(validate_config(value)) == isinstance(value, (bool, str))
