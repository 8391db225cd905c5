"""What each entry point imports, each checked in a fresh interpreter.

No entry point, validation or run loads any scipy module: the pulse
windows are stepped by wgqed's own RK45, the steps between them by its
own matrix exponential, and the yield Monte Carlo draws its normal
quantiles and Poisson weights from its own ports of the Cephes routines.
Nor does any load jsonschema or its dependencies: configs are checked
against the schema by wgqed's own checker.  The yield runs load none of
the optics engines.  Resolving an optics config imports its engines, so
that its run imports nothing more.  With scipy or jsonschema made
unimportable, every example config validates and runs.  Every library
name of ``wgqed`` is imported from its module on first use and is the
module's own object.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
YIELD = [p for p in CONFIGS if p.stem.startswith("scalability")]
OPTICS = [p for p in CONFIGS if p not in YIELD]
ENGINES = ("scipy.integrate", "scipy.linalg", "wgqed.dynamics",
           "wgqed.observables", "wgqed.analytics")
# the test-only libraries, with jsonschema's own dependencies
TEST_ONLY = ("scipy", "jsonschema", "referencing", "attrs", "rpds")

# the library names that wgqed gave before they were imported lazily
EXPORTS = {
    "hilbert": ["CollectiveStateSpec", "DensityState", "basis_ket",
                "collective_state", "lowering_operator", "raising_operator"],
    "model": ["DriveConfig", "EmitterParams", "LindbladGenerator",
              "PulseSpec", "WaveguideSystem", "coupling_rates",
              "effective_hamiltonian", "field_operator"],
    "dynamics": ["CorrelationMap", "PulsedG2Result", "Trajectory", "g2_cw",
                 "integrated_pulsed_g2", "propagate", "pulsed_g2_map",
                 "steady_state", "two_time_correlation"],
    "observables": ["IntensityRecord", "TransmissionPoint", "directionality",
                    "intensity", "intensity_record", "population_projection",
                    "transmission_coherent", "transmission_saturated",
                    "waveguide_drive"],
    "instrument": ["DetectorModel", "NoiseAveragingPlan", "jitter_convolve",
                   "side_peak_normalize", "spectral_diffusion_average"],
    "analytics": ["PerturbativeSteadyState", "analytic_g2_zero",
                  "analytic_intensities_single_drive", "calibration_models",
                  "g2_zero_from_populations", "interference_intensities",
                  "lifetime_irf_curve", "perturbative_steady_state",
                  "rabi_power_curve"],
    "scalability": ["ScalabilityConfig", "YieldResult", "min_feasible_spread",
                    "poisson_weights", "probabilities_per_waveguide",
                    "probability_per_chip", "probability_per_waveguide"],
}

# import wgqed, then the command line, list-experiments, then validate
# and run each yield config given, with the modules loaded after each
# step; the number of Monte Carlo runs changes no import, so each run
# draws 200
YIELD_RUN = """
import contextlib, io, json, sys
steps = {}
import wgqed
steps["wgqed"] = sorted(sys.modules)
from wgqed.cli import main
from wgqed.config import load_config, resolve_config
from wgqed.experiments import run_experiment
steps["cli"] = sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    exits = [main(["list-experiments"])]
    steps["list"] = sorted(sys.modules)
    for path in sys.argv[1:]:
        exits.append(main(["validate", path]))
        steps[f"validate {path}"] = sorted(sys.modules)
        data = load_config(path)
        data["scalability"] = {**data.get("scalability", {}), "runs": 200}
        run_experiment(resolve_config(data))
        steps[f"run {path}"] = sorted(sys.modules)
print(json.dumps({"exits": exits, "steps": steps}))
"""

# validate an optics config through the command line, then resolve and
# run it, with the modules loaded after validating and before and after
# the run
RUN_AFTER_RESOLVE = """
import contextlib, io, json, sys
from wgqed.cli import main
from wgqed.config import load_config, resolve_config
from wgqed.experiments import run_experiment
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = main(["validate", sys.argv[1]])
validated = sorted(sys.modules)
cfg = resolve_config(load_config(sys.argv[1]))
before = set(sys.modules)
run_experiment(cfg)
print(json.dumps({"exit": exit_code, "validated": validated,
                  "new": sorted(set(sys.modules) - before),
                  "loaded": sorted(sys.modules)}))
"""

# the module named first cannot be imported: validate every config given,
# then run the first (an optics config) and the last (a yield config of
# 200 runs)
WITHOUT = """
import contextlib, io, json, sys
sys.modules[sys.argv[1]] = None
from wgqed.cli import main
from wgqed.config import load_config, resolve_config
from wgqed.experiments import run_experiment
paths = sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    exits = [main(["validate", path]) for path in paths]
tables = []
for path in (paths[0], paths[-1]):
    data = load_config(path)
    if "scalability" in data:
        data["scalability"] = {**data["scalability"], "runs": 200}
    tables.append(len(run_experiment(resolve_config(data)).tables))
print(json.dumps({"exits": exits, "tables": tables}))
"""

LAZY_NAMES = """
import importlib, json, sys
import wgqed
listed = dir(wgqed)
loaded = sorted(sys.modules)
missing, differ = [], []
for module, names in json.loads(sys.argv[1]).items():
    owner = importlib.import_module(f"wgqed.{module}")
    missing += [n for n in names if n not in listed]
    differ += [n for n in names if getattr(wgqed, n) is not getattr(owner, n)]
star = {}
exec("from wgqed import *", star)
print(json.dumps({"loaded": loaded, "missing": missing, "differ": differ,
                  "star": sorted(n for n in star if n != "__builtins__")}))
"""


def _python(script, *args):
    """The JSON that ``script`` prints last in a fresh interpreter that
    finds wgqed in src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _test_only(modules):
    """The modules of the test-only libraries among ``modules``."""
    return [m for m in modules if m.split(".")[0] in TEST_ONLY]


def test_command_line_and_yield_runs_load_no_engine():
    got = _python(YIELD_RUN, *YIELD)
    assert got["exits"] == [0] * (1 + len(YIELD))
    for step, modules in got["steps"].items():
        assert _test_only(modules) == [], step
        assert not set(ENGINES) & set(modules), step


def _validates_and_runs_without(module):
    paths = OPTICS + YIELD
    got = _python(WITHOUT, module, *paths)
    assert got["exits"] == [0] * len(paths)
    assert all(n > 0 for n in got["tables"])


def test_every_config_validates_and_runs_without_scipy():
    _validates_and_runs_without("scipy")


def test_every_config_validates_and_runs_without_jsonschema():
    _validates_and_runs_without("jsonschema")


@pytest.mark.parametrize("path", OPTICS, ids=lambda p: p.stem)
def test_optics_run_imports_nothing_after_resolution(path):
    got = _python(RUN_AFTER_RESOLVE, path)
    assert got["exit"] == 0
    assert got["new"] == []
    assert _test_only(got["validated"]) == []
    assert _test_only(got["loaded"]) == []


def test_library_names_resolve_lazily_to_their_modules():
    got = _python(LAZY_NAMES, json.dumps(EXPORTS))
    assert _test_only(got["loaded"]) == []
    assert not set(ENGINES) & set(got["loaded"])
    assert got["missing"] == [] and got["differ"] == []
    assert got["star"] == sorted(n for names in EXPORTS.values()
                                 for n in names)
