"""OpenBLAS libraries and thread counts after importing and running wgqed.

numpy bundles one OpenBLAS (``libscipy_openblas64_``) and scipy another
(``libscipy_openblas``).  No wgqed module imports scipy, so no entry
point, and no run, a yield run included, loads scipy's library; wgqed
sets no thread variable and leaves numpy's library at the count that the
user's environment, or its own default, gives it.  Each test imports
modules, and runs configs, in a fresh interpreter whose environment holds
no thread variable unless the test sets one, and reads each loaded
library's thread count through ctypes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
YIELD_CONFIG = ROOT / "configs" / "scalability.yaml"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_DEFAULT_NUM_THREADS")

# Imports each module given and runs each config given (a .yaml path, at
# 200 Monte Carlo runs), in turn, then prints each loaded library's thread
# count (null when not loaded or not readable), which libraries are loaded
# and whether os.environ came through unchanged.
PROBE = """
import ctypes, json, os, sys
before = dict(os.environ)
for name in sys.argv[1:]:
    if name.endswith(".yaml"):
        from wgqed.config import load_config, resolve_config
        from wgqed.experiments import run_experiment
        data = load_config(name)
        data["scalability"] = {**data["scalability"], "runs": 200}
        run_experiment(resolve_config(data))
    else:
        __import__(name)
counts = {"numpy": None, "scipy": None}
loaded = set()
getters = {"numpy": "scipy_openblas_get_num_threads64_",
           "scipy": "scipy_openblas_get_num_threads"}
with open("/proc/self/maps") as fh:
    paths = {line.split()[-1] for line in fh}
for path in paths:
    lib = ("numpy" if "libscipy_openblas64_" in path else
           "scipy" if "libscipy_openblas" in path else None)
    if lib is not None:
        loaded.add(lib)
        getter = getattr(ctypes.CDLL(path), getters[lib], None)
        if getter is not None:
            counts[lib] = getter()
print(json.dumps({"counts": counts, "loaded": sorted(loaded),
                  "environ": dict(os.environ) == before}))
"""

# the entry points, and a yield run after the command line's imports
ENTRY_POINTS = {"wgqed": ("wgqed",), "wgqed.cli": ("wgqed.cli",),
                "wgqed.scalability": ("wgqed.scalability",),
                "yield run": ("wgqed.cli", str(YIELD_CONFIG))}


def _probe(*steps, **env):
    """Take ``steps`` in a fresh interpreter whose environment has ``env``
    and no other thread variable; what it loaded, the thread counts and
    whether ``os.environ`` stayed as it was."""
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the libraries in")
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    clean.update(env, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, *steps], env=clean,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _numpy_count(*steps, **env):
    """numpy's OpenBLAS thread count after ``steps``; fails when it is not
    readable, since numpy alone loads it."""
    got = _probe(*steps, **env)
    assert "numpy" in got["loaded"]
    if got["counts"]["numpy"] is None:
        pytest.fail(f"numpy's OpenBLAS thread count is not readable: {got}")
    return got["counts"]["numpy"]


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_wgqed_and_cli_load_no_scipy_library(module):
    # the probe finds scipy's library once loaded
    assert "scipy" in _probe("scipy.linalg")["loaded"]
    assert "scipy" not in _probe(*ENTRY_POINTS[module])["loaded"]


# numpy is imported last, so that a thread variable set on the way would
# show in its count
def test_numpy_library_keeps_its_own_count():
    alone = _numpy_count("numpy")
    for steps in ENTRY_POINTS.values():
        assert _numpy_count(*steps, "numpy") == alone


def test_environment_unchanged_by_the_import():
    for steps in ENTRY_POINTS.values():
        assert _probe(*steps)["environ"]
        assert _probe(*steps, OPENBLAS_NUM_THREADS="2")["environ"]


@pytest.mark.parametrize("var", THREAD_VARS)
def test_user_thread_variable_wins(var):
    alone = _numpy_count("numpy", **{var: "2"})
    if alone != 2:
        pytest.skip(f"OpenBLAS runs {alone} thread(s) when 2 are asked "
                    "for on this machine")
    for steps in ENTRY_POINTS.values():
        assert _numpy_count(*steps, "numpy", **{var: "2"}) == alone


def test_scipy_imported_first_is_left_alone():
    got = _probe("scipy.linalg", "wgqed.scalability")
    assert got["environ"]
    assert got["counts"] == _probe("scipy.linalg")["counts"]
