"""Thread counts of the two OpenBLAS libraries after importing wgqed.

numpy bundles one OpenBLAS (``libscipy_openblas64_``) and scipy another
(``libscipy_openblas``).  ``import wgqed`` and the command line load
neither scipy module nor scipy's library; ``wgqed.scalability``, which a
yield config imports as it is resolved, loads scipy's library through
``scipy.special`` and sets its thread rule.  Each test imports modules in
a fresh interpreter whose environment holds no thread variable unless the
test sets one, and reads each loaded library's thread count through
ctypes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_DEFAULT_NUM_THREADS")

# Imports the given modules in turn, then prints each loaded library's
# thread count (null when not loaded or not readable), which libraries
# are loaded and whether os.environ came through the imports unchanged.
PROBE = """
import ctypes, json, os, sys
before = dict(os.environ)
for name in sys.argv[1:]:
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


def _probe(*modules, **env):
    """Import ``modules`` in a fresh interpreter whose environment has
    ``env`` and no other thread variable; the counts and whether
    ``os.environ`` stayed as it was."""
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the libraries in")
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    clean.update(env, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, *modules], env=clean,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _counts(*modules, **env):
    """The thread counts after importing ``modules``.  Importing
    wgqed.scalability loads both libraries, so a count that reads None
    there fails; a probe without it, such as scipy.linalg alone, skips
    instead."""
    got = _probe(*modules, **env)
    if None in got["counts"].values():
        message = ("numpy's or scipy's OpenBLAS thread count is not "
                   f"readable: {got['counts']}")
        if "wgqed.scalability" in modules:
            pytest.fail(message)
        pytest.skip(message)
    return got["counts"]


@pytest.mark.parametrize("module", ["wgqed", "wgqed.cli"])
def test_wgqed_and_cli_load_no_scipy_library(module):
    # the probe finds scipy's library once loaded (the tests below)
    assert "scipy" not in _probe(module)["loaded"]


# whichever entry point comes first, scipy's library loads with one thread
# when wgqed.scalability imports scipy.special, as a yield config is
# resolved after `wgqed.cli` has been imported
@pytest.mark.parametrize("module", ["wgqed", "wgqed.scalability",
                                    "wgqed.cli"])
def test_scipy_library_loads_single_threaded(module):
    assert _counts(module, "wgqed.scalability")["scipy"] == 1


def test_numpy_library_keeps_its_own_count():
    assert _counts("wgqed.scalability")["numpy"] == \
        _probe("numpy")["counts"]["numpy"]


def test_environment_unchanged_by_the_import():
    for modules in (["wgqed"], ["wgqed.cli"], ["wgqed.scalability"]):
        assert _probe(*modules)["environ"]
        assert _probe(*modules, OPENBLAS_NUM_THREADS="2")["environ"]


@pytest.mark.parametrize("var", THREAD_VARS)
def test_user_thread_variable_wins(var):
    alone = _counts("scipy.linalg", **{var: "2"})
    if alone["scipy"] != 2:
        pytest.skip(f"OpenBLAS runs {alone['scipy']} thread(s) when 2 "
                    "are asked for on this machine")
    assert _counts("wgqed.scalability", **{var: "2"}) == alone
    assert _counts("wgqed.cli", "wgqed.scalability", **{var: "2"}) == alone


def test_scipy_imported_first_is_left_alone():
    got = _probe("scipy.linalg", "wgqed.scalability")
    assert got["environ"]
    assert got["counts"] == _probe("scipy.linalg")["counts"]
