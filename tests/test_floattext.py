"""floattext.float_text against ``float.__repr__``, its oracle: random bit
patterns, the powers of two and of ten and their neighbours, the integers
around 2**53, both notation switches, the special values, and every float
that the example configs put in their tables."""

from pathlib import Path

import numpy as np
import pytest

from wgqed.config import load_config, resolve_config
from wgqed.experiments import run_experiment
from wgqed.floattext import WIDTH, float_text

CONFIGS = sorted((Path(__file__).resolve().parent.parent
                  / "configs").glob("*.yaml"))


def _mismatches(values, chunk=1 << 16):
    """The repr of each value whose float_text differs from it."""
    values = np.asarray(values, np.float64)
    wrong = []
    for lo in range(0, len(values), chunk):
        text = list(map(float.__repr__, values[lo:lo + chunk].tolist()))
        got = float_text(values[lo:lo + chunk]).view(f"S{WIDTH}").ravel()
        wrong += [text[i] for i in np.flatnonzero(
            got != np.array(text, f"S{WIDTH}"))]
    return wrong


def _neighbours(values, ulps=1):
    """Each value and the floats up to ``ulps`` steps either side."""
    bits = np.asarray(values, np.float64).view(np.int64)
    steps = np.arange(-ulps, ulps + 1)
    # the step from +0.0 down wraps to the largest NaN pattern: still a float
    return (bits[:, None] + steps).ravel().view(np.float64)


def _random_bits():
    return np.random.default_rng(20291).integers(
        -2 ** 63, 2 ** 63, 10 ** 6, dtype=np.int64).view(np.float64)


def _powers():
    twos = [2.0 ** e for e in range(-1074, 1024)]
    tens = [10.0 ** k for k in range(-323, 309)]
    return _neighbours(twos + [-t for t in twos] + tens + [-t for t in tens])


def _around_2_53():
    return np.array([float(2 ** 53 + i) for i in range(-300, 301)]
                    + [float(-2 ** 53 + i) for i in range(-300, 301)])


def _notation_switches():
    # 1e-4 and 1e16 and the floats just below them, whose shortest text
    # may round up across the switch
    return _neighbours([1e-4, 9.999999999999999e-05, 1e16,
                        9999999999999998.0, -1e-4, -1e16], ulps=1000)


def _specials():
    nan = float("nan")
    return np.array([0.0, -0.0, nan, -nan, float("inf"), -float("inf")])


@pytest.mark.parametrize("values", [
    _random_bits, _powers, _around_2_53, _notation_switches, _specials],
    ids=lambda f: f.__name__.strip("_"))
def test_float_text_equals_repr(values):
    assert _mismatches(values()) == []


def _table_floats(cfg):
    """Every float of every table of cfg's run."""
    floats = []
    for _, rows in run_experiment(cfg).tables.values():
        for column in rows.columns:
            column = np.asarray(column, object) if isinstance(column, list) \
                else column
            if column.dtype.kind == "f":
                floats.append(column.astype(np.float64))
            else:
                floats.append(np.array(
                    [v for v in column.tolist() if isinstance(v, float)],
                    np.float64))
    return np.concatenate(floats)


def test_float_text_equals_repr_on_the_example_tables():
    # the yield configs at 200 runs: 200 000 would take seconds
    floats = []
    for path in CONFIGS:
        data = load_config(path)
        if "scalability" in data:
            data["scalability"] = {**data["scalability"], "runs": 200}
        floats.append(_table_floats(resolve_config(data)))
    floats = np.concatenate(floats)
    assert len(floats) > 10 ** 6
    assert _mismatches(floats) == []
