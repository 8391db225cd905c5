"""Tables built from engine arrays: one strict column zip, rows in the
order the benchmark's corruptions assume (perfbench/selftest.py), and a
column-block writer whose text equals a row-by-row ``_fmt`` loop's."""

import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wgqed.config import (WRITE_BLOCK_ROWS, resolve_config,
                          scalability_config, table_bytes, trace_times,
                          write_block_rows)
from wgqed.dynamics import intensity_traces, pulsed_g2_map
from wgqed import experiments, floattext
from wgqed.experiments import (ResultBundle, Rows, _DEDUPE_MIN,
                               _FLOAT_BLOCK_MIN, _fields, _fmt, _table,
                               run_detuning_sweep, run_g2_map, run_lifetime)
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


class TestRows:
    def rows(self):
        return _table(["t", "port", "n"], np.array([0.5, -0.0, 2.0]),
                      ["LL", "RR", "LR"], np.arange(3))[1]

    def test_length_iteration_and_indexing(self):
        rows = self.rows()
        assert isinstance(rows, Rows)
        assert len(rows) == 3
        assert list(rows) == [(0.5, "LL", 0), (-0.0, "RR", 1), (2.0, "LR", 2)]
        assert rows[0] == (0.5, "LL", 0)
        assert rows[-1] == rows[2] == (2.0, "LR", 2)
        with pytest.raises(IndexError):
            rows[3]
        with pytest.raises(TypeError):
            rows[0:2]

    def test_row_edit_as_the_benchmark_corrupts(self):
        # perfbench/selftest.edit rebuilds each row tuple around one value
        rows = self.rows()
        edited = [r[:1] + (v,) + r[2:] for r, v in zip(rows, "xyz")]
        assert edited == [(0.5, "x", 0), (-0.0, "y", 1), (2.0, "z", 2)]

    def test_array_and_equality(self):
        rows = self.rows()
        listed = [tuple(r) for r in rows]
        assert np.array_equal(np.array(rows), np.array(listed))
        assert rows == listed and listed == rows
        assert rows != listed[:2]
        assert rows != listed[:2] + [(2.0, "LR", 3)]
        assert np.array_equal(np.array(_table(["a", "b"], np.arange(4.0),
                                              np.ones(4))[1]),
                              np.column_stack([np.arange(4.0), np.ones(4)]))


def _rows_text(rows):
    """The reference writer: one ``_fmt`` call per value, row by row."""
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def _body(path):
    """The CSV rows of a written table, below its four comment lines and
    its header."""
    return "".join(path.read_text().splitlines(keepends=True)[5:])


SPECIAL = [0.0, -0.0, float("nan"), -float("nan"), float("inf"),
           -float("inf"), 5e-324, 1e16, 1e-05, 0.1, -2.2250738585072014e-308]


def _columns(n):
    """Every kind of column a table holds, n values each: repeated
    floats with both zeros, distinct floats, a strided float view,
    float32, int64 and bool arrays, strings, and a list of mixed
    scalars."""
    rng = np.random.default_rng(n)
    specials = np.resize(np.array(SPECIAL), n)
    return [specials, rng.standard_normal(n) * 1e-3,
            rng.random(2 * n)[::2], rng.random(n).astype(np.float32),
            np.arange(n, dtype=np.int64) - 7, np.arange(n) % 3 == 0,
            [f"p{k % 4}" for k in range(n)],
            [[np.float32(0.1), 1e-05, np.int64(-3), True, "LR", -0.0,
              np.float64(5e-324)][k % 7] for k in range(n)]]


@pytest.mark.parametrize("n", [
    1, _DEDUPE_MIN - 1, _DEDUPE_MIN, _FLOAT_BLOCK_MIN // 4 - 1,
    _FLOAT_BLOCK_MIN // 4, WRITE_BLOCK_ROWS,
    2 * WRITE_BLOCK_ROWS + _DEDUPE_MIN - 1, 2 * WRITE_BLOCK_ROWS + 5,
    write_block_rows(4) + _DEDUPE_MIN])
def test_writer_text_equals_the_row_writer(tmp_path, n):
    columns = _columns(n)
    names = [f"c{k}" for k in range(len(columns))]
    table = _table(names, *columns)
    listed = [tuple(r) for r in table[1]]
    # the float arrays alone: formatted by floattext from
    # _FLOAT_BLOCK_MIN values a block, value by value below
    floats = _table(names[:4], *columns[:4])
    bundle = ResultBundle("tables", {"columns": table,
                                     "listed": (names, listed),
                                     "floats": floats,
                                     "empty": _table(names, *[[]] * 8)})
    bundle.write(tmp_path)
    expected = _rows_text(listed)
    assert _body(tmp_path / "tables" / "columns.csv") == expected
    assert _body(tmp_path / "tables" / "listed.csv") == expected
    assert _body(tmp_path / "tables" / "floats.csv") == \
        _rows_text(r[:4] for r in listed)
    assert _body(tmp_path / "tables" / "empty.csv") == ""
    assert expected.count("\n") == n


def test_distinct_block_stops_a_columns_sorts(tmp_path, monkeypatch):
    # a column whose blocks are all distinct, one whose blocks repeat
    # (with ±0.0 and NaNs), and one that is distinct in its first block
    # and repeats ±0.0 and NaNs after it; the last block is short
    rows, last = write_block_rows(3), _FLOAT_BLOCK_MIN // 2
    n = 3 * rows + last
    rng = np.random.default_rng(n)
    specials = np.resize(np.array(SPECIAL), n)
    columns = [rng.standard_normal(n), specials,
               np.concatenate([rng.random(rows), specials[rows:]])]
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique",
                        lambda a, **kw: sorts.append(len(a)) or
                        unique(a, **kw))
    ResultBundle("tables", {"t": _table(["a", "b", "c"], *columns)}).write(
        tmp_path)
    assert _body(tmp_path / "tables" / "t.csv") == \
        _rows_text(zip(*(c.tolist() for c in columns)))
    # the distinct columns sort their first block only; the repeating one
    # sorts each of its four blocks
    assert sorted(sorts) == [last] + [rows] * 5


def test_repeating_column_formats_each_value_once(tmp_path, monkeypatch):
    # g2-map's t2 column: each block hands its 401 distinct values, and
    # any new ones, to float_text once, and float.__repr__ runs once for
    # each of those that float_text does not certify itself: here 0.0 and
    # the powers of two ±0.25, ±0.5, ±1 and ±2
    rows = write_block_rows(1)
    t2 = np.tile(np.linspace(-2.0, 2.0, 401), 3 * rows // 401 + 1)
    t2 = t2[:3 * rows]
    t2[-100:] += 1e-3
    formatted, calls = [], []

    class Counted(float):
        def __repr__(self):
            formatted.append(self)
            return float.__repr__(self)

    float_text = experiments.float_text
    monkeypatch.setattr(floattext, "float", Counted, raising=False)
    monkeypatch.setattr(experiments, "float_text",
                        lambda v: calls.append(len(v)) or float_text(v))
    ResultBundle("tables", {"t": _table(["t2"], t2)}).write(tmp_path)
    assert _body(tmp_path / "tables" / "t.csv") == \
        _rows_text(zip(t2.tolist()))
    blocks = [np.unique(t2[lo:lo + rows]) for lo in range(0, len(t2), rows)]
    assert calls == [len(b) for b in blocks] == [401, 401, 501]
    assert sorted(formatted) == sorted(
        v for b in blocks for v in b.tolist()
        if v == 0 or abs(np.frexp(v)[0]) == 0.5)
    assert len(formatted) == 9 + 9 + 9


@pytest.mark.parametrize("n", [5, 700, 3 * WRITE_BLOCK_ROWS])
def test_table_bytes_bounds_a_table_and_its_write(tmp_path, n):
    # every value's text is 24 characters long, the longest a float has;
    # two array columns and two list columns of boxed floats
    rng = np.random.default_rng(n)
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        items = [SimpleNamespace(a=np.float64(-(1 + x) * 1e-300),
                                 b=np.float64(-(1 + x) * 1e-301))
                 for x in rng.random(n)]
        table = _table(["a", "b", "c", "d"], -(1 + rng.random(n)) * 1e-300,
                       -(1 + rng.random(n)) * 1e-300,
                       *_fields(items, "a", "b"))
        del items
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        ResultBundle("tables", {"t": table}).write(tmp_path)
        writing = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
    # beside the estimate: the header, the open file and metadata.json
    assert held + writing <= table_bytes(n, 4) + 64 * 1024


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
