import contextlib
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import gammaln
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import chi2, poisson

from wgqed import scalability
from wgqed.scalability import (CHUNK, DENSE_SHARE, MODES, NDTRI_MARGIN,
                               SQRT_2PI, ScalabilityConfig, YieldResult,
                               _log_factorial, _min_spreads, _success_counts,
                               chunk_bytes, conditional_success_count, ndtri,
                               min_feasible_spread, poisson_weights,
                               probabilities_per_waveguide,
                               probability_per_chip,
                               probability_per_waveguide)

from _oracles import (brute_force_min_spread, distinct_regions_probability,
                      qmc_conditional_probability)


def config(**kw):
    base = dict(mu_qd=35.0, sigma_qd=15.0, delta_lambda=0.15, n_reg=3,
                n_set=3, n_wg=100, runs=10_000, seed=7, mode="consecutive")
    base.update(kw)
    return ScalabilityConfig(**base)


class TestPoissonWeights:
    def test_mu35_truncation(self):
        ws = poisson_weights(35.0)
        assert ws[-1][0] >= 54
        assert sum(w for _, w in ws) >= 0.9995

    def test_tiny_mu_single_term(self):
        ws = poisson_weights(1e-6)
        assert ws[0][0] == 0
        assert ws[0][1] == pytest.approx(1.0, abs=1e-5)

    def test_not_renormalized(self):
        ws = poisson_weights(10.0)
        assert sum(w for _, w in ws) < 1.0

    @pytest.mark.parametrize("mu", [1e-6, 0.5, 5, 10, 20, 35, 50, 75, 100,
                                    123.4, 200, 300])
    def test_equals_scipy_stats_pmf(self, mu):
        want = []
        acc = 0.0
        while acc < 0.9995:
            want.append((len(want), float(poisson.pmf(len(want), mu))))
            acc += want[-1][1]
        got = poisson_weights(mu)
        assert got == want
        assert all(type(n) is int and type(w) is float for n, w in got)


    def test_log_factorial_is_scipy_gammaln(self):
        # Cephes lgam with libm's log: scipy's bits on 1 … 100 000
        n = np.arange(100_000)
        assert np.array_equal(_log_factorial(n), gammaln(n + 1.0))


EXP_M2 = np.exp(-2.0)


class TestNdtri:
    """wgqed's port of Cephes ndtri against scipy's, a test-only oracle."""

    def test_central_branch_has_scipy_bits(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(EXP_M2, 1 - EXP_M2, 1_000_000)
        edges = [np.nextafter(EXP_M2, 1.0), 0.5, np.nextafter(0.5, 0.0),
                 1 - EXP_M2, np.nextafter(1 - EXP_M2, 0.0)]
        u = np.concatenate([u, edges])
        assert np.array_equal(ndtri(u), scipy_ndtri(u))

    def test_tails_within_a_few_ulp(self):
        # numpy's log may round differently from libm's, by an ulp that
        # the tail formula carries into a few ulp of the result
        rng = np.random.default_rng(4)
        tail = np.concatenate([rng.uniform(0.0, EXP_M2, 1_000_000),
                               10.0 ** -rng.uniform(0.9, 300.0, 200_000),
                               [EXP_M2, 5e-324, 1e-14, 1.2664165549e-14]])
        tail = np.concatenate([tail, 1 - tail[tail > 1e-16]])
        got, want = ndtri(tail), scipy_ndtri(tail)
        assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))
        assert np.count_nonzero(got != want) < 1e-3 * len(tail)

    def test_edges(self):
        y = np.array([0.0, 1.0, -0.0, -1e-300, -0.5, 1.0 + 2e-16, 2.0,
                      np.nan, np.inf, -np.inf, 0.5])
        got = ndtri(y)
        assert np.array_equal(got, scipy_ndtri(y), equal_nan=True)
        assert got[0] == -np.inf and got[1] == np.inf and got[-1] == 0.0
        assert np.isnan(got[3:10]).all()
        assert ndtri(0.5) == 0.0 and ndtri(np.float64(0.0)) == -np.inf

    def test_out_on_a_non_contiguous_view(self, monkeypatch):
        # as the dense branch calls it: rows of the spacing buffer without
        # its last column, in blocks of fewer rows than the view holds
        monkeypatch.setattr(scalability, "NDTRI_BLOCK", 1000)
        rng = np.random.default_rng(5)
        buffer = rng.random((700, 56))
        before = buffer.copy()
        view = buffer[::2, :-1]
        want = ndtri(view.copy())
        got = ndtri(view, out=view)
        assert got is view
        assert np.array_equal(view, want)
        assert np.array_equal(want, ndtri(np.ascontiguousarray(
            before[::2, :-1])))
        assert np.array_equal(buffer[1::2], before[1::2])
        assert np.array_equal(buffer[:, -1], before[:, -1])
        pieces = np.empty(len(view) * 55)
        ndtri(before[::2, :-1].reshape(-1), out=pieces)
        assert np.array_equal(pieces.reshape(view.shape), want)


def blocks_of(block):
    """Patches that walk every chunk in row blocks of ``block`` rows."""
    return (mock.patch.object(scalability, "BLOCK_ROWS", block),
            mock.patch.object(scalability, "BLOCK_BYTES", 0))


def stream(n_qd, cfg, chunk_index, m, top, block=None):
    """Chunk ``chunk_index`` of m rows as ``_walk`` streams it, in its own
    row blocks or in blocks of ``block`` rows: each block's close mask
    (None where the bound is skipped), what ``_walk`` yields for it, and
    the regions of every row, sparse blocks' included."""
    masks, drawn = [], []
    close, labels = scalability._close, scalability._labels

    def recorded_close(*args):
        masks.append(close(*args))
        return masks[-1]

    def recorded_labels(flat, regions, k):
        drawn.append(regions)
        return labels(flat, regions, k)

    walked = []
    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(scalability, "_close",
                                                recorded_close))
        patches.enter_context(mock.patch.object(scalability, "_labels",
                                                recorded_labels))
        for patch in () if block is None else blocks_of(block):
            patches.enter_context(patch)
        for out in scalability._walk(n_qd, cfg, chunk_index, m, top):
            walked.append(out)
            if not out[0]:
                drawn.append(out[3])
    return masks, walked, np.concatenate(drawn)


def draw_wavelengths(n_qd, cfg, chunk_index, m, block=None):
    """Every row of a chunk as sorted wavelengths (σ units) and regions,
    read from the streamed blocks at a top that keeps every row."""
    _, walked, regions = stream(n_qd, cfg, chunk_index, m, np.inf, block)
    assert all(not sparse and index is None
               for sparse, index, _, _ in walked)
    return np.concatenate([lam for _, _, lam, _ in walked]), regions


def unfiltered_draw(n_qd, cfg, chunk_index, m):
    """Sorted wavelengths and int64 regions of a chunk from one draw of
    its whole Philox stream."""
    rng = Generator(Philox(SeedSequence(cfg.seed,
                                        spawn_key=(n_qd, chunk_index))))
    spacings = rng.standard_exponential((m, n_qd + 1))
    lam = ndtri(np.cumsum(spacings[:, :-1], axis=1)
                / spacings.sum(axis=1, keepdims=True))
    return lam, rng.integers(0, cfg.n_reg, size=(m, n_qd))


class TestSampleWaveguide:
    """The waveguide sampler ``_walk``: sorted wavelengths, 0-based
    regions."""

    def test_shapes_and_ranges(self):
        for block in (None, 1, 2):
            lam, regions = draw_wavelengths(20, config(), 0, 5, block)
            assert lam.shape == regions.shape == (5, 20)
            assert regions.min() >= 0 and regions.max() <= 2
            assert np.all(np.diff(lam, axis=1) >= 0)

    def test_single_region(self):
        _, regions = draw_wavelengths(15, config(n_reg=1, n_set=1), 0, 5)
        assert np.all(regions == 0)

    @pytest.mark.parametrize("n_reg", [1, 2, 3, 12, 64])
    def test_int32_regions_equal_default_draw(self, n_reg):
        # _walk asks for int32 regions; numpy must give the values of its
        # default int64 draw and leave the generator where that leaves it
        def generator():
            rng = Generator(Philox(SeedSequence(5, spawn_key=(40, 2))))
            rng.standard_exponential((300, 41))
            return rng

        wide, narrow = generator(), generator()
        default = wide.integers(0, n_reg, size=(300, 40))
        small = narrow.integers(0, n_reg, size=(300, 40), dtype=np.int32)
        assert default.dtype == np.int64 and small.dtype == np.int32
        assert np.array_equal(default, small)
        assert np.array_equal(wide.standard_exponential(64),
                              narrow.standard_exponential(64))
        assert np.array_equal(wide.integers(0, n_reg, size=65),
                              narrow.integers(0, n_reg, size=65))
        # and _walk draws a chunk's spacings block by block into a reused
        # buffer, then its regions block by block: the values of one
        # whole-chunk draw of each, and the generator left where those
        # leave it, whatever the blocks (odd counts of 32-bit draws, a
        # partial last block)
        for block in (1, 7, 64, 300):
            whole = Generator(Philox(SeedSequence(5, spawn_key=(40, 2))))
            blocks = Generator(Philox(SeedSequence(5, spawn_key=(40, 2))))
            spacings = whole.standard_exponential((301, 41))
            regions = whole.integers(0, n_reg, size=(301, 40),
                                     dtype=np.int32)
            starts = range(0, 301, block)
            buffer, got = np.empty((block, 41)), []
            for start in starts:
                rows = buffer[:min(block, 301 - start)]
                blocks.standard_exponential(out=rows)
                got.append(rows.copy())
            assert np.array_equal(np.concatenate(got), spacings)
            assert np.array_equal(np.concatenate([
                blocks.integers(0, n_reg, size=(min(block, 301 - start), 40),
                                dtype=np.int32) for start in starts]),
                regions)
            assert np.array_equal(whole.standard_exponential(64),
                                  blocks.standard_exponential(64))
            assert np.array_equal(whole.integers(0, n_reg, size=65),
                                  blocks.integers(0, n_reg, size=65))

    def test_region_counts_uniform_chi2(self):
        n_samples, n_qd = 10_000, 10
        _, regions = draw_wavelengths(n_qd, config(n_reg=4, n_set=4,
                                                   seed=42), 0, n_samples)
        counts = np.bincount(regions.ravel(), minlength=4)
        expected = n_samples * n_qd / 4
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.999, df=3)


class TestMinFeasibleSpread:
    def test_consecutive_counterexample(self):
        regions = ["A", "B", "B", "C"]
        lam = [1.0, 2.0, 3.0, 4.0]
        assert min_feasible_spread(lam, regions, 3, "consecutive") == np.inf
        assert min_feasible_spread(lam, regions, 3, "window_distinct") == \
            pytest.approx(3.0)

    def test_set_of_one(self):
        assert min_feasible_spread([5.0], ["A"], 1) == 0.0

    def test_three_distinct_close_succeeds_both_modes(self):
        lam = [0.0, 0.05, 0.1]
        regions = [1, 2, 3]
        for mode in ("consecutive", "window_distinct"):
            assert min_feasible_spread(lam, regions, 3, mode) == \
                pytest.approx(0.1)

    def test_too_few_regions_infeasible(self):
        assert min_feasible_spread([1.0, 2.0], [1, 1], 2) == np.inf

    def test_zero_spread_always_succeeds(self):
        regions = np.array([1, 2, 3, 1])
        lam = np.zeros(4)
        assert min_feasible_spread(lam, regions, 3) == pytest.approx(0.0)

    @pytest.mark.parametrize("mode", ["consecutive", "window_distinct"])
    def test_matches_brute_force(self, mode):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = rng.integers(2, 9)
            n_set = int(rng.integers(2, min(n, 4) + 1))
            regions = rng.integers(0, 4, size=n)
            lam = rng.normal(size=n)
            got = min_feasible_spread(lam, regions, n_set, mode)
            want = brute_force_min_spread(lam, regions, n_set, mode)
            assert got == pytest.approx(want) or (got == np.inf
                                                  and want == np.inf)

    def test_window_never_exceeds_consecutive(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(3, 10))
            regions = rng.integers(0, 4, size=n)
            lam = rng.normal(size=n)
            w = min_feasible_spread(lam, regions, 3, "window_distinct")
            c = min_feasible_spread(lam, regions, 3, "consecutive")
            assert w <= c


@st.composite
def spread_batches(draw):
    """Sorted rows with ties, n < n_set, too few regions and n_reg = 12."""
    n_reg = draw(st.sampled_from([1, 2, 3, 4, 5, 12]))
    n_set = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))
    lam = draw(st.lists(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                        min_size=m, max_size=m))
    regions = draw(st.lists(st.lists(st.integers(0, n_reg - 1), min_size=n,
                                     max_size=n), min_size=m, max_size=m))
    lam = np.sort(np.asarray(lam, dtype=float).reshape(m, n) / 4, axis=1)
    return lam, np.asarray(regions, dtype=np.int64).reshape(m, n), n_set


def _batch(lam, regions, n_set):
    return (np.asarray(lam, dtype=float), np.asarray(regions, dtype=np.int64),
            n_set)


def partition_min_spreads(lam, regions, n_set):
    """The ``window_distinct`` scan with the n_set-th largest last index
    taken by ``np.partition`` for every n_set: the reference for the
    n_set = n_reg fast path."""
    m, n = lam.shape
    rows = np.arange(m)
    last = np.full((m, max(int(regions.max()) + 1, n_set)), -1)
    best = np.full(m, np.inf)
    for j in range(n):
        last[rows, regions[:, j]] = j
        start = np.partition(last, -n_set, axis=1)[:, -n_set]
        spread = np.where(start >= 0, lam[:, j] - lam[rows, start], np.inf)
        np.minimum(best, spread, out=best)
    return best


class TestSpreadKernel:
    @pytest.mark.parametrize("mode", ["consecutive", "window_distinct"])
    @settings(max_examples=300, deadline=None)
    @given(batch=spread_batches())
    # n_set = n_reg: ties, and a region missing from one row
    @example(batch=_batch([[0.0, 0.5, 0.5, 1.0]], [[0, 0, 0, 0]], 1))
    @example(batch=_batch([[0.0, 0.25, 0.25, 0.25, 0.5, 1.0],
                           [0.0, 0.0, 0.5, 0.75, 0.75, 1.5]],
                          [[0, 1, 1, 2, 0, 1], [0, 2, 0, 2, 2, 0]], 3))
    @example(batch=_batch([[0.0, 0.0, 0.25, 0.5, 0.5, 0.5, 1.0],
                           [0.25, 0.5, 0.5, 0.75, 1.0, 1.0, 1.25]],
                          [[3, 0, 1, 1, 2, 3, 0], [0, 1, 0, 1, 2, 2, 1]], 4))
    def test_matches_brute_force_row_by_row(self, mode, batch):
        lam, regions, n_set = batch
        got = _min_spreads(lam, regions, n_set, mode)
        want = [brute_force_min_spread(l, r, n_set, mode)
                for l, r in zip(lam, regions)]
        assert got.tolist() == want

    @pytest.mark.parametrize("mode", ["consecutive", "window_distinct"])
    @settings(max_examples=200, deadline=None)
    @given(batch=spread_batches())
    def test_finite_spread_at_least_smallest_window(self, mode, batch):
        # the lemma behind the sample filter: every feasible set spans at
        # least n_set consecutive sorted emitters
        lam, regions, n_set = batch
        got = _min_spreads(lam, regions, n_set, mode)
        for spread, row in zip(got, lam):
            if np.isfinite(spread):
                assert spread >= min(row[j + n_set - 1] - row[j]
                                     for j in range(len(row) - n_set + 1))

    @pytest.mark.parametrize("mode", ["consecutive", "window_distinct"])
    @pytest.mark.parametrize("n", [0, 2, 7])
    def test_zero_rows(self, mode, n):
        got = _min_spreads(np.empty((0, n)), np.empty((0, n), dtype=np.int64),
                           2, mode)
        assert got.shape == (0,)

    @pytest.mark.parametrize("mode", ["consecutive", "window_distinct"])
    def test_success_count_equals_brute_force_count(self, mode):
        n_qd = 6
        cfg = config(n_reg=3, n_set=3, delta_lambda=0.5 * 15.0, runs=3_000,
                     mode=mode)
        lam, regions = draw_wavelengths(n_qd, cfg, 0, cfg.runs)
        dl = cfg.delta_lambda / cfg.sigma_qd
        want = sum(brute_force_min_spread(l, r, cfg.n_set, mode) <= dl
                   for l, r in zip(lam, regions))
        assert 0 < want < cfg.runs
        assert conditional_success_count(n_qd, cfg) == want

    @pytest.mark.parametrize("n_reg,n_set", [(3, 3), (4, 4), (12, 4)])
    def test_fast_path_equals_partition_on_a_chunk(self, n_reg, n_set):
        lam, regions = draw_wavelengths(10, config(n_reg=n_reg, n_set=n_set),
                                        0, CHUNK)
        got = _min_spreads(lam, regions, n_set, "window_distinct")
        assert np.array_equal(got, partition_min_spreads(lam, regions, n_set))
        assert np.isfinite(got).any() and np.isinf(got).any()


def unfiltered_success_counts(n_qd, config, runs, thresholds):
    """``_success_counts`` without the sample filter: every row of every
    chunk, drawn from the same Philox streams, goes through the kernels."""
    counts = {mode: np.zeros(len(t), dtype=np.int64)
              for mode, t in thresholds.items()}
    for chunk_index, done in enumerate(range(0, runs, scalability.CHUNK)):
        lam, regions = unfiltered_draw(n_qd, config, chunk_index,
                                       min(scalability.CHUNK, runs - done))
        for mode, t in thresholds.items():
            spreads = _min_spreads(lam, regions, config.n_set, mode)
            counts[mode] += [np.count_nonzero(spreads <= x) for x in t]
    return counts


def unfiltered_count(n_qd, cfg):
    return int(unfiltered_success_counts(
        n_qd, cfg, cfg.runs,
        {cfg.mode: [cfg.delta_lambda / cfg.sigma_qd]})[cfg.mode][0])


def shares(masks, n_qd, n_set):
    """The share of close windows in each streamed block's mask."""
    return [np.count_nonzero(c) / (len(c) * (n_qd - n_set + 1))
            for c in masks]


def switch_tops(n_qd, cfg, m, every=False):
    """Tops just below and just above the one from which the first chunk
    of m rows has DENSE_SHARE of its windows close, or, with ``every``,
    from which one of its row blocks has (bisected)."""
    lo, hi = 1e-6, SQRT_2PI / ((n_qd - 1) // (cfg.n_set - 1))
    for _ in range(30):
        mid = np.sqrt(lo * hi)
        masks = stream(n_qd, cfg, 0, m, mid)[0]
        if masks[0] is None:
            sparse = False
        elif every:
            sparse = max(shares(masks, n_qd, cfg.n_set)) < DENSE_SHARE
        else:
            sparse = shares([np.concatenate(masks)], n_qd,
                            cfg.n_set)[0] < DENSE_SHARE
        lo, hi = (mid, hi) if sparse else (lo, mid)
    return lo, hi


def as_lists(counts):
    return {mode: c.tolist() for mode, c in counts.items()}


def as_lists_per_n(counts):
    return [as_lists(c) for c in counts]


# 1000 is above every spread a sample can have
TUNING_RANGES = [0.0, 1e-6, 0.01, 1.0, 1e3]


@st.composite
def yield_groups(draw):
    """A grouped count: n_set of 1, n_reg and between, one or both modes,
    several chunks of a small CHUNK, the last one partial, each walked in
    its own row blocks or in blocks of 1 to 1000 rows (one block to many,
    the last partial).  The largest tuning range drops every row, some
    rows (0.01 and 1) or none."""
    n_reg = draw(st.sampled_from([1, 2, 3, 4, 12]))
    between = draw(st.integers(min(2, n_reg), n_reg))
    n_set = draw(st.sampled_from([1, n_reg, between, between, between]))
    modes = draw(st.sampled_from([MODES[:1], MODES[1:], MODES]))
    top = draw(st.sampled_from([0, 1, 2, 2, 2, 3, 3, 3, 4]))
    thresholds = {mode: draw(st.lists(
        st.sampled_from(TUNING_RANGES[:top + 1]), min_size=1, max_size=2))
        for mode in modes}
    thresholds[modes[0]].append(TUNING_RANGES[top])
    cfg = config(n_reg=n_reg, n_set=n_set,
                 seed=draw(st.integers(0, 2 ** 32 - 1)))
    return (draw(st.sampled_from(range(81))), cfg,
            draw(st.sampled_from(range(1, 401))), thresholds,
            draw(st.sampled_from([16, 64, 256])),
            draw(st.sampled_from([None, 1, 7, 16, 100, 1000])))


class TestSampleFilter:
    """Samples that cannot fit the largest tuning range are dropped before
    the quantile function and the kernels; the counts stay exact."""

    # per-N counts at the benchmark's published point (μ = 35,
    # δλ/σ = 0.01, n_reg = n_set = 3, seed 20240101, 20 000 runs) from
    # the unfiltered sampler
    PUBLISHED_COUNTS = {
        "consecutive": [
            0, 0, 0, 0, 0, 1, 2, 7, 9, 15, 13, 25, 20, 31, 48, 64, 54, 68,
            101, 112, 145, 131, 181, 189, 249, 264, 305, 327, 380, 421, 431,
            473, 543, 607, 679, 698, 772, 851, 950, 947, 1044, 1154, 1219,
            1263, 1467, 1483, 1582, 1633, 1790, 1843, 1954, 2139, 2271,
            2408, 2543, 2560, 2734],
        "window_distinct": [
            0, 0, 0, 0, 0, 1, 2, 7, 9, 15, 13, 25, 20, 31, 48, 64, 54, 68,
            102, 113, 146, 133, 183, 192, 255, 265, 306, 329, 383, 425, 434,
            476, 546, 616, 691, 704, 778, 859, 965, 963, 1053, 1173, 1231,
            1282, 1489, 1500, 1609, 1663, 1816, 1870, 1985, 2177, 2309,
            2446, 2604, 2604, 2780],
    }

    def test_normal_quantile_slope_bound(self):
        # the lemma behind the uniform-space filter, held by wgqed's ndtri
        rng = np.random.default_rng(11)
        tails = 10.0 ** -rng.uniform(1.0, 12.5, (2, 50_000))
        near_edge = 10.0 ** -rng.uniform(11.5, 12.5, (2, 50_000))
        points = [rng.random((2, 100_000)), tails, 1 - tails, near_edge,
                  1 - near_edge, np.stack([tails[0], 1 - tails[1]])]
        for lo, hi in map(lambda x: np.sort(x, axis=0), points):
            for a, b in ((lo, hi), (lo, np.nextafter(lo, 1.0))):
                apart = b > a       # 1 − x rounds some pairs together
                a, b = a[apart], b[apart]
                assert len(a) > len(apart) / 2
                assert np.all(ndtri(b) - ndtri(a)
                              >= SQRT_2PI * (b - a) - NDTRI_MARGIN)

    @pytest.mark.parametrize("n_qd,n_reg,n_set,top", [
        (3, 3, 3, 0.01), (5, 3, 3, 1.0), (12, 4, 3, 0.01), (40, 3, 3, 0.01),
        (40, 12, 4, 0.1), (7, 2, 2, 1e-3)])
    def test_dropped_rows_cannot_fit(self, n_qd, n_reg, n_set, top):
        # a row without a close window fails in both modes
        cfg = config(n_reg=n_reg, n_set=n_set)
        lam, regions = draw_wavelengths(n_qd, cfg, 0, 4000)
        masks, _, kept_regions = stream(n_qd, cfg, 0, 4000, top, 300)
        assert np.array_equal(regions, kept_regions)
        kept = np.concatenate(masks).any(axis=1)
        assert 0 < kept.sum() < len(lam)
        windows = lam[:, n_set - 1:] - lam[:, :n_qd - n_set + 1]
        assert np.all(windows[~kept].min(axis=1) > top)

    @pytest.mark.parametrize("n_qd,n_reg,n_set,top", [
        (3, 3, 3, 0.01), (5, 3, 3, 1.0), (12, 4, 3, 0.01), (40, 3, 3, 0.01),
        (40, 12, 4, 0.1), (7, 2, 2, 1e-3), (56, 3, 3, 0.08),
        (120, 3, 2, 0.003), (30, 12, 4, 0.25), (9, 6, 6, 2.0)])
    def test_dropped_windows_cannot_fit(self, n_qd, n_reg, n_set, top):
        # the per-window bound: a window left unmarked spans more than top
        cfg = config(n_reg=n_reg, n_set=n_set)
        lam, _ = draw_wavelengths(n_qd, cfg, 0, 4000)
        close = np.concatenate(stream(n_qd, cfg, 0, 4000, top, 300)[0])
        width = n_qd - n_set + 1
        assert close.shape == (4000, n_qd + 1)
        assert not close[:, width:].any()
        dropped = ~close[:, :width]
        assert 0 < dropped.sum() < dropped.size
        windows = lam[:, n_set - 1:] - lam[:, :width]
        assert np.all(windows[dropped] > top)

    def test_draw_equals_unfiltered_sampler(self):
        # the bound marks windows and moves nothing: every row is drawn
        # as by the unfiltered sampler, whatever top.  A dense block
        # keeps the wavelengths of its kept rows; a sparse one the
        # quantile inputs of some of its close rows, and their regions
        cfg = config(n_reg=4, n_set=3)
        lam, regions = unfiltered_draw(30, cfg, 2, 500)
        for top in (0.0, 0.01, 0.1, np.inf):
            for block in (None, 1, 64):
                masks, walked, got_regions = stream(30, cfg, 2, 500, top,
                                                    block)
                assert np.array_equal(got_regions, regions)
                size = block or scalability._block_rows(30)
                for start, close, (sparse, index, got, labels) in zip(
                        range(0, 500, size), masks, walked):
                    rows = slice(start, start + size)
                    if not sparse:
                        assert np.array_equal(got, lam[rows] if index is None
                                              else lam[rows][index])
                        continue
                    assert np.array_equal(index - start * 31,
                                          np.flatnonzero(close))
                    near = close.any(axis=1)
                    assert np.isin(ndtri(got), lam[rows][near]).all()
                    assert np.isin(labels, regions[rows][near]).all()

    @pytest.mark.parametrize("n_reg,n_set", [
        (1, 1), (3, 1), (3, 2), (3, 3), (12, 1), (12, 2), (12, 3), (12, 4)])
    def test_counts_exact_around_switch_and_skip(self, monkeypatch, n_reg,
                                                 n_set):
        # tops on both sides of the sparse/dense switch (bisected on the
        # first chunk) and of the skip threshold, several chunks of 128
        # rows, the last partial, each one block or blocks of 1, 16 or 48
        # rows, the last partial
        monkeypatch.setattr(scalability, "CHUNK", 128)
        kept, keep = [], scalability._keep

        def recorded(spacings, total, close, n_set):
            out = keep(spacings, total, close, n_set)
            kept.append("skip" if close is None else
                        (out[0], shares([close], spacings.shape[1] - 1,
                                        n_set)[0]))
            return out

        monkeypatch.setattr(scalability, "_keep", recorded)
        runs = 300
        mixed = 0
        for n_qd in (n_set + 1, 9, 24, 61):
            cfg = config(n_reg=n_reg, n_set=n_set, runs=runs)
            tops = [1e-6, 0.01, 1.0]
            if n_set > 1 and n_qd > n_set:
                skip = SQRT_2PI / ((n_qd - 1) // (n_set - 1)) - NDTRI_MARGIN
                below, above = switch_tops(n_qd, cfg, 128)
                tops += [below, above, skip * 0.999, skip * 1.001]
            for top in tops:
                thresholds = {m: [0.0, top / 3, top] for m in MODES}
                want = as_lists(unfiltered_success_counts(n_qd, cfg, runs,
                                                          thresholds))
                for block in (None, 1, 16, 48):
                    first = len(kept)
                    with contextlib.ExitStack() as patches:
                        for patch in () if block is None else \
                                blocks_of(block):
                            patches.enter_context(patch)
                        assert as_lists(_success_counts(
                            n_qd, cfg, runs, thresholds)) == want
                    chunk = kept[first:first - (-128 // (block or 128))]
                    mixed += {k[0] for k in chunk if k != "skip"} \
                        == {True, False}
        blocks = [k for k in kept if k != "skip"]
        assert "skip" in kept
        if n_set > 1:
            # a block is sparse only below the switch (where its close
            # windows also fit in its spacing bytes), and some chunk has
            # blocks of both branches
            assert blocks and all(share < DENSE_SHARE
                                  for sparse, share in blocks if sparse)
            assert any(share >= DENSE_SHARE for _, share in blocks)
            assert 0 in [share for _, share in blocks]
            assert mixed > 0

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(case=yield_groups())
    @example(case=(80, config(n_reg=4, n_set=1), 40,
                   {m: TUNING_RANGES for m in MODES}, 64, 7))
    @example(case=(6, config(n_reg=12, n_set=4), 150,
                   {m: [0.01, 1.0] for m in MODES}, 64, 1))
    @example(case=(40, config(n_reg=3, n_set=3), 400,
                   {m: [0.02, 0.08] for m in MODES}, 256, 16))
    def test_counts_equal_unfiltered(self, case):
        n_qd, cfg, runs, thresholds, chunk, block = case
        with contextlib.ExitStack() as patches:
            patches.enter_context(mock.patch.object(scalability, "CHUNK",
                                                    chunk))
            for patch in () if block is None else blocks_of(block):
                patches.enter_context(patch)
            assert as_lists(_success_counts(n_qd, cfg, runs, thresholds)) \
                == as_lists(unfiltered_success_counts(n_qd, cfg, runs,
                                                      thresholds))

    def test_nothing_and_everything_survives(self):
        # top = 0 marks no window, so no row reaches the kernels; at 1000
        # the bound provably marks a window in every row and is skipped
        cfg = config(runs=200)
        for block in (None, 1, 64):
            masks, walked, _ = stream(10, cfg, 0, cfg.runs, 0.0, block)
            close = np.concatenate(masks)
            assert close.shape == (cfg.runs, 11) and not close.any()
            assert all(sparse and not len(lam)
                       for sparse, _, lam, _ in walked)
            masks, walked, _ = stream(10, cfg, 0, cfg.runs, 1e3, block)
            assert all(c is None for c in masks)
            assert all(index is None for _, index, _, _ in walked)
        for top in (0.0, 1e3):
            thresholds = {m: [top] for m in MODES}
            assert as_lists(_success_counts(10, cfg, cfg.runs, thresholds)) \
                == as_lists(unfiltered_success_counts(10, cfg, cfg.runs,
                                                      thresholds))

    def test_published_point_counts_pinned(self):
        cfg = config(seed=20_240_101, runs=20_000)
        thresholds = {m: [cfg.delta_lambda / cfg.sigma_qd] for m in MODES}
        got = {m: [] for m in MODES}
        for n_qd in range(57):
            for mode, count in _success_counts(n_qd, cfg, cfg.runs,
                                               thresholds).items():
                got[mode].append(int(count[0]))
        assert got == self.PUBLISHED_COUNTS


def traced(monkeypatch, n_qd, cfg, rows, thresholds):
    """``_success_counts`` under tracemalloc: its counts, its traced peak,
    the most bytes that its sparse blocks keep from pass 1 to their count
    (close-window starts, quantile inputs and regions, all blocks held at
    once), and the ``_keep`` branch of each block."""
    sparse, walk = [], scalability._walk

    def recorded(*args):
        for out in walk(*args):
            sparse.append(out[0])
            yield out

    monkeypatch.setattr(scalability, "_walk", recorded)
    held = []
    labels = scalability._labels

    def kept(flat, regions, k):
        out = labels(flat, regions, k)
        held.append(out.nbytes)
        return out

    monkeypatch.setattr(scalability, "_labels", kept)
    keep = scalability._keep

    def kept_spacings(*args):
        out = keep(*args)
        if out[0]:
            held.append(out[1].nbytes + out[2].nbytes)
        return out

    monkeypatch.setattr(scalability, "_keep", kept_spacings)
    tracemalloc.start()
    try:
        counts = _success_counts(n_qd, cfg, rows, thresholds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return counts, peak, sum(held), sparse


class TestChunkMemory:
    """A chunk keeps, of each row block, at most the block's spacing bytes
    and works one block at a time; the pool multiplies this by its width,
    and the size guard counts it (``chunk_bytes``)."""

    @pytest.mark.parametrize("top", [0.01, 1.0])
    @pytest.mark.parametrize("modes", [MODES[:1], MODES[1:], MODES])
    def test_traced_peak_within_buffers_and_blocks(self, monkeypatch, modes,
                                                   top):
        n_qd, rows = 54, 20_000
        cfg = config(runs=rows)
        # the whole chunk's spacings and int32 regions, which a chunk
        # held before it was walked in blocks
        chunk = 8 * rows * (n_qd + 1) + 4 * rows * n_qd
        counts, peak, state, sparse = traced(
            monkeypatch, n_qd, cfg, rows, {m: [top] for m in modes})
        assert all(0 < c[0] for c in counts.values())
        assert len(sparse) > 1
        if top == 0.01:
            # every block sparse: the peak is one block's spacing buffer,
            # the gaps of its close mask and the mask, beside what the
            # sparse blocks keep, and under half the whole chunk
            assert all(sparse)
            block = 8 * scalability._block_rows(n_qd) * (n_qd + 1)
            assert peak <= 2.5 * block + state < chunk / 2
        assert peak <= chunk_bytes(n_qd, rows)

    @pytest.mark.parametrize("n_reg,n_set", [(3, 3), (12, 4), (3, 2)])
    def test_densest_sparse_chunk_within_chunk_bytes(self, monkeypatch,
                                                     n_reg, n_set):
        # the densest top at which every block is still sparse: the
        # sparse blocks are counted several at once, each call within
        # the close windows one sparse block may hold
        n_qd, rows = 54, 20_000
        cfg = config(n_reg=n_reg, n_set=n_set, runs=rows)
        top = switch_tops(n_qd, cfg, rows, every=True)[0]
        calls, close_minima = [], scalability._close_minima

        def sparse_count(flat, *args):
            calls.append(len(flat))
            return close_minima(flat, *args)

        monkeypatch.setattr(scalability, "_close_minima", sparse_count)
        thresholds = {m: [top] for m in MODES}
        counts, peak, _, sparse = traced(monkeypatch, n_qd, cfg, rows,
                                         thresholds)
        limit = DENSE_SHARE * scalability._block_rows(n_qd) \
            * (n_qd - n_set + 1)
        assert all(sparse) and len(calls) > 1
        assert max(calls) <= limit < sum(calls)
        assert peak <= chunk_bytes(n_qd, rows)
        assert as_lists(counts) == as_lists(
            unfiltered_success_counts(n_qd, cfg, rows, thresholds))

    @pytest.mark.parametrize("modes", [MODES[:1], MODES[1:], MODES])
    @pytest.mark.parametrize("n_qd,n_set", [(5, 2), (8, 2), (20, 8)])
    def test_dense_chunk_of_many_regions_within_chunk_bytes(self, n_qd,
                                                            n_set, modes):
        # 64 regions at small N, just above the sparse/dense switch: the
        # window_distinct scan holds 24·n_reg bytes a row, far more than
        # the row temporaries; the kernel calls shrink so that it fits
        rows = 20_000
        cfg = config(n_reg=64, n_set=n_set, runs=rows)
        thresholds = {m: [switch_tops(n_qd, cfg, rows)[1]] for m in modes}
        tracemalloc.start()
        try:
            counts = _success_counts(n_qd, cfg, rows, thresholds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= chunk_bytes(n_qd, rows)
        assert as_lists(counts) == as_lists(
            unfiltered_success_counts(n_qd, cfg, rows, thresholds))


class TestConditionalSuccess:
    @pytest.mark.parametrize("mode", ["consecutive", "window_distinct"])
    @pytest.mark.parametrize("n_qd,n_reg,n_set,dl", [
        (3, 3, 3, 0.01), (4, 3, 3, 0.01), (5, 3, 3, 0.005),
        (6, 4, 3, 0.01), (6, 4, 4, 0.02), (5, 2, 2, 0.002),
    ])
    def test_matches_qmc_enumeration_oracle(self, mode, n_qd, n_reg, n_set,
                                            dl):
        cfg = config(n_reg=n_reg, n_set=n_set, delta_lambda=dl * 15.0,
                     runs=200_000, mode=mode)
        succ = conditional_success_count(n_qd, cfg)
        p_hat = succ / cfg.runs
        se = max(np.sqrt(p_hat * (1 - p_hat) / cfg.runs), 1.0 / cfg.runs)
        oracle = qmc_conditional_probability(n_qd, n_reg, n_set, dl, mode)
        assert abs(p_hat - oracle) < 3 * se + 1e-4

    def test_infinite_tuning_range_limit(self):
        # dl -> inf in window mode: success iff >= n_set distinct regions
        # occupied (the consecutive rule stays stricter even at dl = inf)
        for n_qd, n_reg, n_set in [(4, 3, 3), (6, 4, 3), (5, 4, 4)]:
            cfg = config(n_reg=n_reg, n_set=n_set, delta_lambda=1e6,
                         runs=100_000, mode="window_distinct")
            p_hat = conditional_success_count(n_qd, cfg) / cfg.runs
            exact = distinct_regions_probability(n_qd, n_reg, n_set)
            se = max(np.sqrt(exact * (1 - exact) / cfg.runs), 1e-5)
            assert abs(p_hat - exact) < 3 * se
            cfg_c = config(n_reg=n_reg, n_set=n_set, delta_lambda=1e6,
                           runs=100_000, mode="consecutive")
            assert conditional_success_count(n_qd, cfg_c) / cfg_c.runs <= \
                exact + 3 * se

    def test_window_dominates_consecutive_per_sample(self):
        for n_qd in (4, 6, 9, 14):
            c_cons = conditional_success_count(
                n_qd, config(runs=20_000, mode="consecutive"))
            c_win = conditional_success_count(
                n_qd, config(runs=20_000, mode="window_distinct"))
            assert c_win >= c_cons

    def test_deterministic_and_chunk_invariant(self):
        cfg = config(runs=70_000)
        a = conditional_success_count(12, cfg)
        b = conditional_success_count(12, cfg)
        assert a == b


class TestProbabilityPerWaveguide:
    def test_set_of_one(self):
        cfg = config(mu_qd=3.0, n_reg=2, n_set=1, delta_lambda=0.0,
                     runs=2_000)
        res = probability_per_waveguide(cfg)
        assert res.p_per_waveguide == pytest.approx(1 - np.exp(-3.0),
                                                    abs=1e-3)

    def test_reproducible(self):
        cfg = config(mu_qd=5.0, runs=5_000)
        r1 = probability_per_waveguide(cfg)
        r2 = probability_per_waveguide(cfg)
        assert r1.p_per_waveguide == r2.p_per_waveguide
        assert r1.standard_error == r2.standard_error

    def test_monotonicity(self):
        base = dict(sigma_qd=15.0, delta_lambda=0.5, runs=20_000, seed=3)
        p = lambda **kw: probability_per_waveguide(
            ScalabilityConfig(**{**base, **kw})).p_per_waveguide
        se = 3 * 0.01
        assert p(mu_qd=8.0, n_reg=3, n_set=3) >= \
            p(mu_qd=4.0, n_reg=3, n_set=3) - se
        assert p(mu_qd=6.0, n_reg=4, n_set=3) >= \
            p(mu_qd=6.0, n_reg=3, n_set=3) - se
        assert p(mu_qd=6.0, n_reg=4, n_set=4) <= \
            p(mu_qd=6.0, n_reg=4, n_set=3) + se
        assert probability_per_waveguide(ScalabilityConfig(
            **{**base, "delta_lambda": 1.0, "mu_qd": 6.0, "n_reg": 3,
               "n_set": 3})).p_per_waveguide >= \
            probability_per_waveguide(ScalabilityConfig(
                **{**base, "delta_lambda": 0.25, "mu_qd": 6.0, "n_reg": 3,
                   "n_set": 3})).p_per_waveguide - se

    def test_chip_formula_consistency(self):
        cfg = config(mu_qd=4.0, runs=5_000, n_wg=250)
        res = probability_per_waveguide(cfg)
        assert res.p_per_chip == pytest.approx(
            1 - (1 - res.p_per_waveguide) ** 250, rel=1e-12)


def reference_yield(cfg, count=conditional_success_count):
    """Σ_N w·P(n_set | N) by one ``count(n_qd, cfg)`` call per N."""
    weights = poisson_weights(cfg.mu_qd)
    p_total = 0.0
    var_total = 0.0
    for n_qd, w in weights:
        p = count(n_qd, cfg) / cfg.runs
        p_total += w * p
        var_total += w * w * p * (1.0 - p) / cfg.runs
    return YieldResult(
        p_per_waveguide=p_total,
        standard_error=float(np.sqrt(var_total)),
        p_per_chip=probability_per_chip(p_total, cfg.n_wg),
        truncation_n_max=weights[-1][0], mode=cfg.mode,
        truncated_mass=float(sum(w for _, w in weights)))


class TestGroupedYield:
    @pytest.mark.parametrize("n_reg,n_set", [(3, 3), (4, 3), (12, 4)])
    def test_equals_per_config_reference(self, monkeypatch, n_reg, n_set):
        # a small chunk so that runs span several chunks, the last partial
        monkeypatch.setattr(scalability, "CHUNK", 256)
        configs = [config(mu_qd=mu, sigma_qd=1.5, delta_lambda=dl,
                          n_reg=n_reg, n_set=n_set, n_wg=n_wg, runs=700,
                          mode=mode)
                   for mode in ("consecutive", "window_distinct")
                   for mu, n_wg in ((2.0, 10), (5.0, 100), (9.0, 250))
                   for dl in (0.0, 0.2, 0.9, 4.5)]
        got = probabilities_per_waveguide(configs)
        want = [reference_yield(cfg) for cfg in configs]
        assert got == want
        assert len({r.truncation_n_max for r in got}) == 3
        assert 0.0 < min(r.p_per_waveguide for r in got[1::4])

    def test_single_config_equals_group_of_one(self):
        cfg = config(mu_qd=4.0, runs=2_000, mode="window_distinct")
        assert probability_per_waveguide(cfg) == \
            probabilities_per_waveguide([cfg])[0] == reference_yield(cfg)

    @pytest.mark.parametrize("field,value", [
        ("seed", 8), ("sigma_qd", 14.0), ("n_reg", 4), ("n_set", 2),
        ("runs", 999)])
    def test_group_must_share_draw_parameters(self, field, value):
        with pytest.raises(ValueError, match=field):
            probabilities_per_waveguide([config(mu_qd=5.0),
                                         config(**{field: value})])

    def test_empty_group(self):
        assert probabilities_per_waveguide([]) == []


class TestProbabilityPerChip:
    def test_published_chip_values(self):
        assert probability_per_chip(0.04, 100) == pytest.approx(0.983, abs=2e-3)
        assert probability_per_chip(7e-4, 500) == pytest.approx(0.295, abs=2e-3)

    def test_zero_probability(self):
        assert probability_per_chip(0.0, 50) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            probability_per_chip(1.5, 10)
        with pytest.raises(ValueError):
            probability_per_chip(0.5, 0)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            config(mu_qd=-1.0)
        with pytest.raises(ValueError):
            config(n_set=5, n_reg=3)
        with pytest.raises(ValueError):
            config(mode="bogus")
        with pytest.raises(ValueError):
            config(runs=0)

    @pytest.mark.parametrize("field", ["mu_qd", "sigma_qd", "delta_lambda"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            config(**{field: float("nan")})


class TestThreadPool:
    """The N of a group run on a pool of ``_width()`` threads; neither the
    counts nor the results depend on its width."""

    GROUP = [config(mu_qd=mu, sigma_qd=1.5, delta_lambda=dl, n_reg=4,
                    n_set=3, runs=300, mode=mode)
             for mode in MODES for mu in (3.0, 8.0) for dl in (0.05, 0.9)]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_width_does_not_change_counts_or_results(self, monkeypatch,
                                                     width):
        # several chunks of 64 rows, the last one partial
        monkeypatch.setattr(scalability, "CHUNK", 64)
        monkeypatch.setattr(scalability, "_width", lambda: width)
        cfg = self.GROUP[0]
        thresholds = {m: [0.01, 0.6] for m in MODES}
        n_max = poisson_weights(8.0)[-1][0]
        assert as_lists_per_n(scalability._counts_per_n(
            cfg, thresholds, n_max)) == as_lists_per_n(
            [unfiltered_success_counts(n_qd, cfg, cfg.runs, thresholds)
             for n_qd in range(n_max + 1)])
        assert probabilities_per_waveguide(self.GROUP) == \
            [reference_yield(c, unfiltered_count) for c in self.GROUP]

    @pytest.mark.parametrize("width", [1, 3])
    def test_worker_exception_reaches_caller(self, monkeypatch, width):
        counts, started = scalability._success_counts, []
        n_max = poisson_weights(8.0)[-1][0]

        def failing(n_qd, *args):
            started.append(n_qd)
            if n_qd == n_max - 1:
                raise ArithmeticError("N failed")
            time.sleep(0.05)
            return counts(n_qd, *args)

        monkeypatch.setattr(scalability, "_width", lambda: width)
        monkeypatch.setattr(scalability, "_success_counts", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="N failed"):
            probabilities_per_waveguide(self.GROUP)
        assert threading.active_count() == before
        # the N not yet started when it failed are cancelled
        assert len(started) <= 2 * width + 2 < n_max
