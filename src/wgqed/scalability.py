"""Monte Carlo estimate of the probability that a waveguide hosts a set of
independently tunable, mutually resonant emitters.

Model: the emitter count per waveguide is Poisson(μ); each emitter falls
into one of n_reg equal electrically independent regions (uniform
multinomial) and has a wavelength drawn from a Gaussian of width σ.  A set
of n_set emitters succeeds if they sit in pairwise distinct regions and
their wavelength spread fits inside the tuning range δλ.

Two feasibility rules are implemented:

* ``consecutive`` — n_set *consecutive* sorted wavelengths whose regions
  are pairwise distinct (the published rule; used to reproduce the quoted
  probabilities).
* ``window_distinct`` — any wavelength window containing emitters from at
  least n_set distinct regions.  This is the correct criterion: e.g.
  regions (A,B,B,C) at wavelengths (1,2,3,4) with n_set=3 has no feasible
  consecutive triple but the window 1..4 works.  It dominates the
  consecutive rule by construction.

Both rules reduce to one number per sample, its *minimal feasible
spread* (``inf`` when no feasible set exists); a sample succeeds when that
spread fits inside δλ.  ``_min_spreads`` computes it for a batch of sorted
rows at once.  For ``consecutive`` it ORs n_set shifted slices of the
region bitmasks ``1 << region`` (hence n_reg ≤ 64); a window is distinct
when its popcount equals n_set.  For ``window_distinct`` it scans the end
index j keeping the last index seen for each region: the shortest
feasible window ending at j starts at the n_set-th largest of those
indexes, at O(n·n_reg) cost per row; when n_set = n_reg that is their
minimum.  ``min_feasible_spread`` runs the same kernel on a single sample.

A sample's minimal feasible spread depends on neither μ nor δλ, so
``probabilities_per_waveguide`` evaluates a group of configs that share
seed, σ, n_reg, n_set and runs, and differ only in μ, δλ and mode, in one
pass over N: N runs over the union of their Poisson supports, each
(N, chunk) is drawn once, the kernel runs once per mode on it, and only
the number of spreads ≤ δλ/σ is kept for each config.  Each config's
P(n_set) = Σ_N P(n_set | N)·P_pois(N) is then summed over its own support
in increasing N, so the result does not depend on the rest of the group.

At small δλ/σ most samples cannot succeed, and the work follows the
few windows that can.  Every feasible set in either mode spans at least
n_set consecutive sorted emitters, and each of its n_set-emitter
sub-windows spans no more than it does; so only windows of n_set
consecutive emitters that fit inside the group's largest tuning range
``top`` matter.  ``_draw`` marks those *close* windows before the normal
quantile: its slope is at least √(2π), so a window whose uniforms
satisfy √(2π)·(u[j+k] − u[j]) > top + 1e-9 (k = n_set − 1) cannot fit;
the 1e-9 σ margin covers the quantile's rounding.  Where close windows
are few (below DENSE_SHARE of a chunk's windows), ``ndtri`` runs only
at their ends: the consecutive spread and the region popcount are
computed per close window, a feasible window of either mode within
``top`` lies inside one run of consecutive close windows, and each
row's minimum is taken over its close windows (``_close_minima``).
Elsewhere the kernels run on the rows that have a close window.  A row
without one fails for every mode and δλ of the group.  Both branches
are exact, so every count equals the unfiltered one; the denominators
stay ``runs``, and the regions of every row are still drawn, so the
Philox streams are unchanged.

Sampling is deterministic and independent of the thread count: samples
are partitioned into fixed-size chunks with counter-based Philox streams
keyed by (seed, n_qd, chunk index), and reductions are integer sums.
``probabilities_per_waveguide`` runs the N on a pool of threads, one per
CPU in the process's affinity mask (so ``taskset`` limits it), largest N
first.  A chunk holds a spacing buffer, int32 regions and a close-window
mask and steps through them in row blocks of BLOCK_ROWS rows (or, for
the close windows, in pieces of as many bytes), so the chunks in flight
hold about 13 bytes per sample value together with a few row blocks each
(``chunk_bytes``).
"""

import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .units import BUDGET_BYTES

# numpy and scipy each bundle an OpenBLAS with its own worker threads, and
# the two pools fight over the cores.  scipy.special, the only scipy module
# wgqed imports, loads scipy's library, so unless the user set a thread
# variable it loads with one thread; numpy's library, loaded above, keeps
# the user's count or its own default.  The library reads the variable
# once, when it loads, so this changes nothing when scipy was imported
# before this module.
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS",
                                     "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                                     "OPENBLAS_DEFAULT_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from scipy.special import gammaln, ndtri, xlogy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
else:
    from scipy.special import gammaln, ndtri, xlogy

CHUNK = 1 << 15
BLOCK_ROWS = 1 << 11    # rows per block of _draw's mask and the kernels
BLOCK_TEMPS = 4         # float64 row-block temporaries alive at once
# A chunk runs the row-block kernels once DENSE_SHARE of its windows are
# close, and ``_close_minima`` below that.  Chosen on a one-thread sweep of
# N = 0–56 at 20 000 runs, both modes, n_reg = n_set = 3, top 0.003–0.2σ
# (2-vCPU Xeon): counting every chunk from its close windows took 1.5–2.4×
# as long as the kernels at 0.08σ, a switch at 0.4 lost at 0.05–0.08σ, and
# one at 0.1 lost at 0.03σ and matched 0.25 elsewhere.
DENSE_SHARE = 0.25
# ``_close_minima`` is given WINDOW_BYTES + 16·n_reg bytes per close window
# (traced: 86–145 in all for n_reg ≤ 12 with a quarter of the windows
# close), so that its row pieces stay within the block temporaries
WINDOW_BYTES = 128
MODES = ("consecutive", "window_distinct")
SQRT_2PI = np.sqrt(2.0 * np.pi)   # least slope of the normal quantile
NDTRI_MARGIN = 1e-9               # σ units; ndtri rounds to ~1e-14


@dataclass(frozen=True)
class ScalabilityConfig:
    mu_qd: float                 # mean emitters per waveguide
    sigma_qd: float              # inhomogeneous wavelength spread (nm)
    delta_lambda: float          # tuning range (nm)
    n_reg: int                   # independently tunable regions
    n_set: int                   # target set size
    n_wg: int = 1                # waveguides per chip
    runs: int = 200_000          # Monte Carlo samples per N_QD
    seed: int = 0
    mode: str = "consecutive"

    def __post_init__(self):
        if not self.mu_qd > 0:
            raise ValueError("mu_qd must be > 0")
        if not self.sigma_qd > 0:
            raise ValueError("sigma_qd must be > 0")
        if not self.delta_lambda >= 0:
            raise ValueError("delta_lambda must be >= 0")
        if not 1 <= self.n_set <= self.n_reg:
            raise ValueError("need n_reg >= n_set >= 1")
        if self.n_reg > 64:
            raise ValueError("n_reg > 64 not supported (bitmask window scan)")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.n_wg < 1:
            raise ValueError("n_wg must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class YieldResult:
    p_per_waveguide: float
    standard_error: float
    p_per_chip: float
    truncation_n_max: int
    mode: str = "consecutive"
    truncated_mass: float = 1.0


def poisson_weights(mu, mass_target=0.9995):
    """Poisson pmf values up to the smallest N covering ``mass_target``.

    The weights are NOT renormalized; the covered mass is reported so the
    (tiny) truncated remainder stays visible.  The mass is the running sum
    of the weights in increasing N.
    """
    if not mu > 0:
        raise ValueError("mu must be > 0")
    size = int(mu + 10.0 * np.sqrt(mu)) + 32
    while True:
        n = np.arange(min(size, 100_000))
        w = np.exp(xlogy(n, mu) - gammaln(n + 1) - mu)
        covered = np.flatnonzero(np.cumsum(w) >= mass_target)
        if covered.size:
            return list(zip(range(covered[0] + 1),
                            w[:covered[0] + 1].tolist()))
        if size >= 100_000:
            raise ValueError(f"mu={mu} too large: the Poisson truncation "
                             "needs N >= 100000")
        size *= 2


def _min_spreads(lam, regions, n_set, mode):
    """Minimal feasible spread of each row; inf when no feasible set exists.

    ``lam`` (m, n) holds sorted wavelengths and ``regions`` (m, n) integer
    region labels in [0, 64) in the same order.
    """
    m, n = lam.shape
    if n < n_set or m == 0:
        return np.full(m, np.inf)
    if mode == "consecutive":
        bits = np.left_shift(np.uint64(1), regions, dtype=np.uint64,
                             casting="unsafe")
        width = n - n_set + 1
        seen = bits[:, :width].copy()
        for k in range(1, n_set):
            seen |= bits[:, k:k + width]
        spread = lam[:, n_set - 1:] - lam[:, :width]
        spread[np.bitwise_count(seen) != n_set] = np.inf
        return spread.min(axis=1)
    rows = np.arange(m)
    n_reg = int(regions.max()) + 1
    best = np.full(m, np.inf)
    if n_reg <= n_set:
        # every region is needed, so the window starts at the oldest last
        # index; column-major rows make each step contiguous
        lam_t = np.ascontiguousarray(lam.T)
        regions_t = np.ascontiguousarray(regions.T)
        last = np.full((n_set, m), -1)
        for j in range(n):
            last[regions_t[j], rows] = j
            start = last.min(axis=0)
            spread = np.where(start >= 0, lam_t[j] - lam_t[start, rows],
                              np.inf)
            np.minimum(best, spread, out=best)
        return best
    last = np.full((m, n_reg), -1)
    for j in range(n):
        last[rows, regions[:, j]] = j
        start = np.partition(last, -n_set, axis=1)[:, -n_set]
        spread = np.where(start >= 0, lam[:, j] - lam[rows, start], np.inf)
        np.minimum(best, spread, out=best)
    return best


def min_feasible_spread(wavelengths, regions, n_set, mode="consecutive"):
    """Smallest wavelength spread of a feasible set; inf when infeasible.

    ``consecutive``: minimal spread over runs of n_set consecutive sorted
    wavelengths with pairwise distinct regions.  ``window_distinct``:
    minimal window containing >= n_set distinct regions.  The latter never
    exceeds the former.  Regions may be any hashable labels, at most 64
    distinct ones.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n_set < 1:
        raise ValueError("n_set must be >= 1")
    wavelengths = np.asarray(wavelengths, dtype=float)
    regions = np.asarray(regions)
    if wavelengths.shape != regions.shape or wavelengths.ndim != 1:
        raise ValueError("wavelengths and regions must have equal length")
    order = np.argsort(wavelengths, kind="stable")
    labels, codes = np.unique(regions[order], return_inverse=True)
    if len(labels) > 64:
        raise ValueError("more than 64 distinct regions not supported")
    return float(_min_spreads(wavelengths[order][None, :],
                              codes.reshape(1, -1), n_set, mode)[0])


def _blocks(m):
    """Row slices of BLOCK_ROWS rows covering m rows."""
    return (slice(i, min(i + BLOCK_ROWS, m))
            for i in range(0, m, BLOCK_ROWS))


def _block_bytes(n_qd, m):
    """Bytes of the BLOCK_TEMPS float64 row-block temporaries of a chunk
    of m rows; the sparse branch keeps within them too."""
    return BLOCK_TEMPS * 8 * min(m, BLOCK_ROWS) * (n_qd + 1)


def _pieces(close, n_close, limit):
    """Row slices of ``close`` covering its rows, each holding at most
    ``limit`` of its n_close close windows, or one row where that row
    alone holds more."""
    m = len(close)
    if n_close <= limit:
        return [slice(0, m)]
    ends = np.cumsum(np.count_nonzero(close, axis=1))
    pieces, start, held = [], 0, 0
    while start < m:
        stop = max(int(np.searchsorted(ends, held + limit, side="right")),
                   start + 1)
        pieces.append(slice(start, stop))
        start, held = stop, int(ends[stop - 1])
    return pieces


def _draw(n_qd, config, chunk_index, m, top):
    """Draw chunk ``chunk_index`` of m waveguides with n_qd emitters each.

    Returns ``(spacings, total, close, regions)``.  The first n_qd columns
    of the (m, n_qd + 1) ``spacings`` buffer hold the cumulative
    exponential spacings: sorted wavelengths are ``ndtri(spacings[:, j] /
    total)`` in σ units, computed only where they are needed.  ``regions``
    (m, n_qd) are the 0-based int32 regions in sorted order, i.i.d.
    uniform because ranks are independent of the order statistics.
    Deterministic for fixed (seed, n_qd, chunk_index).

    ``close`` (m, n_qd + 1) marks window j (emitters j … j + n_set − 1)
    when the uniform-space bound of the module docstring lets its spread
    fit inside ``top`` (σ units); its last n_set columns stay False.  It
    is None when the bound provably marks a window in every row: the
    n − 1 gaps hold ⌊(n−1)/k⌋ disjoint k-gap blocks inside [0, 1].

    The regions are drawn after the spacings, as int32, which numpy draws
    with the same values and the same generator state as its default
    int64 (``tests/test_scalability.py`` pins this).
    """
    rng = Generator(Philox(SeedSequence(config.seed,
                                        spawn_key=(n_qd, chunk_index))))
    spacings = rng.standard_exponential((m, n_qd + 1))
    total = spacings.sum(axis=1)
    cum = np.cumsum(spacings[:, :-1], axis=1, out=spacings[:, :-1])
    k = config.n_set - 1
    reach = top + NDTRI_MARGIN
    close = None
    if 0 < k < n_qd and SQRT_2PI > reach * ((n_qd - 1) // k):
        close = np.zeros((m, n_qd + 1), dtype=bool)
        bound = reach * total
        for rows in _blocks(m):
            gaps = cum[rows, k:] - cum[rows, :-k]
            gaps *= SQRT_2PI
            np.less_equal(gaps, bound[rows, None],
                          out=close[rows, :n_qd - k])
    regions = rng.integers(0, config.n_reg, size=(m, n_qd), dtype=np.int32)
    return spacings, total, close, regions


def _close_minima(spacings, total, close, regions, n_set, modes):
    """Minimal feasible spread per mode of every row with a close window,
    computed on the close windows alone.

    ``ndtri`` runs only at the ends of the close windows.  A window's
    spread is that of ``consecutive``, inf unless its regions are
    distinct.  A feasible set of either mode within ``top`` has every
    n_set-emitter sub-window close, so for ``window_distinct`` it lies
    inside one run of consecutive close windows: a run of one window
    keeps that window's spread, longer runs go through ``_min_spreads``,
    grouped by run length.  A row's minimum may exceed the true one only
    where both exceed ``top``.
    """
    n = regions.shape[1]
    k = n_set - 1
    values, labels = spacings.ravel(), regions.ravel()
    flat = np.flatnonzero(close)          # window starts in the buffer
    row = flat // (n + 1)
    scale = total[row]
    lo = values[flat] / scale
    spread = values[flat + k] / scale
    ndtri(spread, out=spread)
    spread -= ndtri(lo, out=lo)
    start = flat - row                    # the same starts in ``regions``
    seen = np.left_shift(np.uint64(1), labels[start], dtype=np.uint64,
                         casting="unsafe")
    for j in range(1, n_set):
        seen |= np.left_shift(np.uint64(1), labels[start + j],
                              dtype=np.uint64, casting="unsafe")
    spread[np.bitwise_count(seen) != n_set] = np.inf
    minima = {}
    if "consecutive" in modes:
        minima["consecutive"] = np.minimum.reduceat(
            spread, np.flatnonzero(np.diff(row, prepend=-1)))
    if "window_distinct" in modes:
        run = np.flatnonzero(np.diff(flat, prepend=-2) != 1)
        length = np.diff(run, append=len(flat))
        best = spread[run]
        for size in np.unique(length[length > 1]).tolist():
            which = np.flatnonzero(length == size)
            first = flat[run[which]]
            own = row[run[which]]
            at = first[:, None] + np.arange(size + k)
            lam = values[at]
            lam /= total[own, None]
            best[which] = _min_spreads(ndtri(lam, out=lam),
                                       labels[at - own[:, None]], n_set,
                                       "window_distinct")
        minima["window_distinct"] = np.minimum.reduceat(
            best, np.flatnonzero(np.diff(row[run], prepend=-1)))
    return minima


def _success_counts(n_qd, config, runs, thresholds):
    """Successes among ``runs`` waveguides with exactly n_qd emitters.

    ``thresholds`` maps each mode to a list of tuning ranges in σ units;
    the result maps it to the number of samples whose minimal feasible
    spread fits inside each of them.  Every chunk is drawn once (seed and
    n_reg from ``config``).  A chunk with few close windows (below
    DENSE_SHARE of its windows) is counted from them alone
    (``_close_minima``); otherwise the kernels run once per mode on each
    row block of the rows that have a close window.
    """
    counts = {mode: np.zeros(len(t), dtype=np.int64)
              for mode, t in thresholds.items()}
    if n_qd < config.n_set:
        return counts
    top = max(max(t) for t in thresholds.values())
    windows = n_qd - config.n_set + 1
    for chunk_index, done in enumerate(range(0, runs, CHUNK)):
        m = min(CHUNK, runs - done)
        spacings, total, close, regions = _draw(n_qd, config, chunk_index,
                                                m, top)
        kept = None
        if close is not None:
            n_close = np.count_nonzero(close)
            if n_close < DENSE_SHARE * m * windows:
                limit = _block_bytes(n_qd, m) // (WINDOW_BYTES
                                                  + 16 * config.n_reg)
                for rows in _pieces(close, n_close, limit):
                    minima = _close_minima(spacings[rows], total[rows],
                                           close[rows], regions[rows],
                                           config.n_set, thresholds)
                    for mode, t in thresholds.items():
                        counts[mode] += np.searchsorted(
                            np.sort(minima[mode]), t, side="right")
                continue
            kept = np.flatnonzero(close.any(axis=1))
            del close
        cum = spacings[:, :-1]
        for rows in _blocks(m if kept is None else len(kept)):
            if kept is not None:
                rows = kept[rows]
            lam = cum[rows]
            lam /= total[rows, None]
            lam = ndtri(lam, out=lam)
            regions_b = regions[rows]
            for mode, t in thresholds.items():
                spreads = _min_spreads(lam, regions_b, config.n_set, mode)
                counts[mode] += np.searchsorted(np.sort(spreads), t,
                                                side="right")
    return counts


def conditional_success_count(n_qd, config, runs=None):
    """Successes among ``runs`` waveguides with exactly n_qd emitters: the
    samples whose minimal feasible spread fits inside the tuning range."""
    runs = config.runs if runs is None else runs
    dl = config.delta_lambda / config.sigma_qd
    return int(_success_counts(n_qd, config, runs,
                               {config.mode: [dl]})[config.mode][0])


def chunk_bytes(n_qd, runs):
    """Bytes that ``_success_counts`` holds at once for one chunk of
    ``runs`` waveguides with n_qd emitters.

    A row holds its spacing buffer (8·(n_qd + 1) bytes), its int32
    regions (4·n_qd), its close-window mask (n_qd + 1), its sum (8) and
    16 bytes of either branch: the sparse branch's close windows per row
    and their running sum, or the dense branch's kept flag and index.
    Each of BLOCK_TEMPS float64 temporaries spans one row block: the
    mask, the kernels and the sparse branch step through the chunk one
    row block, or one piece of at most as many bytes, at a time.
    """
    rows = min(CHUNK, runs)
    return rows * (13 * n_qd + 33) + _block_bytes(n_qd, rows)


def _width():
    """Worker threads of the yield pool: the CPUs that this process may
    run on (so ``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # macOS and Windows have no affinity mask
        return os.cpu_count() or 1


def _counts_per_n(config, thresholds, n_max):
    """``_success_counts`` for N = 0 … n_max, in N order.

    The N run on a pool of ``_width()`` threads, largest N first; numpy's
    fills, sums, sorts and scipy's ``ndtri`` release the GIL.  The pool
    runs no more chunks at once than fit in BUDGET_BYTES at n_max
    (``chunk_bytes``), but at least one.  Each count is an integer sum
    over its own Philox streams, so the counts do not depend on the
    width.  The first exception raised in a worker cancels the N not yet
    started and reaches the caller once the running ones are done.
    """
    width = min(_width(),
                max(1, BUDGET_BYTES // chunk_bytes(n_max, config.runs)))
    with ThreadPoolExecutor(width) as pool:
        futures = [pool.submit(_success_counts, n_qd, config, config.runs,
                               thresholds)
                   for n_qd in range(n_max, -1, -1)]
        try:
            for future in as_completed(futures):
                future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [future.result() for future in reversed(futures)]


def probabilities_per_waveguide(configs):
    """``probability_per_waveguide`` of every config of a group, from one
    draw per (N, chunk).

    The configs must share seed, sigma_qd, n_reg, n_set and runs; they may
    differ in mu_qd, delta_lambda, mode and n_wg.  Each result equals that
    of the config evaluated alone.
    """
    configs = list(configs)
    if not configs:
        return []
    for c in configs[1:]:
        differ = [f for f in ("seed", "sigma_qd", "n_reg", "n_set", "runs")
                  if getattr(c, f) != getattr(configs[0], f)]
        if differ:
            raise ValueError(
                f"grouped yield configs differ in {', '.join(differ)}")
    thresholds, slots = {}, []
    for c in configs:
        t = thresholds.setdefault(c.mode, [])
        slots.append(len(t))
        t.append(c.delta_lambda / c.sigma_qd)
    weights = [poisson_weights(c.mu_qd) for c in configs]
    n_max = max(ws[-1][0] for ws in weights)
    counts = _counts_per_n(configs[0], thresholds, n_max)
    results = []
    for c, ws, slot in zip(configs, weights, slots):
        # Σ_N P(n_set | N)·P_pois(N) over the config's own support
        p_total = 0.0
        var_total = 0.0
        for n_qd, w in ws:
            p = int(counts[n_qd][c.mode][slot]) / c.runs
            p_total += w * p
            var_total += w * w * p * (1.0 - p) / c.runs
        results.append(YieldResult(
            p_per_waveguide=p_total,
            standard_error=float(np.sqrt(var_total)),
            p_per_chip=probability_per_chip(p_total, c.n_wg),
            truncation_n_max=ws[-1][0],
            mode=c.mode,
            truncated_mass=float(sum(w for _, w in ws))))
    return results


def probability_per_waveguide(config):
    """P(n_set) = Σ_N P(n_set | N)·P_pois(N) with binomial standard error."""
    return probabilities_per_waveguide([config])[0]


def probability_per_chip(p_per_waveguide, n_wg):
    """1 − (1−P)^n_wg: at least one success among n_wg waveguides."""
    if not 0.0 <= p_per_waveguide <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if n_wg < 1:
        raise ValueError("n_wg must be >= 1")
    return float(1.0 - (1.0 - p_per_waveguide) ** n_wg)
