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
mask and steps through them in row blocks of at most BLOCK_ROWS rows,
fewer where ``ndtri``'s scratch or a many-region scan would not fit in
as many bytes (or, for the close windows, in pieces of as many bytes),
so the chunks in flight hold about 13 bytes per sample value together
with a few row blocks each (``chunk_bytes``).  The normal quantile
``ndtri`` is this module's numpy port of the Cephes routine, so no
count depends on the installed scipy.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .units import BUDGET_BYTES

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
# (traced: 91–122 for n_reg ≤ 12 with a quarter of the windows close) and
# ``ndtri``'s scratch for its quantiles, two a window, or (n_set + 1)/2
# in runs of two windows, so that its row pieces stay within the block
# temporaries
WINDOW_BYTES = 128
MODES = ("consecutive", "window_distinct")
SQRT_2PI = np.sqrt(2.0 * np.pi)   # least slope of the normal quantile
NDTRI_MARGIN = 1e-9               # σ units; ndtri rounds to ~1e-14
NDTRI_BLOCK = 1 << 15             # values per block of ``ndtri``
NDTRI_BYTES = 40                  # its scratch per value of a block


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


# Cephes ``ndtri`` and ``lgam`` (S. L. Moshier, *Methods and Programs for
# Mathematical Functions*, 1989), the routines behind scipy.special's
# ``ndtri`` and ``gammaln``: the same coefficients, Horner order and
# branches.  ``ndtri`` is a rational in (y − ½)² for e⁻² < y ≤ 1 − e⁻²
# and, in the tails, a rational in 1/x with x = √(−2 log y), one
# coefficient set below x = 8 and one above.
_EXP_M2 = 0.13533528323661269189         # e⁻²
_S2PI = 2.50662827463100050242           # √(2π)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
# lgam for x ≥ 13: Stirling's series in 1/x², its tail A below x = 1000
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LS2PI = 0.91893853320467274178          # log √(2π)


def _polevl(x, coef, out=None):
    """Σ coef[i]·x^(n−i) by Horner's rule, as Cephes ``polevl``."""
    out = np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coef, out=None):
    """``_polevl`` with a leading coefficient of 1, as Cephes ``p1evl``."""
    out = np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _ndtri_central(y, work):
    """ndtri of values in (e⁻², 1 − e⁻²], in the first len(y) columns
    of the (4, ≥ len(y)) scratch ``work``."""
    v, v2, x, q = work[:, :len(y)]
    np.subtract(y, 0.5, out=v)
    np.multiply(v, v, out=v2)
    _polevl(v2, _P0, x)
    x *= v2
    x /= _p1evl(v2, _Q0, q)
    x *= v
    x += v
    x *= _S2PI
    return x


def _ndtri_tails(y):
    """ndtri of values outside (e⁻², 1 − e⁻²]: ∓ inf at 0 and 1, NaN
    outside [0, 1]."""
    t = np.minimum(y, 1.0 - y)        # 1 − y is exact above ½
    edges = np.flatnonzero(~(t > 0.0))
    t[edges] = 0.5
    x = np.log(t)
    x *= -2.0
    x = np.sqrt(x, out=x)
    x0 = np.log(x)
    x0 /= x
    x0 = np.subtract(x, x0, out=x0)
    far = np.flatnonzero(x >= 8.0)
    z = np.divide(1.0, x, out=x)
    p, q = _polevl(z, _P1), _p1evl(z, _Q1)
    if len(far):
        p[far], q[far] = _polevl(z[far], _P2), _p1evl(z[far], _Q2)
    p *= z
    p /= q
    x0 -= p
    # x0 > 0: Cephes negates it below ½
    x0 = np.copysign(x0, y - 0.5, out=x0)
    x0[edges] = np.where(y[edges] == 0.0, -np.inf,
                         np.where(y[edges] == 1.0, np.inf, np.nan))
    return x0


def _ndtri_flat(y, work):
    """ndtri of a 1-D array, in ``work`` (``_ndtri_central``): the central
    rational on every value (NaN where it is none), then the tails
    redone."""
    with np.errstate(invalid="ignore", over="ignore"):   # garbage outside
        out = _ndtri_central(y, work)
    at = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    if len(at):
        out[at] = _ndtri_tails(y[at])
    return out


def ndtri(y, out=None):
    """Inverse of the standard normal CDF, elementwise.

    Cephes ``ndtri``: scipy's bits wherever it needs no logarithm (the
    central branch) and within a few ulp in the tails, where numpy's
    ``log`` may round differently from libm's.  Written into ``out``
    when given, whatever its strides (it may be ``y`` itself).  The
    leading axis is worked through in blocks of about NDTRI_BLOCK values,
    each needing about NDTRI_BYTES of scratch a value.
    """
    y = np.asarray(y, dtype=float)
    if out is None:
        out = np.empty(y.shape)
    if y.ndim == 0:
        ndtri(y.reshape(1), out=out.reshape(1))
        return out
    per = math.prod(y.shape[1:])
    step = max(1, NDTRI_BLOCK // max(1, per))
    work = np.empty((4, min(y.size, step * per)))
    for i in range(0, len(y), step):
        block = y[i:i + step]
        out[i:i + step] = _ndtri_flat(block.reshape(-1),
                                      work).reshape(block.shape)
    return out


def _log_factorial(n):
    """log n! of each integer n ≥ 0 in a 1-D array: Cephes ``lgam`` at
    n + 1, scipy's ``gammaln`` bit for bit, with libm's ``log``
    (``math.log``; numpy's may round differently)."""
    x = n + 1.0
    out = np.empty(len(x))
    small = x < 13.0          # lgam = log((x − 1)!) from the exact product
    out[small] = [math.log(float(math.prod(range(2, int(k)))))
                  for k in x[small]]
    x = x[~small]
    q = x - 0.5
    q *= [math.log(v) for v in x.tolist()]
    q -= x
    q += _LS2PI
    p = 1.0 / (x * x)
    big = x >= 1000.0
    tail = _polevl(p, _LGAM_A)
    tail[big] = (7.9365079365079365079365e-4 * p[big]
                 - 2.7777777777777777777778e-3) * p[big] \
        + 0.0833333333333333333333
    tail /= x
    q += tail
    out[~small] = q
    return out


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
        w = np.exp(n * math.log(mu) - _log_factorial(n) - mu)
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


def _blocks(m, size=BLOCK_ROWS):
    """Row slices of ``size`` rows covering m rows."""
    return (slice(i, min(i + size, m)) for i in range(0, m, size))


def _block_bytes(n_qd, m):
    """Bytes of the BLOCK_TEMPS float64 row-block temporaries of a chunk
    of m rows; the sparse branch keeps within them too."""
    return BLOCK_TEMPS * 8 * min(m, BLOCK_ROWS) * (n_qd + 1)


def _fit(budget, size, quantiles):
    """The most items of ``size`` bytes that fit in ``budget`` bytes
    together with ``ndtri``'s scratch for ``quantiles`` values each
    (NDTRI_BYTES a value, for at most NDTRI_BLOCK values at once); at
    least one."""
    items = budget // (size + NDTRI_BYTES * quantiles)
    if items * quantiles > NDTRI_BLOCK:
        items = max(items, (budget - NDTRI_BYTES * NDTRI_BLOCK) // size)
    return max(1, int(items))


def _dense_rows(n_qd, m, scan):
    """Rows per block of the dense branch, so that a block stays within
    ``_block_bytes``.  Its rows' wavelengths and regions, copied when a
    chunk keeps only some rows, take 12 bytes a value; next to them, in
    turn, ``ndtri`` needs its scratch and the kernels ``scan`` bytes a row
    beyond the BLOCK_TEMPS row temporaries of ``_block_bytes``."""
    budget = _block_bytes(n_qd, m)
    held = 12 * n_qd
    return min(BLOCK_ROWS, _fit(budget, held, n_qd),
               max(1, budget // (held + scan)))


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

    ``ndtri`` runs once per piece: at the two ends of a close window
    alone, and at every position of a run of consecutive close windows,
    where one window's end is a later one's start.  A window's spread is
    that of ``consecutive``, inf unless its regions are distinct.  A
    feasible set of either mode within ``top`` has every n_set-emitter
    sub-window close, so for ``window_distinct`` it lies inside one run:
    a run of one window keeps that window's spread, longer runs go
    through ``_min_spreads``, grouped by run length.  A row's minimum may
    exceed the true one only where both exceed ``top``.
    """
    n = regions.shape[1]
    k = n_set - 1
    values, labels = spacings.ravel(), regions.ravel()
    flat = np.flatnonzero(close)          # window starts in the buffer
    row = flat // (n + 1)
    run = np.flatnonzero(np.diff(flat, prepend=-2) != 1)
    length = np.diff(run, append=len(flat))
    alone = length == 1
    count = np.where(alone, 2, length + k)
    base = np.cumsum(count) - count       # a run's first quantile in lam
    at = np.arange(count.sum())
    at -= np.repeat(base, count)          # the offset inside the run
    at[np.repeat(alone, count)] *= k
    at += np.repeat(flat[run], count)
    lam = values[at]
    lam /= total[at // (n + 1)]
    del at
    lam = ndtri(lam, out=lam)
    start = np.repeat(base - run, length)
    start += np.arange(len(flat))         # each window's start in lam
    spread = lam[start + np.where(np.repeat(alone, length), 1, k)]
    spread -= lam[start]
    del start
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
        best = spread[run]
        for size in np.unique(length[~alone]).tolist():
            which = np.flatnonzero(length == size)
            span = np.arange(size + k)
            best[which] = _min_spreads(
                lam[base[which, None] + span],
                labels[start[run[which], None] + span], n_set,
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
    # the window_distinct scan over more regions than n_set holds ``last``
    # and its partitioned copy, (rows, n_reg) int64 each, and more
    scan = (24 * config.n_reg + 32 if "window_distinct" in thresholds
            and config.n_reg > config.n_set else 0)
    for chunk_index, done in enumerate(range(0, runs, CHUNK)):
        m = min(CHUNK, runs - done)
        spacings, total, close, regions = _draw(n_qd, config, chunk_index,
                                                m, top)
        kept = None
        if close is not None:
            n_close = np.count_nonzero(close)
            if n_close < DENSE_SHARE * m * windows:
                limit = _fit(_block_bytes(n_qd, m),
                             WINDOW_BYTES + 16 * config.n_reg,
                             max(2, (config.n_set + 1) / 2))
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
        size = _dense_rows(n_qd, m, scan)
        for rows in _blocks(m if kept is None else len(kept), size):
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
    fills, sums, sorts and the ufuncs of ``ndtri`` release the GIL.  The
    pool runs no more chunks at once than fit in BUDGET_BYTES at n_max
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
