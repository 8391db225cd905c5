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
``top`` matter.  ``_close`` marks those *close* windows before the
normal quantile: its slope is at least √(2π), so a window whose
uniforms satisfy √(2π)·(u[j+k] − u[j]) > top + 1e-9 (k = n_set − 1)
cannot fit; the 1e-9 σ margin covers the quantile's rounding.  Where
close windows are few (below DENSE_SHARE of a row block's windows),
``ndtri`` runs only at their ends: the consecutive spread and the region
popcount are computed per close window, a feasible window of either
mode within ``top`` lies inside one run of consecutive close windows,
and each row's minimum is taken over its close windows
(``_close_minima``).  Elsewhere the kernels run on the rows that have a
close window.  A row without one fails for every mode and δλ of the
group.  Both branches are exact, so every count equals the unfiltered
one; the denominators stay ``runs``, and the regions of every row are
still drawn, so the Philox streams are unchanged.

Sampling is deterministic and independent of the thread count: samples
are partitioned into fixed-size chunks with counter-based Philox streams
keyed by (seed, n_qd, chunk index), and reductions are integer sums.
``probabilities_per_waveguide`` runs the N on a pool of threads, one per
CPU in the process's affinity mask (so ``taskset`` limits it), largest N
first.  A stream draws all of a chunk's spacings before its regions, and
its exponentials take a varying number of Philox draws, so the regions
of a row can only be reached by drawing every spacing before them.
``_walk`` therefore goes through a chunk twice in row blocks of about
BLOCK_BYTES of spacings: pass 1 draws each block's spacings into one
reused buffer and keeps only what its count needs, the close windows'
quantile inputs (sparse) or the wavelengths of its rows with a close
window (dense), never more than the block's own spacing bytes; pass 2
draws each block's regions and counts it.  So a chunk in flight holds
at most 8 bytes per sample value and one block being worked
(``chunk_bytes``); at the published point (δλ/σ = 0.01) it keeps under
a tenth of that.  The normal quantile ``ndtri`` is this module's numpy
port of the Cephes routine, so no count depends on the installed scipy.
"""

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .units import BUDGET_BYTES

CHUNK = 1 << 15
BLOCK_ROWS = 1 << 11    # rows per kernel call, and the fewest of a block
# A chunk's Philox stream is walked in row blocks of BLOCK_BYTES of
# spacings, at least BLOCK_ROWS rows (``_walk``).  On the yield
# benchmark's workload and pool of two threads (2-vCPU Xeon, 5 runs
# each) blocks of 1, 2, 4 and 8 MiB peaked at 120, 122, 126 and 141 MB,
# against 141 MB for whole chunks; blocks of 2048 rows at 119 MB, but
# their many small calls took 18 % longer.
BLOCK_BYTES = 1 << 21
BLOCK_TEMPS = 4         # float64 block-sized temporaries alive at once
# A block is counted from its close windows (``_close_minima``) while
# fewer than DENSE_SHARE of its windows are close, and by the row-block
# kernels otherwise.  Chosen, as a switch per chunk, on a one-thread
# sweep of N = 0–56 at 20 000 runs, both modes, n_reg = n_set = 3, top
# 0.003–0.2σ (2-vCPU Xeon): counting every chunk from its close windows
# took 1.5–2.4× as long as the kernels at 0.08σ, a switch at 0.4 lost at
# 0.05–0.08σ, and one at 0.1 lost at 0.03σ and matched 0.25 elsewhere.
DENSE_SHARE = 0.25
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


def _blocks(m, size):
    """Row slices of ``size`` rows covering m rows."""
    return (slice(i, min(i + size, m)) for i in range(0, m, size))


def _block_rows(n_qd):
    """Rows per block of a chunk with n_qd emitters a row."""
    return max(BLOCK_ROWS, BLOCK_BYTES // (8 * (n_qd + 1)))


def _block_bytes(n_qd, m):
    """Bytes that one row block of a chunk of m rows takes while it is
    worked: its spacing buffer or its regions, BLOCK_TEMPS float64
    temporaries of its size and ``ndtri``'s scratch for its values."""
    rows = min(m, _block_rows(n_qd))
    return (BLOCK_TEMPS + 1) * 8 * rows * (n_qd + 1) + \
        NDTRI_BYTES * min(NDTRI_BLOCK, rows * n_qd)


def _kernel_rows(n_qd, held):
    """Rows per call of the kernels, BLOCK_ROWS or fewer, so that a call
    whose rows hold ``held`` bytes each beside the kernels' own row
    temporaries stays within the BLOCK_TEMPS temporaries of BLOCK_ROWS
    rows of n_qd emitters."""
    budget = BLOCK_TEMPS * 8 * BLOCK_ROWS * (n_qd + 1)
    return max(1, min(BLOCK_ROWS, budget // held))


def _close(spacings, total, n_set, top):
    """Close-window mask of a row block of cumulative spacings.

    ``spacings`` (m, n_qd + 1) holds the cumulative spacings in its first
    n_qd columns and ``total`` their row sums, so that the sorted
    wavelengths are ``ndtri(spacings[:, j] / total)`` in σ units.  The
    mask marks window j (emitters j … j + n_set − 1) when the uniform-space
    bound of the module docstring lets its spread fit inside ``top`` (σ
    units); its last n_set columns stay False, so that no run of marked
    windows crosses a row.  It is None when the bound provably marks a
    window in every row: the n − 1 gaps hold ⌊(n−1)/k⌋ disjoint k-gap
    blocks inside [0, 1].
    """
    m, n = spacings.shape[0], spacings.shape[1] - 1
    k = n_set - 1
    reach = top + NDTRI_MARGIN
    if not (0 < k < n and SQRT_2PI > reach * ((n - 1) // k)):
        return None
    close = np.zeros((m, n + 1), dtype=bool)
    gaps = spacings[:, k:n] - spacings[:, :n - k]
    gaps *= SQRT_2PI
    np.less_equal(gaps, reach * total[:, None], out=close[:, :n - k])
    return close


def _runs(flat, k):
    """Runs of consecutive close-window starts ``flat`` (k = n_set − 1):
    each run's first index into ``flat``, its length, whether it is one
    window alone, and the offset of its first quantile and the number it
    needs, the two ends of a window alone and every position of a longer
    run, where one window's end is a later one's start."""
    run = np.flatnonzero(np.diff(flat, prepend=-2) != 1)
    length = np.diff(run, append=len(flat))
    alone = length == 1
    count = np.where(alone, 2, length + k)
    return run, length, alone, np.cumsum(count) - count, count


def _keep(spacings, total, close, n_set):
    """What a row block keeps of its spacings for its count, once its
    regions are drawn: ``(sparse, index, lam)``.

    Sparse, where fewer than DENSE_SHARE of its windows are close and
    these, with the regions that ``_labels`` keeps of them, take no more
    bytes than the block's spacings: ``index`` holds the close-window
    starts in the flat (m, n_qd + 1) block and ``lam`` the quantile
    inputs, cumulative spacing over row sum, at their runs' positions
    (``_runs``).  Otherwise ``index`` holds the rows that have a close
    window, or is None for every row, and ``lam`` those rows' sorted
    wavelengths.  Either takes at most the block's own spacing bytes.
    """
    m, n = spacings.shape[0], spacings.shape[1] - 1
    k = n_set - 1
    kept = None
    if close is not None:
        n_close = np.count_nonzero(close)
        if n_close < DENSE_SHARE * m * (n - k):
            flat = np.flatnonzero(close)
            run, _, alone, base, count = _runs(flat, k)
            # int64 starts, float64 quantiles and int32 labels, n_close + k
            # a run
            if 12 * n_close + 8 * count.sum() + 4 * k * len(run) \
                    <= spacings.nbytes:
                at = np.arange(count.sum())
                at -= np.repeat(base, count)      # the offset in the run
                at[np.repeat(alone, count)] *= k
                at += np.repeat(flat[run], count)
                lam = spacings.ravel()[at]
                lam /= total[at // (n + 1)]
                return True, flat, lam
        kept = np.flatnonzero(close.any(axis=1))
    cum = spacings[:, :-1]
    if kept is None:
        lam = cum / total[:, None]
    else:
        lam = cum[kept]
        lam /= total[kept, None]
    return False, kept, ndtri(lam, out=lam)


def _labels(flat, regions, k):
    """The regions at every position of each run of close windows
    ``flat`` of a block, run after run."""
    n = regions.shape[1]
    run, length = _runs(flat, k)[:2]
    span = length + k
    at = np.arange(span.sum())
    at -= np.repeat(np.cumsum(span) - span, span)
    start = flat[run]
    start -= start // (n + 1)             # the run's start in ``regions``
    at += np.repeat(start, span)
    return regions.ravel()[at]


def _walk(n_qd, config, chunk_index, m, top):
    """Walk chunk ``chunk_index`` of m waveguides with n_qd emitters each
    in two passes over its row blocks (``_block_rows``), and yield each
    block's ``_keep`` with its regions, in order.

    Pass 1 draws each block's exponential spacings into one reused
    buffer, sums and accumulates them and keeps what ``_keep`` keeps of
    them.  Pass 2 draws each block's (rows, n_qd) int32 regions, 0-based
    and in sorted order, i.i.d. uniform because ranks are independent of
    the order statistics; a sparse block yields only its ``_labels`` of
    them, and its close-window starts in the flat (m, n_qd + 1) chunk.
    The draws are those of one ``standard_exponential((m, n_qd + 1))``
    and then one ``integers(0, n_reg, (m, n_qd))`` of the chunk's Philox
    stream, in the same order, so deterministic for fixed (seed, n_qd,
    chunk_index) and independent of the block size
    (``tests/test_scalability.py`` pins both).
    """
    rng = Generator(Philox(SeedSequence(config.seed,
                                        spawn_key=(n_qd, chunk_index))))
    blocks = list(_blocks(m, _block_rows(n_qd)))
    buffer = np.empty((blocks[0].stop, n_qd + 1))
    kept = deque()
    for rows in blocks:
        spacings = buffer[:rows.stop - rows.start]
        rng.standard_exponential(out=spacings)
        total = spacings.sum(axis=1)
        np.cumsum(spacings[:, :-1], axis=1, out=spacings[:, :-1])
        kept.append(_keep(spacings, total,
                          _close(spacings, total, config.n_set, top),
                          config.n_set))
    del buffer, spacings
    for rows in blocks:
        sparse, index, lam = kept.popleft()
        regions = rng.integers(0, config.n_reg,
                               size=(rows.stop - rows.start, n_qd),
                               dtype=np.int32)
        if sparse:
            regions = _labels(index, regions, config.n_set - 1)
            index += rows.start * (n_qd + 1)
        yield sparse, index, lam, regions


def _close_minima(flat, lam, labels, n_qd, n_set, modes, scan):
    """Minimal feasible spread per mode of every row that has a close
    window, from the sparse blocks of a chunk: their close-window starts
    ``flat`` in the flat (m, n_qd + 1) chunk, their quantile inputs
    ``lam`` (``_keep``, turned into wavelengths here) and their
    ``labels``, n_qd emitters a row.

    A window's spread is that of ``consecutive``, inf unless its regions
    are distinct.  A feasible set of either mode within ``top`` has every
    n_set-emitter sub-window close, so for ``window_distinct`` it lies
    inside one run: a run of one window keeps that window's spread, longer
    runs go through ``_min_spreads``, grouped by run length, in calls of
    ``_kernel_rows`` runs, each holding its wavelengths and regions and
    the ``scan`` bytes of ``_success_counts``.  A row's minimum may
    exceed the true one only where both exceed ``top``.
    """
    k = n_set - 1
    lam = ndtri(lam, out=lam)
    run, length, alone, base, _ = _runs(flat, k)
    span = length + k
    first = np.cumsum(span) - span        # a run's first label
    window = np.arange(len(flat)) - np.repeat(run, length)
    start = np.repeat(base, length) + window      # in lam
    spread = lam[start + np.where(np.repeat(alone, length), 1, k)]
    spread -= lam[start]
    start = np.repeat(first, length) + window     # in labels
    del window
    seen = np.left_shift(np.uint64(1), labels[start], dtype=np.uint64,
                         casting="unsafe")
    for j in range(1, n_set):
        seen |= np.left_shift(np.uint64(1), labels[start + j],
                              dtype=np.uint64, casting="unsafe")
    del start
    spread[np.bitwise_count(seen) != n_set] = np.inf
    row = flat // (n_qd + 1)
    minima = {}
    if "consecutive" in modes:
        minima["consecutive"] = np.minimum.reduceat(
            spread, np.flatnonzero(np.diff(row, prepend=-1)))
    if "window_distinct" in modes:
        best = spread[run]
        for size in np.unique(length[~alone]).tolist():
            offsets = np.arange(size + k)
            which = np.flatnonzero(length == size)
            for part in _blocks(len(which),
                                _kernel_rows(n_qd,
                                             12 * len(offsets) + scan)):
                runs = which[part]
                best[runs] = _min_spreads(lam[base[runs, None] + offsets],
                                          labels[first[runs, None]
                                                 + offsets],
                                          n_set, "window_distinct")
        minima["window_distinct"] = np.minimum.reduceat(
            best, np.flatnonzero(np.diff(row[run], prepend=-1)))
    return minima


def _success_counts(n_qd, config, runs, thresholds):
    """Successes among ``runs`` waveguides with exactly n_qd emitters.

    ``thresholds`` maps each mode to a list of tuning ranges in σ units;
    the result maps it to the number of samples whose minimal feasible
    spread fits inside each of them.  Every chunk is drawn once (seed and
    n_reg from ``config``), block by block (``_walk``).  The kernels run
    once per mode on a dense block's kept rows, in calls of
    ``_kernel_rows`` rows.  Sparse blocks are counted from their close
    windows alone (``_close_minima``), several at once while their close
    windows together are no more than one sparse block may hold.
    """
    counts = {mode: np.zeros(len(t), dtype=np.int64)
              for mode, t in thresholds.items()}
    if n_qd < config.n_set:
        return counts
    top = max(max(t) for t in thresholds.values())
    # the window_distinct scan over more regions than n_set holds ``last``
    # and its partitioned copy, (rows, n_reg) int64 each, and more
    scan = (24 * config.n_reg + 32 if "window_distinct" in thresholds
            and config.n_reg > config.n_set else 0)
    size = _kernel_rows(n_qd, 4 * n_qd + scan)
    limit = DENSE_SHARE * _block_rows(n_qd) * (n_qd - config.n_set + 1)

    def count(spreads, mode):
        counts[mode] += np.searchsorted(np.sort(spreads),
                                        thresholds[mode], side="right")

    def count_sparse(blocks):
        flat, lam, labels = (np.concatenate(part) for part in zip(*blocks))
        del blocks[:]
        for mode, spreads in _close_minima(flat, lam, labels, n_qd,
                                           config.n_set, thresholds,
                                           scan).items():
            count(spreads, mode)

    for chunk_index, done in enumerate(range(0, runs, CHUNK)):
        m = min(CHUNK, runs - done)
        sparse_blocks, held = [], 0
        for sparse, index, lam, regions in _walk(n_qd, config, chunk_index,
                                                 m, top):
            if sparse:
                if held + len(index) > limit:
                    count_sparse(sparse_blocks)
                    held = 0
                sparse_blocks.append((index, lam, regions))
                held += len(index)
                continue
            for rows in _blocks(len(lam), size):
                regions_b = regions[rows if index is None else index[rows]]
                for mode in thresholds:
                    count(_min_spreads(lam[rows], regions_b, config.n_set,
                                       mode), mode)
        if sparse_blocks:
            count_sparse(sparse_blocks)
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

    Each row block keeps at most its own spacing bytes, 8·(n_qd + 1) a
    row, from pass 1 to its count in pass 2 (``_keep``), and one block at
    a time is worked in its reused spacing buffer, its regions and the
    temporaries of ``_block_bytes``.
    """
    rows = min(CHUNK, runs)
    return 8 * rows * (n_qd + 1) + _block_bytes(n_qd, rows)


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
