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
indexes, at O(n·n_reg) cost per row.  ``min_feasible_spread`` runs the
same kernel on a single sample.

Sampling is deterministic and parallelism-independent: samples are
partitioned into fixed-size chunks with counter-based Philox streams keyed
by (seed, n_qd, chunk index), and reductions are integer sums.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri
from scipy.stats import poisson

CHUNK = 1 << 15
MODES = ("consecutive", "window_distinct")


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
        if self.mu_qd <= 0:
            raise ValueError("mu_qd must be > 0")
        if self.sigma_qd <= 0:
            raise ValueError("sigma_qd must be > 0")
        if self.delta_lambda < 0:
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
    (tiny) truncated remainder stays visible.
    """
    if mu <= 0:
        raise ValueError("mu must be > 0")
    out = []
    acc = 0.0
    n = 0
    while acc < mass_target:
        w = float(poisson.pmf(n, mu))
        out.append((n, w))
        acc += w
        n += 1
        if n > 100_000:
            raise RuntimeError("Poisson truncation did not converge")
    return out


def _min_spreads(lam, regions, n_set, mode):
    """Minimal feasible spread of each row; inf when no feasible set exists.

    ``lam`` (m, n) holds sorted wavelengths and ``regions`` (m, n) integer
    region labels in [0, 64) in the same order.
    """
    m, n = lam.shape
    if n < n_set:
        return np.full(m, np.inf)
    if mode == "consecutive":
        bits = np.uint64(1) << regions.astype(np.uint64)
        width = n - n_set + 1
        seen = bits[:, :width].copy()
        for k in range(1, n_set):
            seen |= bits[:, k:k + width]
        spread = lam[:, n_set - 1:] - lam[:, :width]
        spread[np.bitwise_count(seen) != n_set] = np.inf
        return spread.min(axis=1)
    rows = np.arange(m)
    n_reg = int(regions.max()) + 1
    last = np.full((m, max(n_reg, n_set)), -1)
    best = np.full(m, np.inf)
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


def _draw(n_qd, config, chunk_index, m):
    """Draw chunk ``chunk_index`` of m waveguides with n_qd emitters each.

    Returns the wavelengths in sorted order (σ units, exponential spacings
    mapped through the normal quantile function) and the 0-based regions
    in that order, i.i.d. uniform because ranks are independent of the
    order statistics.  Deterministic for fixed (seed, n_qd, chunk_index).
    """
    rng = Generator(Philox(SeedSequence(config.seed,
                                        spawn_key=(n_qd, chunk_index))))
    spacings = rng.standard_exponential((m, n_qd + 1))
    u = np.cumsum(spacings[:, :-1], axis=1) / spacings.sum(
        axis=1, keepdims=True)
    return ndtri(u), rng.integers(0, config.n_reg, size=(m, n_qd))


def conditional_success_count(n_qd, config, runs=None):
    """Successes among ``runs`` waveguides with exactly n_qd emitters: the
    samples whose minimal feasible spread fits inside the tuning range."""
    runs = config.runs if runs is None else runs
    if n_qd < config.n_set:
        return 0
    dl = config.delta_lambda / config.sigma_qd
    succ = 0
    for chunk_index, done in enumerate(range(0, runs, CHUNK)):
        lam, regions = _draw(n_qd, config, chunk_index,
                             min(CHUNK, runs - done))
        spreads = _min_spreads(lam, regions, config.n_set, config.mode)
        succ += int(np.count_nonzero(spreads <= dl))
    return succ


def probability_per_waveguide(config):
    """P(n_set) = Σ_N P(n_set | N)·P_pois(N) with binomial standard error."""
    weights = poisson_weights(config.mu_qd)
    p_total = 0.0
    var_total = 0.0
    for n_qd, w in weights:
        s = conditional_success_count(n_qd, config)
        p = s / config.runs
        p_total += w * p
        var_total += w * w * p * (1.0 - p) / config.runs
    return YieldResult(
        p_per_waveguide=p_total,
        standard_error=float(np.sqrt(var_total)),
        p_per_chip=probability_per_chip(p_total, config.n_wg),
        truncation_n_max=weights[-1][0],
        mode=config.mode,
        truncated_mass=float(sum(w for _, w in weights)))


def probability_per_chip(p_per_waveguide, n_wg):
    """1 − (1−P)^n_wg: at least one success among n_wg waveguides."""
    if not 0.0 <= p_per_waveguide <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if n_wg < 1:
        raise ValueError("n_wg must be >= 1")
    return float(1.0 - (1.0 - p_per_waveguide) ** n_wg)
