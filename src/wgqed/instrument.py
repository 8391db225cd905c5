"""Detector and inhomogeneity post-processing.

Spectral diffusion is slow compared to the emission dynamics, so it is
modeled as a static Gaussian detuning offset per emitter and realization,
independent between emitters; observables are averaged over realizations
(deterministic Gauss-Hermite quadrature or seeded Monte Carlo).  Detector
timing jitter is a Gaussian instrument response applied to computed
intensities and correlations, never to the quantum dynamics; for two-time
maps it acts independently along both time axes.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from numpy.polynomial.hermite_e import hermegauss

from .errors import NormalizationError


@dataclass(frozen=True)
class DetectorModel:
    """Gaussian IRF width and histogram bin width, both ns."""
    irf_sigma: float = 0.188
    bin_width: float = 0.01

    def __post_init__(self):
        if self.irf_sigma < 0:
            raise ValueError("irf_sigma must be >= 0")
        if self.bin_width <= 0:
            raise ValueError("bin_width must be > 0")


@dataclass(frozen=True)
class NoiseAveragingPlan:
    """How to average over static detuning noise."""
    scheme: str = "gauss_hermite"       # or 'monte_carlo'
    samples_or_nodes: int = 21
    seed: int = None

    def __post_init__(self):
        if self.scheme not in ("gauss_hermite", "monte_carlo"):
            raise ValueError("scheme must be 'gauss_hermite' or 'monte_carlo'")
        if self.samples_or_nodes < 1:
            raise ValueError("need at least one node/sample")
        if self.scheme == "monte_carlo" and self.seed is None:
            raise ValueError("monte_carlo averaging requires a seed")


@dataclass
class AveragedResult:
    value: object
    standard_error: object = None
    plan: NoiseAveragingPlan = None


def noise_nodes(sigmas, plan):
    """Detuning offsets ``(K, N)`` and weights ``(K,)`` of the realizations
    that ``plan`` averages over, in evaluation order.

    Gauss-Hermite: the tensor grid over the emitters with nonzero sigma
    (last emitter fastest), each weight the product of the 1-D weights.
    Monte Carlo: realization i draws from its own counter-based stream
    (Philox, spawn key i), so results do not depend on evaluation order;
    each weight is 1/K.  Emitters with zero sigma receive zero offset, and
    with none at all there is one node at zero offset with weight 1.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if np.any(sigmas < 0):
        raise ValueError("sigmas must be >= 0")
    active = np.nonzero(sigmas > 0)[0]
    if len(active) == 0:
        return np.zeros((1, len(sigmas))), np.ones(1)
    if plan.scheme == "gauss_hermite":
        x, w = hermegauss(plan.samples_or_nodes)
        w = w / np.sqrt(2.0 * np.pi)
        grids = np.meshgrid(*([x] * len(active)), indexing="ij")
        wgrids = np.meshgrid(*([w] * len(active)), indexing="ij")
        weights = np.ones_like(wgrids[0])
        for g in wgrids:
            weights = weights * g
        offsets = np.zeros((weights.size, len(sigmas)))
        for j, ax in enumerate(active):
            offsets[:, ax] = sigmas[ax] * grids[j].ravel()
        return offsets, weights.ravel()
    n = plan.samples_or_nodes
    offsets = np.zeros((n, len(sigmas)))
    for i in range(n):
        rng = Generator(Philox(SeedSequence(plan.seed, spawn_key=(i,))))
        offsets[i, active] = rng.standard_normal(len(active)) * sigmas[active]
    return offsets, np.full(n, 1.0 / n)


class NodeAverage:
    """Fixed-order reduction of per-node values added in node order.

    Gauss-Hermite sums w_k·v_k.  Monte Carlo takes the sample mean
    Σv_k / K and its standard error, so its weights are implied.
    """

    def __init__(self, weights, plan):
        self.weights = weights
        self.plan = plan
        self.count = 0
        self.total = None
        self.squares = None

    def add(self, value):
        val = np.asarray(value, dtype=float)
        if self.plan.scheme == "gauss_hermite":
            term = val * self.weights[self.count]
            self.total = term if self.total is None else self.total + term
        elif self.total is None:
            self.total, self.squares = val.copy(), val ** 2
        else:
            self.total = self.total + val
            self.squares = self.squares + val ** 2
        self.count += 1

    def result(self):
        if self.count != len(self.weights):
            raise ValueError(
                f"{self.count} of {len(self.weights)} nodes were added")
        if self.plan.scheme == "gauss_hermite":
            return AveragedResult(self.total, None, self.plan)
        n = self.count
        mean = self.total / n
        var = np.maximum(self.squares / n - mean ** 2, 0.0)
        return AveragedResult(mean, np.sqrt(var / n), self.plan)


def spectral_diffusion_average(simulation, sigmas, plan):
    """Average ``simulation(offsets)`` over Gaussian detuning offsets.

    ``simulation`` must be deterministic given the per-emitter offset
    vector and may return a scalar or any ndarray; shapes must agree
    across calls.  The nodes are those of ``noise_nodes``; with no
    nonzero sigma the single zero-offset value is returned as is.
    """
    offsets, weights = noise_nodes(sigmas, plan)
    if not np.any(np.asarray(sigmas) > 0):
        return AveragedResult(simulation(offsets[0]), None, plan)
    avg = NodeAverage(weights, plan)
    for off in offsets:
        avg.add(simulation(off))
    return avg.result()


def _gaussian_kernel(sigma, dt):
    half = int(np.ceil(6.0 * sigma / dt))
    x = np.arange(-half, half + 1) * dt
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def jitter_convolve(times, values, detector, axes=None):
    """Convolve a signal with the Gaussian IRF along time axes.

    ``times`` must be a uniform grid.  The result is the centred part of
    the full convolution, one value per grid time: the signal is
    zero-padded and the mass convolved beyond the grid is dropped, so the
    grid should cover at least ±5σ beyond the signal support for the
    total integral to be preserved (the discrete kernel is normalized).
    For maps, pass ``axes=(0, 1)`` to convolve along both time axes
    independently.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if detector.irf_sigma == 0.0:
        return values.copy()
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("jitter_convolve requires a uniform time grid")
    if detector.bin_width > detector.irf_sigma:
        warnings.warn("bin width exceeds IRF sigma; jitter under-resolved",
                      RuntimeWarning)
    kernel = _gaussian_kernel(detector.irf_sigma, dt)
    half = len(kernel) // 2
    if axes is None:
        axes = (values.ndim - 1,)
    out = values
    for ax in axes:
        # mode="same" would return the kernel's length when it is longer
        out = np.apply_along_axis(
            lambda v: np.convolve(v, kernel)[half:half + len(v)], ax, out)
    return out


def side_peak_normalize(tau, counts, repetition_period, n_side_peaks=5):
    """Normalize a pulse-train correlogram by its side-peak maxima.

    The center peak lives in |τ| < T/2; side peaks are searched in windows
    around ±kT for k = 1..n_side_peaks that fit in the τ range.  Counts
    are divided by the mean side-peak maximum so the mean side-peak height
    is exactly 1.  Returns (normalized counts, info dict).
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    t_half = repetition_period / 2.0
    side_heights = []
    side_centers = []
    for k in range(1, n_side_peaks + 1):
        for s in (+1, -1):
            c = s * k * repetition_period
            mask = np.abs(tau - c) < t_half
            if np.count_nonzero(mask):
                side_heights.append(counts[mask].max())
                side_centers.append(c)
    if not side_heights:
        raise NormalizationError(
            "no side peak within the correlogram range; cannot normalize")
    scale = float(np.mean(side_heights))
    if scale <= 0:
        raise NormalizationError("side peaks carry no counts")
    center_mask = np.abs(tau) < t_half
    info = {
        "side_peak_mean_max": scale,
        "side_peak_centers": side_centers,
        "n_side_peaks_used": len(side_heights),
        "center_height": float(counts[center_mask].max() / scale)
        if np.count_nonzero(center_mask) else None,
    }
    return counts / scale, info
