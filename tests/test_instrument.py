import numpy as np
import pytest

from wgqed import presets
from wgqed.errors import NormalizationError
from wgqed.instrument import (DetectorModel, NoiseAveragingPlan,
                              _gaussian_kernel, jitter_convolve,
                              side_peak_normalize, spectral_diffusion_average)
from wgqed.model import EmitterParams, WaveguideSystem
from wgqed.observables import transmission_coherent


class TestSpectralDiffusionAverage:
    def test_zero_sigma_identity(self):
        plan = NoiseAveragingPlan("gauss_hermite", 11)
        out = spectral_diffusion_average(lambda off: off.sum() + 3.0,
                                         [0.0, 0.0], plan)
        assert out.value == 3.0

    def test_single_dip_shallower_with_noise(self):
        gamma = 2.0
        sys = WaveguideSystem(
            (EmitterParams(gamma, 0.9, spectral_diffusion_sigma=gamma),), 0.0)

        def dip(offsets):
            return transmission_coherent(sys, offsets).transmission

        plan = NoiseAveragingPlan("gauss_hermite", 21)
        averaged = spectral_diffusion_average(dip, [gamma], plan)
        assert averaged.value > dip(np.zeros(1))

    def test_gauss_hermite_matches_monte_carlo(self):
        # two-emitter dip, Table-I sigmas: schemes agree within 3 MC errors
        sys = presets.qd_pair()
        sigmas = [e.spectral_diffusion_sigma for e in sys.emitters]

        def dip(offsets):
            return transmission_coherent(sys, offsets).transmission

        gh = spectral_diffusion_average(dip, sigmas,
                                        NoiseAveragingPlan("gauss_hermite", 21))
        mc = spectral_diffusion_average(
            dip, sigmas, NoiseAveragingPlan("monte_carlo", 10_000, seed=11))
        assert abs(gh.value - mc.value) < 3 * mc.standard_error

    def test_monte_carlo_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            NoiseAveragingPlan("monte_carlo", 100)

    def test_monte_carlo_deterministic(self):
        plan = NoiseAveragingPlan("monte_carlo", 500, seed=42)
        f = lambda off: np.sin(off).sum()
        a = spectral_diffusion_average(f, [1.0, 2.0], plan)
        b = spectral_diffusion_average(f, [1.0, 2.0], plan)
        assert a.value == b.value

    def test_symmetric_averaging_preserves_mirror_symmetry(self):
        # identical emitters: averaged transmission is even in the
        # detuning-cut direction when offsets are symmetric
        e = EmitterParams(2.0, 0.9, spectral_diffusion_sigma=0.5)
        sys = WaveguideSystem((e, e), 0.8 * np.pi)
        plan = NoiseAveragingPlan("gauss_hermite", 11)

        def t_at(d1, d2):
            def f(off):
                return transmission_coherent(
                    sys, [d1 + off[0], d2 + off[1]]).transmission
            return spectral_diffusion_average(f, [0.5, 0.5], plan).value

        # swapping the emitters' detunings mirrors the map exactly
        assert t_at(0.7, -0.2) == pytest.approx(t_at(-0.2, 0.7), abs=1e-12)


class TestJitterConvolve:
    def test_zero_sigma_identity(self):
        t = np.linspace(0, 10, 101)
        v = np.sin(t)
        out = jitter_convolve(t, v, DetectorModel(irf_sigma=0.0))
        np.testing.assert_array_equal(out, v)

    def test_integral_preserved(self):
        t = np.arange(0, 40, 0.01)
        v = np.exp(-((t - 10) / 0.5) ** 2)
        out = jitter_convolve(t, v, DetectorModel(irf_sigma=0.188))
        assert np.trapezoid(out, t) == pytest.approx(np.trapezoid(v, t),
                                                     rel=1e-6)

    def test_delta_spike_becomes_gaussian(self):
        dt = 0.005
        t = np.arange(0, 8, dt)
        v = np.zeros_like(t)
        v[len(t) // 2] = 1.0 / dt  # unit-area spike
        sigma = 0.188
        out = jitter_convolve(t, v, DetectorModel(irf_sigma=sigma))
        expected = np.exp(-0.5 * ((t - t[len(t) // 2]) / sigma) ** 2) / (
            sigma * np.sqrt(2 * np.pi))
        np.testing.assert_allclose(out, expected, atol=1e-4)
        assert np.trapezoid(out, t) == pytest.approx(1.0, rel=1e-6)

    def test_exponential_rise_and_tail(self):
        gamma = 2 * np.pi * 0.388
        sigma = 0.188
        dt = 0.002
        t = np.arange(0, 20, dt)
        v = np.where(t >= 5.0, gamma * np.exp(-gamma * (t - 5.0)), 0.0)
        out = jitter_convolve(t, v, DetectorModel(irf_sigma=sigma))
        t_peak = t[np.argmax(out)]
        assert 5.0 < t_peak < 5.0 + 2 * sigma   # peak moves late by ~sigma
        tail = (t > 5.0 + 5 * sigma) & (t < 12.0)
        slope = np.polyfit(t[tail], np.log(out[tail]), 1)[0]
        assert slope == pytest.approx(-gamma, rel=1e-3)

    def test_twice_equals_quadrature_sum(self):
        t = np.arange(0, 30, 0.005)
        v = np.exp(-((t - 15) / 0.8) ** 2) + 0.3 * np.exp(-((t - 10) / 0.4) ** 2)
        sa, sb = 0.15, 0.22
        twice = jitter_convolve(t, jitter_convolve(t, v, DetectorModel(sa)),
                                DetectorModel(sb))
        once = jitter_convolve(t, v, DetectorModel(np.hypot(sa, sb)))
        np.testing.assert_allclose(twice, once, atol=1e-6 * v.max())

    @pytest.mark.parametrize("sigma", [1e-4, 0.01, 0.1, 1.0, 10.0, 100.0])
    def test_keeps_the_grid_shape(self, sigma):
        # the grid spans 0.2 ns in 21 steps of 0.01 ns; from sigma = 0.1
        # on, the kernel outnumbers the grid
        t = np.arange(21) * 0.01
        rng = np.random.default_rng(7)
        det = DetectorModel(irf_sigma=sigma, bin_width=1e-4)
        assert jitter_convolve(t, rng.random(21), det).shape == (21,)
        assert jitter_convolve(t, rng.random((21, 21)), det,
                               axes=(0, 1)).shape == (21, 21)

    @pytest.mark.parametrize("sigma", [0.005, 0.05, 5.0])
    def test_centred_impulse_stays_centred(self, sigma):
        t = np.arange(41) * 0.01
        v = np.zeros(41)
        v[20] = 1.0
        out = jitter_convolve(t, v, DetectorModel(irf_sigma=sigma,
                                                  bin_width=1e-3))
        assert np.argmax(out) == 20
        np.testing.assert_allclose(out, out[::-1], rtol=0, atol=1e-15)

    def test_matches_same_mode_while_the_kernel_fits(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 200))
            dt = float(rng.uniform(0.001, 0.05))
            t = np.arange(n) * dt
            # 2⌈6σ/dt⌉ + 1 ≤ n
            sigma = float(rng.uniform(0.01, (n - 1) // 2 / 6.0)) * dt
            v = rng.standard_normal(n)
            det = DetectorModel(irf_sigma=sigma, bin_width=sigma)
            np.testing.assert_array_equal(
                jitter_convolve(t, v, det),
                np.convolve(v, _gaussian_kernel(sigma, dt), mode="same"))

    def test_map_convolved_along_both_axes(self):
        t = np.arange(0, 6, 0.01)
        m = np.outer(np.exp(-t), np.exp(-2 * t))
        det = DetectorModel(irf_sigma=0.1)
        out = jitter_convolve(t, m, det, axes=(0, 1))
        sep = jitter_convolve(t, np.exp(-t), det)[:, None] * \
            jitter_convolve(t, np.exp(-2 * t), det)[None, :]
        np.testing.assert_allclose(out, sep, atol=1e-10)

    def test_coarse_bin_warns(self):
        t = np.arange(0, 5, 0.3)
        with pytest.warns(RuntimeWarning, match="bin width"):
            jitter_convolve(t, np.exp(-t), DetectorModel(irf_sigma=0.188,
                                                         bin_width=0.3))


def _poisson_pulse_stream(rng, n_periods, period, mean_photons, decay):
    """Click times for a pulsed coherent-like source on one detector."""
    times = []
    for k in range(n_periods):
        n = rng.poisson(mean_photons)
        if n:
            times.append(k * period + rng.exponential(decay, size=n))
    return np.concatenate(times) if times else np.array([])


def _correlogram(ta, tb, max_tau, bin_width):
    edges = np.arange(-max_tau, max_tau + bin_width, bin_width)
    counts = np.zeros(len(edges) - 1)
    j_lo = 0
    tb_sorted = np.sort(tb)
    for t in np.sort(ta):
        lo = np.searchsorted(tb_sorted, t - max_tau)
        hi = np.searchsorted(tb_sorted, t + max_tau)
        counts += np.histogram(tb_sorted[lo:hi] - t, bins=edges)[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts


class TestSidePeakNormalize:
    def test_poissonian_stream_center_is_one(self):
        rng = np.random.default_rng(123)
        period, decay = 13.6, 0.4
        ta = _poisson_pulse_stream(rng, 30_000, period, 0.3, decay)
        tb = _poisson_pulse_stream(rng, 30_000, period, 0.3, decay)
        tau, counts = _correlogram(ta, tb, 3.5 * period, 0.25)
        normalized, info = side_peak_normalize(tau, counts, period)
        assert info["center_height"] == pytest.approx(1.0, abs=0.15)

    def test_scale_invariance(self):
        tau = np.linspace(-30, 30, 601)
        counts = np.exp(-np.abs(tau % 13.6 - 6.8) ** 2)  # periodic bumps
        n1, _ = side_peak_normalize(tau, counts, 13.6)
        n2, _ = side_peak_normalize(tau, 2.0 * counts, 13.6)
        np.testing.assert_allclose(n1, n2)

    def test_mean_side_height_is_one(self):
        tau = np.linspace(-40, 40, 1601)
        counts = np.cos(2 * np.pi * tau / 13.6) + 2.0
        _, info = side_peak_normalize(tau, counts, 13.6)
        assert info["side_peak_mean_max"] > 0

    def test_no_side_peak_errors(self):
        tau = np.linspace(-5, 5, 101)
        with pytest.raises(NormalizationError):
            side_peak_normalize(tau, np.ones_like(tau), 13.6)
