import dataclasses

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from wgqed import observables, presets
from wgqed.config import resolve_config
from wgqed.dynamics import propagate, steady_state
from wgqed.errors import NumericalError
from wgqed.experiments import run_experiment
from wgqed.hilbert import DensityState, basis_ket, collective_state
from wgqed.instrument import spectral_diffusion_average
from wgqed.model import (DriveConfig, EmitterParams, PulseSpec,
                         WaveguideSystem, effective_hamiltonian,
                         field_operator)
from wgqed.observables import (directionality, intensity, intensity_record,
                               population_projection, transmission_coherent,
                               transmission_saturated, waveguide_drive)
from wgqed.analytics import interference_intensities
from wgqed.units import ghz_to_angular


def identical_pair(gamma=2.0, beta=1.0, phi=0.8 * np.pi):
    e = EmitterParams(gamma, beta)
    return WaveguideSystem((e, e), phi)


class TestIntensity:
    def test_ground_state_dark(self):
        sys = presets.qd_pair()
        rho = DensityState.from_ket(basis_ket("gg"))
        assert intensity(rho, sys, "L") == 0.0
        assert intensity(rho, sys, "R") == 0.0

    def test_pi_plus_phi_left_dark(self):
        phi = 0.8 * np.pi
        sys = identical_pair(phi=phi)
        rho = DensityState.from_ket(collective_state("pi_plus_phi", phi))
        assert intensity(rho, sys, "L") == pytest.approx(0.0, abs=1e-13)

    def test_single_excited_emitter_symmetric(self):
        sys = identical_pair(gamma=2.0, beta=0.9)
        rho = DensityState.from_ket(basis_ket("eg"))
        gw = 0.9 * 2.0
        assert intensity(rho, sys, "L") == pytest.approx(gw / 2)
        assert intensity(rho, sys, "R") == pytest.approx(gw / 2)


class TestDirectionality:
    def test_balanced(self):
        fl, fr = directionality(1.3, 1.3)
        assert fl == fr == pytest.approx(0.5)

    def test_sum_to_one(self):
        fl, fr = directionality(np.array([0.2, 3.0]), np.array([1.0, 0.5]))
        np.testing.assert_allclose(fl + fr, 1.0)

    def test_zero_flux_error(self):
        with pytest.raises(NumericalError):
            directionality(0.0, 0.0)

    def test_integrated_sweep_extrema_near_cancellation_phases(self):
        # 0.4 ns integrated fractions: extrema sit at theta_d = pi -/+ phi
        # within the resolution of a Fig-1f-like sweep grid (the J-coupling
        # rotation during the emission window shifts them by ~0.3 rad,
        # below the 2pi/16 step)
        phi = 0.8 * np.pi
        sys = identical_pair(phi=phi)
        pulse = PulseSpec(sigma_t=0.002, area=0.01 * np.pi,
                          repetition_period=13.6)
        prompt = pulse.center + 6 * pulse.sigma_t
        t_grid = np.concatenate(
            [[0.0], np.arange(prompt, prompt + 0.4001, 0.004)])
        step = 2 * np.pi / 16
        thetas = np.arange(16) * step
        fracs = []
        for th in thetas:
            drive = DriveConfig((1.0, 1.0), (0.0, th), "pulsed", pulse)
            traj = propagate(basis_ket("gg"), sys, drive, t_grid,
                             validate=False)
            rec = intensity_record(traj, sys)
            i_l = np.trapezoid(rec.left[1:], t_grid[1:])
            i_r = np.trapezoid(rec.right[1:], t_grid[1:])
            fracs.append(directionality(i_l, i_r)[1])
        fracs = np.asarray(fracs)
        assert abs(thetas[np.argmax(fracs)] - (np.pi - phi)) <= step
        assert abs(thetas[np.argmin(fracs)] - (np.pi + phi)) <= step

    def test_phase_sweep_extrema_match_interference_formula(self):
        # weak collective pulse, fractions right after the pulse follow
        # |1+e^{i(theta_d±phi)}|^2
        phi = 0.8 * np.pi
        sys = identical_pair(phi=phi)
        pulse = PulseSpec(sigma_t=0.005, area=0.05 * np.pi,
                          repetition_period=60.0)
        t_eval = pulse.center + 6 * pulse.sigma_t
        thetas = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        for th in thetas:
            drive = DriveConfig((1.0, 1.0), (0.0, th), "pulsed", pulse)
            t = np.array([0.0, t_eval])
            traj = propagate(basis_ket("gg"), sys, drive, t, validate=False)
            rec = intensity_record(traj, sys)
            _, fr = directionality(rec.left[-1], rec.right[-1])
            il, ir = interference_intensities(th, phi)
            if il + ir > 1e-9:
                # agreement limited by evolution during the finite pulse,
                # first order in Gamma*sigma_t
                assert fr == pytest.approx(ir / (il + ir), abs=0.02)


class TestPopulationProjection:
    def test_projection_on_itself(self):
        rho = DensityState.from_ket(collective_state("plus_phi", 1.1))
        assert population_projection(rho, "plus_phi", phi=1.1) == \
            pytest.approx(1.0)

    def test_double_excited_orthogonal_to_single_excitation(self):
        rho = DensityState.from_ket(basis_ket("ee"))
        for kind in ("plus_phi", "minus_phi", "pi_plus_phi", "pi_minus_phi"):
            assert population_projection(rho, kind, phi=0.7) == \
                pytest.approx(0.0, abs=1e-14)

    def test_steady_state_saturable_mirror(self):
        e = EmitterParams(2.0, beta=0.999)
        sys = WaveguideSystem((e, e), 0.8 * np.pi)
        rho = steady_state(sys, DriveConfig((0.04, 0.0), (0.0, 0.0), "cw"))
        p_plus = population_projection(rho, "plus_phi", phi=0.8 * np.pi)
        p_minus = population_projection(rho, "minus_phi", phi=0.8 * np.pi)
        assert p_plus < 1e-3 * p_minus


class TestTransmissionCoherent:
    def test_perfect_mirror(self):
        sys = WaveguideSystem((EmitterParams(2.0, beta=1.0),), 0.0)
        point = transmission_coherent(sys, [0.0])
        assert point.transmission == pytest.approx(0.0, abs=1e-12)

    def test_single_emitter_dip_value(self):
        gamma, beta, gd = 2.0, 0.9, 0.1
        sys = WaveguideSystem(
            (EmitterParams(gamma, beta, dephasing=gd),), 0.0)
        t_amp = 1 - (beta * gamma / 2) / (gamma / 2 + gd)
        assert transmission_coherent(sys, [0.0]).transmission == \
            pytest.approx(t_amp ** 2, rel=1e-12)

    def test_cross_pattern_factorizes_when_detuned(self):
        sys = presets.qd_pair()
        g1 = sys.emitters[0].gamma_total
        big = 200 * g1
        for d1 in (-1.0, 0.0, 2.0):
            t12 = transmission_coherent(sys, [d1, big + 1.0]).transmission
            t1 = transmission_coherent(sys, [d1, 1e6]).transmission
            t2 = transmission_coherent(sys, [1e6, big + 1.0]).transmission
            assert t12 == pytest.approx(t1 * t2, rel=0.01)

    def test_two_emitter_dip_between_single_and_product(self):
        # with spectral diffusion, the resonant pair dip is deeper than
        # either emitter alone but shallower than the product
        sys = presets.qd_pair()
        far = 1e6
        common = np.linspace(-2.0, 2.0, 81)
        fixed = np.full_like(common, far)

        def dip(pairs):
            return transmission_coherent(sys, np.column_stack(pairs),
                                         noise_nodes=15).transmission.min()

        t1 = dip([common, fixed])
        t2 = dip([fixed, common])
        t12 = dip([common, common])
        assert t12 < min(t1, t2)
        assert t12 > t1 * t2

    def test_pair_minimum_off_origin_and_cut_asymmetric(self):
        # dispersive coupling displaces the two-emitter minimum from zero
        # detuning and skews the single-detuning cut
        sys = presets.qd_pair()
        grid = np.arange(-0.6, 0.601, 0.05)
        tmap = np.array([[transmission_coherent(sys, [a, b]).transmission
                          for b in grid] for a in grid])
        i, j = np.unravel_index(np.argmin(tmap), tmap.shape)
        assert np.hypot(grid[i], grid[j]) > 0.05
        t_plus = transmission_coherent(sys, [0.6, 0.0]).transmission
        t_minus = transmission_coherent(sys, [-0.6, 0.0]).transmission
        assert abs(t_plus - t_minus) > 0.01

    def test_passive_bound(self):
        sys = presets.qd_pair()
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.uniform(-10, 10, 2)
            assert 0.0 <= transmission_coherent(sys, d).transmission <= 1 + 1e-9

    @pytest.mark.parametrize("noise_nodes", [0, 5])
    @pytest.mark.parametrize("system", [
        presets.qd_pair(),
        WaveguideSystem(tuple(
            EmitterParams(2.0 + 0.2 * k, 0.9, dephasing=0.1 * k,
                          spectral_diffusion_sigma=0.3 + 0.1 * k)
            for k in range(3)), 0.0),
    ], ids=["pair", "three"])
    def test_batch_equals_points(self, system, noise_nodes):
        dets = np.random.default_rng(8).uniform(-5, 5, (40, system.n))
        batch = transmission_coherent(system, dets, noise_nodes=noise_nodes)
        points = [transmission_coherent(system, d, noise_nodes=noise_nodes
                                        ).transmission for d in dets]
        assert batch.transmission.shape == (40,)
        np.testing.assert_array_equal(batch.transmission, points)

    def test_noise_averages_only_emitters_with_spread(self, monkeypatch):
        # emitter 2 without spectral diffusion: the average is the
        # one-emitter Gauss-Hermite rule, one solve per node
        sigma, nodes = 0.8, 9
        sys = WaveguideSystem((EmitterParams(2.0, 0.9, dephasing=0.1,
                                             spectral_diffusion_sigma=sigma),
                               EmitterParams(1.5, 0.8)), 0.3 * np.pi)
        dets = np.array([[0.4, -0.3], [-1.0, 0.2], [2.5, 2.5]])
        x, w = hermegauss(nodes)
        w = w / np.sqrt(2.0 * np.pi)
        ref = sum(wk * transmission_coherent(sys, dets + [sigma * xk, 0.0]
                                             ).transmission
                  for xk, wk in zip(x, w))
        solves = []
        monkeypatch.setattr(
            observables, "effective_hamiltonian",
            lambda *a: solves.append(1) or effective_hamiltonian(*a))
        got = transmission_coherent(sys, dets, noise_nodes=nodes).transmission
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
        assert len(solves) == nodes


class TestTransmissionScan:
    @pytest.mark.parametrize("noise", [
        {"scheme": "none"},
        {"scheme": "gauss_hermite", "nodes": 5},
        {"scheme": "monte_carlo", "samples": 40},
    ], ids=["none", "gauss_hermite", "monte_carlo"])
    def test_rows_equal_point_by_point(self, noise):
        cfg = resolve_config({
            "experiment": "transmission-scan", "seed": 4, "noise": noise,
            "grid": {"detuning1_ghz": {"start": -1.0, "stop": 1.0,
                                       "points": 4},
                     "detuning2_ghz": {"values": [-0.5, 0.0, 0.7]}}})
        sigmas = [e.spectral_diffusion_sigma for e in cfg.system.emitters]
        _, rows = run_experiment(cfg).tables["transmission"]
        d1 = np.linspace(-1.0, 1.0, 4)
        assert [(a, b) for a, b, _ in rows] == \
            [(a, b) for a in d1 for b in (-0.5, 0.0, 0.7)]
        for a, b, t in rows:
            dets = ghz_to_angular([a, b])
            if cfg.noise is None:
                ref = transmission_coherent(cfg.system, dets).transmission
            else:
                ref = spectral_diffusion_average(
                    lambda off: transmission_coherent(
                        cfg.system, dets + off).transmission,
                    sigmas, cfg.noise).value
            assert t == ref


class TestTransmissionSaturated:
    def test_weak_power_matches_coherent(self):
        sys = presets.qd_pair()
        gamma1 = sys.emitters[0].gamma_total
        omega = gamma1 / 100
        power = omega ** 2 / (2 * sys.emitters[0].gamma_wg)
        point = transmission_saturated(sys, [power])[0]
        coherent = transmission_coherent(sys, [0.0, 0.0]).transmission
        assert point.transmission_coherent == pytest.approx(coherent, rel=0.01)

    def test_strong_power_transparent(self):
        sys = presets.qd_pair()
        gamma1 = sys.emitters[0].gamma_total
        omega = 50 * gamma1
        power = omega ** 2 / (2 * sys.emitters[0].gamma_wg)
        point = transmission_saturated(sys, [power])[0]
        assert point.transmission_coherent == pytest.approx(1.0, abs=0.02)
        assert point.transmission_flux == pytest.approx(1.0, abs=0.02)

    def test_dip_monotone_in_power(self):
        sys = WaveguideSystem((presets.qd1(),), 0.0)
        gw = sys.emitters[0].gamma_wg
        gamma = sys.emitters[0].gamma_total
        powers = [(gamma * f) ** 2 / (2 * gw)
                  for f in (0.01, 0.1, 0.3, 1.0, 3.0, 10.0)]
        pts = transmission_saturated(sys, powers)
        for col in ("transmission_flux", "transmission_coherent"):
            depths = [1 - getattr(p, col) for p in pts]
            assert all(a >= b - 1e-9 for a, b in zip(depths, depths[1:]))
            assert depths[2] < depths[0] - 0.02  # strictly between the limits
            assert depths[-1] < 0.05
        lo = transmission_coherent(sys, [0.0]).transmission
        assert pts[0].transmission_coherent == pytest.approx(lo, abs=0.01)


class TestSymmetries:
    def test_mirror_swap_exchanges_ports(self):
        # swap emitter parameters and negate the drive-phase difference:
        # I_L <-> I_R exactly
        sys = presets.qd_pair(detunings=(0.3, -0.5))
        th = (0.0, 1.234)
        drive = DriveConfig((0.21, 0.13), th, "cw")
        rho = steady_state(sys, drive)
        i_l = intensity(rho, sys, "L")
        i_r = intensity(rho, sys, "R")

        e1, e2 = sys.emitters
        sys_sw = WaveguideSystem((e2, e1), presets.COUPLING_PHASE)
        drive_sw = DriveConfig((0.13, 0.21), (th[1], th[0]), "cw")
        rho_sw = steady_state(sys_sw, drive_sw)
        assert intensity(rho_sw, sys_sw, "R") == pytest.approx(i_l, abs=1e-10)
        assert intensity(rho_sw, sys_sw, "L") == pytest.approx(i_r, abs=1e-10)

    def test_phi_negation_swaps_ports_for_identical_emitters(self):
        # collective resonant drive with a phase difference; for identical
        # emitters negating phi exchanges the two output ports exactly
        e = EmitterParams(2.0, 0.93, dephasing=0.05)
        drive = DriveConfig((0.2, 0.2), (0.0, 1.234), "cw")
        phi = 0.8 * np.pi
        sys_p = WaveguideSystem((e, e), phi)
        sys_m = WaveguideSystem((e, e), -phi)
        rho_p = steady_state(sys_p, drive)
        rho_m = steady_state(sys_m, drive)
        assert intensity(rho_m, sys_m, "L") == pytest.approx(
            intensity(rho_p, sys_p, "R"), abs=1e-10)
        assert intensity(rho_m, sys_m, "R") == pytest.approx(
            intensity(rho_p, sys_p, "L"), abs=1e-10)
