import numpy as np
import pytest

from wgqed import presets
from wgqed.hilbert import (basis_ket, collective_state, lowering_operator,
                           number_operator, raising_operator)
from wgqed.model import (DriveConfig, EmitterParams, LindbladGenerator,
                         PulseSpec, WaveguideSystem, coupling_rates,
                         effective_hamiltonian, field_operator, _spre_spost)


def simple_pair(gamma=1.0, beta=1.0, phi=0.0, dephasing=0.0):
    e = EmitterParams(gamma_total=gamma, beta=beta, dephasing=dephasing)
    return WaveguideSystem((e, e), phi)


class TestCouplingRates:
    def test_phi_zero(self):
        g12, j12 = coupling_rates(1.3, 1.3, 0.0)
        assert g12 == pytest.approx(1.3)
        assert j12 == pytest.approx(0.0)

    def test_phi_half_pi(self):
        g12, j12 = coupling_rates(2.0, 2.0, np.pi / 2)
        assert g12 == pytest.approx(0.0, abs=1e-15)
        assert j12 == pytest.approx(1.0)

    def test_phi_08pi(self):
        g12, j12 = coupling_rates(1.0, 1.0, 0.8 * np.pi)
        assert g12 == pytest.approx(-0.809017, abs=1e-6)
        assert j12 == pytest.approx(0.293893, abs=1e-6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            coupling_rates(-1.0, 1.0, 0.0)


class TestFieldOperator:
    def test_single_emitter_split(self):
        gamma = 2.2
        sys = WaveguideSystem((EmitterParams(gamma, beta=0.9),), 0.0)
        e_l = field_operator(sys, "L")
        v = basis_ket("e")
        assert np.real(v.conj() @ e_l.conj().T @ e_l @ v) == pytest.approx(
            0.9 * gamma / 2)

    def test_subradiant_dark_at_phi_zero(self):
        sys = simple_pair(phi=0.0)
        e_l = field_operator(sys, "L")
        v = collective_state("minus")
        assert np.linalg.norm(e_l @ v) < 1e-14

    def test_pi_plus_phi_is_left_dark(self):
        # fixes the sign convention: |pi+phi> decays only rightward
        phi = 0.8 * np.pi
        sys = simple_pair(gamma=1.7, beta=1.0, phi=phi)
        v = collective_state("pi_plus_phi", phi=phi)
        e_l = field_operator(sys, "L")
        e_r = field_operator(sys, "R")
        assert np.real(v.conj() @ e_l.conj().T @ e_l @ v) == pytest.approx(
            0.0, abs=1e-14)
        expected = 1.7 * (1 - np.cos(2 * phi)) / 2
        assert np.real(v.conj() @ e_r.conj().T @ e_r @ v) == pytest.approx(
            expected, rel=1e-12)

    def test_field_operator_quadratic_identity(self):
        # E_L'E_L + E_R'E_R = sum gamma_wg n_m + Gamma_12 cross terms
        rng = np.random.default_rng(11)
        for _ in range(5):
            g1, g2 = rng.uniform(0.5, 3.0, 2)
            b1, b2 = rng.uniform(0.2, 1.0, 2)
            phi = rng.uniform(0, 2 * np.pi)
            sys = WaveguideSystem(
                (EmitterParams(g1, b1), EmitterParams(g2, b2)), phi)
            e_l = field_operator(sys, "L")
            e_r = field_operator(sys, "R")
            total = e_l.conj().T @ e_l + e_r.conj().T @ e_r
            gw1, gw2 = b1 * g1, b2 * g2
            g12, _ = coupling_rates(gw1, gw2, phi)
            s1, s2 = lowering_operator(2, 1), lowering_operator(2, 2)
            expected = gw1 * s1.conj().T @ s1 + gw2 * s2.conj().T @ s2 \
                + g12 * (s1.conj().T @ s2 + s2.conj().T @ s1)
            np.testing.assert_allclose(total, expected, atol=1e-12)

    def test_guided_dissipator_equals_pairwise_form(self):
        # E_L,E_R jumps == pairwise cross-decay with Gamma_mn = sqrt cos(phi)
        rng = np.random.default_rng(7)
        for _ in range(5):
            g1, g2 = rng.uniform(0.5, 3.0, 2)
            b1, b2 = rng.uniform(0.2, 1.0, 2)
            phi = rng.uniform(0, 2 * np.pi)
            sys = WaveguideSystem(
                (EmitterParams(g1, b1), EmitterParams(g2, b2)), phi)
            eye = np.eye(4)
            d_guided = np.zeros((16, 16), dtype=complex)
            for d in "LR":
                j = field_operator(sys, d)
                jdj = j.conj().T @ j
                d_guided += _spre_spost(j, j.conj().T) - 0.5 * (
                    _spre_spost(jdj, eye) + _spre_spost(eye, jdj))
            gw = [b1 * g1, b2 * g2]
            gmat = np.array([[gw[0], np.sqrt(gw[0] * gw[1]) * np.cos(phi)],
                             [np.sqrt(gw[0] * gw[1]) * np.cos(phi), gw[1]]])
            d_pair = np.zeros((16, 16), dtype=complex)
            lows = [lowering_operator(2, 1), lowering_operator(2, 2)]
            for m in range(2):
                for n in range(2):
                    sm, sn = lows[m], lows[n]
                    smd_sn = sm.conj().T @ sn
                    d_pair += gmat[m, n] * (
                        _spre_spost(sn, sm.conj().T)
                        - 0.5 * (_spre_spost(smd_sn, eye)
                                 + _spre_spost(eye, smd_sn)))
            np.testing.assert_allclose(d_guided, d_pair, atol=1e-12)


class TestEffectiveHamiltonian:
    def test_matches_cited_matrix(self):
        sys = presets.qd_pair(detunings=(0.3, -0.2))
        h = effective_hamiltonian(sys)
        e1, e2 = sys.emitters
        off = -0.5j * np.exp(1j * 0.8 * np.pi) * np.sqrt(
            e1.beta * e2.beta * e1.gamma_total * e2.gamma_total)
        expected = np.array(
            [[0.3 - 0.5j * e1.gamma_total, off],
             [off, -0.2 - 0.5j * e2.gamma_total]])
        np.testing.assert_allclose(h, expected, atol=1e-14)

    def test_symmetric_dissipative_eigenvalues(self):
        sys = simple_pair(gamma=2.0, beta=1.0, phi=0.0)
        w = np.linalg.eigvals(effective_hamiltonian(sys, (0.0, 0.0)))
        rates = sorted(-2 * w.imag)  # decay rates of the collective states
        assert rates[0] == pytest.approx(0.0, abs=1e-12)
        assert rates[1] == pytest.approx(4.0, rel=1e-12)

    def test_dispersive_splitting_at_half_pi(self):
        gamma = 2.0
        sys = simple_pair(gamma=gamma, beta=1.0, phi=np.pi / 2)
        w = np.linalg.eigvals(effective_hamiltonian(sys, (0.0, 0.0)))
        # real splitting 2|J12| = gamma, purely dispersive case
        assert abs(w[0].real - w[1].real) == pytest.approx(gamma, rel=1e-12)

    def test_table_parameters_against_quadratic_formula(self):
        # independent 2x2 eigen-solve: roots of the characteristic polynomial
        sys = presets.qd_pair()
        h = effective_hamiltonian(sys)
        mean = 0.5 * (h[0, 0] + h[1, 1])
        disc = np.sqrt(0.25 * (h[0, 0] - h[1, 1]) ** 2 + h[0, 1] * h[1, 0])
        expected = sorted([mean + disc, mean - disc], key=lambda z: z.real)
        got = sorted(np.linalg.eigvals(h), key=lambda z: z.real)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestSystemValidation:
    def test_asymmetric_phase_matrix_rejected(self):
        e = EmitterParams(1.0, 0.9)
        with pytest.raises(ValueError, match="symmetric"):
            WaveguideSystem((e, e), np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_noncollinear_phases_rejected(self):
        e = EmitterParams(1.0, 0.9)
        bad = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="collinear"):
            WaveguideSystem((e, e, e), bad)

    def test_collinear_three_emitters_accepted(self):
        e = EmitterParams(1.0, 0.9)
        ref = np.array([0.0, 1.0, 2.5])
        mat = np.abs(ref[:, None] - ref[None, :])
        sys = WaveguideSystem((e, e, e), mat)
        assert sys.phase_from_first(3) == pytest.approx(2.5)

    def test_emitter_param_bounds(self):
        with pytest.raises(ValueError):
            EmitterParams(gamma_total=0.0, beta=0.5)
        with pytest.raises(ValueError):
            EmitterParams(gamma_total=1.0, beta=1.5)
        with pytest.raises(ValueError):
            EmitterParams(gamma_total=1.0, beta=0.5, dephasing=-0.1)


class TestDriveConfig:
    def test_repetition_period_guard(self):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(repetition_period=1.0))
        with pytest.raises(ValueError, match="repetition_period"):
            drive.validate_against(sys)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            DriveConfig((-1.0,), (0.0,))

    def test_pulse_envelope_area(self):
        pulse = PulseSpec(sigma_t=0.03, area=np.pi)
        t = np.linspace(0, 2 * pulse.center, 20001)
        area = np.trapezoid(pulse.envelope(t), t)
        assert area == pytest.approx(np.pi, rel=1e-6)

    def test_rabi_at_periodicity(self):
        drive = DriveConfig((1.0, 0.5), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.03, area=np.pi,
                                      repetition_period=13.6))
        t0 = drive.pulse.center
        np.testing.assert_allclose(drive.envelope_at(t0),
                                   drive.envelope_at(t0 + 13.6), rtol=1e-12)


    @pytest.mark.parametrize("sigma,period", [(0.25, 16.0), (0.03, 13.6)])
    def test_envelope_at_bits_equal_pulse_envelope(self, sigma, period):
        pulse = PulseSpec(sigma_t=sigma, area=np.pi, repetition_period=period)
        drive = DriveConfig((1.0,), (0.0,), "pulsed", pulse)
        lo, hi = pulse.support
        edges = [lo, hi]
        if sigma == 0.25:   # binary fractions: the edges sit at x = ±6 exactly
            assert (hi - pulse.center) / sigma == 6.0
        ts = list(np.random.default_rng(4).uniform(0.0, 3 * period, 200))
        for k in range(3):
            for edge in edges:
                t = edge + k * period
                ts += [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
        for t in ts:
            local = t - period * np.floor((t - pulse.center) / period + 0.5)
            ref = float(pulse.envelope(local))
            got = drive.envelope_at(t)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        assert drive.envelope_at(hi) > 0.0
        assert drive.envelope_at(np.nextafter(hi + period, np.inf)) == 0.0


class TestLindbladGenerator:
    def test_trace_annihilation(self):
        sys = presets.qd_pair(detunings=(0.4, -0.1))
        drive = DriveConfig((0.3, 0.2), (0.1, 1.2), "cw")
        gen = LindbladGenerator(sys, drive)
        tr = np.eye(4).reshape(-1)
        assert np.max(np.abs(tr @ gen.superoperator())) < 1e-12

    def test_trace_annihilation_pulsed(self):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 1.0), (0.0, 0.5), "pulsed", PulseSpec())
        gen = LindbladGenerator(sys, drive)
        tr = np.eye(4).reshape(-1)
        for t in [0.0, drive.pulse.center, 1.0]:
            assert np.max(np.abs(tr @ gen.superoperator(t))) < 1e-12

    def test_phi_periodicity(self):
        e = EmitterParams(2.0, 0.9)
        phi = 0.8 * np.pi
        g1 = LindbladGenerator(WaveguideSystem((e, e), phi))
        g2 = LindbladGenerator(WaveguideSystem((e, e), phi + 2 * np.pi))
        np.testing.assert_allclose(g1.superoperator(), g2.superoperator(),
                                   atol=1e-12)

    def test_excitation_flux_balance(self):
        # Tr[N L(rho)] = -(I_L + I_R + residual loss) for any state
        sys = presets.qd_pair()
        gen = LindbladGenerator(sys, DriveConfig.off(2))
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        n_op = number_operator(2, 1) + number_operator(2, 2)
        lhs = np.real(np.trace(
            n_op @ (gen.superoperator() @ rho.reshape(-1)).reshape(4, 4)))
        flux = 0.0
        for d in "LR":
            e_d = field_operator(sys, d)
            flux += np.real(np.trace(e_d.conj().T @ e_d @ rho))
        for m_, em in enumerate(sys.emitters, start=1):
            resid = (1 - em.beta) * em.gamma_total
            flux += resid * np.real(np.trace(number_operator(2, m_) @ rho))
        assert lhs == pytest.approx(-flux, abs=1e-9)
