import dataclasses
import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from wgqed import dynamics, hilbert, model, presets
from wgqed.dynamics import (g2_cw, integrated_pulsed_g2, propagate,
                            pulsed_g2_map, steady_state, two_time_correlation)
from wgqed.errors import (DegenerateSteadyStateError, IntegrationError,
                          NumericalError)
from wgqed.hilbert import DensityState, basis_ket, collective_state
from wgqed.instrument import NoiseAveragingPlan, noise_nodes
from wgqed.model import (DriveConfig, EmitterParams, LindbladGenerator,
                         PulseSpec, WaveguideSystem, field_operator,
                         superoperators)
from wgqed.observables import intensity_record, population_projection
from wgqed.analytics import perturbative_steady_state


def single_emitter(gamma=2.0, beta=1.0, dephasing=0.0):
    return WaveguideSystem((EmitterParams(gamma, beta, dephasing=dephasing),),
                           0.0)


def identical_pair(gamma=2.0, beta=1.0, phi=0.8 * np.pi, dephasing=0.0):
    e = EmitterParams(gamma, beta, dephasing=dephasing)
    return WaveguideSystem((e, e), phi)


class TestPropagate:
    def test_spontaneous_decay(self):
        gamma = 2.0
        sys = single_emitter(gamma)
        t = np.linspace(0.0, 3.0, 61)
        traj = propagate(basis_ket("e"), sys, DriveConfig.off(1), t)
        pop = np.real(traj.states[:, 0, 0])
        np.testing.assert_allclose(pop, np.exp(-gamma * t), atol=1e-7)

    def test_trace_drift_small(self):
        sys = presets.qd_pair()
        t = np.linspace(0.0, 5.0, 51)
        traj = propagate(basis_ket("eg"), sys, DriveConfig.off(2), t)
        traces = np.einsum("tii->t", traj.states).real
        assert np.max(np.abs(traces - 1)) < 1e-8

    def test_single_excitation_photon_number(self):
        # lossless guide: exactly one photon leaves through the two ports
        sys = identical_pair(beta=1.0)
        t = np.linspace(0.0, 40.0, 4001)
        traj = propagate(basis_ket("eg"), sys, DriveConfig.off(2), t)
        rec = intensity_record(traj, sys)
        total = np.trapezoid(rec.left + rec.right, t)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_right_over_left_rises_then_relaxes(self):
        sys = presets.qd_pair()
        t = np.linspace(0.0, 8.0, 401)
        traj = propagate(basis_ket("eg"), sys, DriveConfig.off(2), t)
        rec = intensity_record(traj, sys)
        ratio = rec.right / rec.left
        assert ratio[0] == pytest.approx(1.0, abs=1e-9)
        k = int(np.argmax(ratio))
        assert ratio[k] > 1.05
        assert 0 < k < len(t) - 1          # peak inside the window
        assert ratio[-1] < ratio[k]        # relaxes back toward symmetric

    def test_grid_must_start_at_zero(self):
        sys = single_emitter()
        with pytest.raises(ValueError, match="start at 0"):
            propagate(basis_ket("e"), sys, DriveConfig.off(1),
                      np.array([1.0, 2.0]))

    def test_superradiant_initial_decay_rate(self):
        # |+> at phi=0, beta=1: total excited population decays at 2*Gamma
        gamma = 2.0
        sys = identical_pair(gamma=gamma, beta=1.0, phi=0.0)
        dt = 1e-4
        traj = propagate(collective_state("plus"), sys, DriveConfig.off(2),
                         np.array([0.0, dt, 2 * dt]), validate=False)
        pop = np.real(traj.states[:, 1, 1] + traj.states[:, 2, 2]
                      + 2 * traj.states[:, 0, 0])
        slope = (pop[2] - pop[0]) / (2 * dt)
        assert slope == pytest.approx(-2 * gamma, rel=1e-3)


def rk45_reference(system, drive, t):
    """vec(ρ) on t (from 0) from |g…g⟩ by RK45 at rtol 1e-13 on L(t),
    split at every pulse edge."""
    gen = LindbladGenerator(system, drive)
    y = np.zeros(gen.dim ** 2, dtype=complex)
    y[-1] = 1.0
    period, (lo, hi) = drive.pulse.repetition_period, drive.pulse.support
    edges = {0.0, t[-1]} | {e + k * period for e in (lo, hi)
                            for k in range(int(t[-1] // period) + 1)}
    edges = sorted(e for e in edges if 0.0 <= e <= t[-1])
    out = [y[None, :]]
    for a, b in zip(edges[:-1], edges[1:]):
        inside = [x for x in t if a < x <= b]
        t_eval = inside + [b] * int(not inside or inside[-1] < b)
        in_pulse = (0.5 * (a + b) - lo) % period < hi - lo
        sol = solve_ivp(lambda tt, x: gen.superoperator(tt) @ x, (a, b), y,
                        t_eval=t_eval, rtol=1e-13, atol=1e-15,
                        max_step=drive.pulse.sigma_t / 20 if in_pulse
                        else np.inf)
        out.append(sol.y[:, :len(inside)].T)
        y = sol.y[:, -1]
    return np.concatenate(out)


class TestExactPropagation:
    """Exact steps between pulses, RK45 inside them."""

    def test_pulse_end_between_grid_points(self):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 0.6), (0.0, 0.9), "pulsed",
                            PulseSpec(sigma_t=0.03, area=np.pi))
        t = np.arange(0.0, 3.0 + 1e-9, 0.025)   # pulse ends at 0.36
        assert t[14] < drive.pulse.support[1] < t[15]
        traj = propagate(basis_ket("gg"), sys, drive, t, validate=False)
        np.testing.assert_allclose(traj.states.reshape(len(t), -1),
                                   rk45_reference(sys, drive, t),
                                   rtol=0, atol=1e-9)

    def test_non_uniform_grid(self):
        # criterion 2's grid: the pulse end, then steps equal up to rounding
        sys = identical_pair(beta=1.0)
        pulse = PulseSpec(sigma_t=0.002, area=0.5 * np.pi)
        drive = DriveConfig((1.0, 1.0), (0.0, 0.7), "pulsed", pulse)
        prompt = pulse.center + 6.0 * pulse.sigma_t
        t = np.concatenate([[0.0], np.arange(prompt, prompt + 0.4001,
                                             0.002)])
        traj = propagate(basis_ket("gg"), sys, drive, t, validate=False)
        np.testing.assert_allclose(traj.states.reshape(len(t), -1),
                                   rk45_reference(sys, drive, t),
                                   rtol=0, atol=1e-9)

    def test_static_generator_makes_no_ode_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called for a static generator")

        monkeypatch.setattr(dynamics, "solve_ivp", refuse)
        sys = presets.qd_pair()
        propagate(basis_ket("eg"), sys, DriveConfig.off(2),
                  np.linspace(0.0, 5.0, 51))
        drive = DriveConfig((0.3, 0.0), (0.0, 0.0), "cw")
        rho = steady_state(sys, drive)
        e_l = field_operator(sys, "L")
        tau = np.linspace(0.0, 2.0, 21)
        late = two_time_correlation(sys, drive, e_l, e_l, rho, tau,
                                    t_start=1.3)
        early = two_time_correlation(sys, drive, e_l, e_l, rho, tau)
        np.testing.assert_allclose(late.values, early.values, rtol=1e-10)

    def test_one_ode_call_per_pulse_window(self, monkeypatch):
        spans = []
        port = dynamics.solve_ivp

        def counting(fun, t_span, *args, **kwargs):
            spans.append(tuple(t_span))
            return port(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", counting)
        sys = presets.qd_pair()
        pulse = PulseSpec(sigma_t=0.03, area=np.pi)
        drive = DriveConfig((1.0, 0.0), (0.0, 0.0), "pulsed", pulse)
        t = np.arange(0.0, 16.0, 0.25)    # the second pulse lies in between
        traj = propagate(basis_ket("gg"), sys, drive, t, validate=False)
        lo, hi = pulse.support
        period = pulse.repetition_period
        assert spans == [(lo, hi), (lo + period, hi + period)]
        np.testing.assert_allclose(traj.states.reshape(len(t), -1),
                                   rk45_reference(sys, drive, t),
                                   rtol=0, atol=1e-9)


class NanAfter:
    """A pulsed drive stand-in whose one window is [0, 1] and whose
    envelope turns NaN after ``t_nan``."""
    pulse = PulseSpec(sigma_t=0.03, area=np.pi)

    def __init__(self, t_nan):
        self.t_nan = t_nan

    def pulse_windows(self, t0, t1):
        return [(0.0, 1.0)]

    def envelope_at(self, t):
        return np.nan if t > self.t_nan else 1.0


class TestSolveIvpPort:
    """``dynamics.solve_ivp`` is scipy 1.17.1's RK45 (``solve_ivp(method=
    "RK45")``) ported: the same times, states, RHS evaluations and
    outcome, bit for bit."""

    def assert_as_scipy(self, fun, t_span, y0, t_eval, **tols):
        got = dynamics.solve_ivp(fun, t_span, y0, t_eval=t_eval, **tols)
        ref = solve_ivp(fun, t_span, y0, method="RK45", t_eval=t_eval,
                        **tols)
        assert np.array_equal(got.t, ref.t)
        assert np.array_equal(got.y, ref.y)
        assert (got.nfev, got.success, got.message) == \
            (ref.nfev, ref.success, ref.message)
        return got

    def stacked_linear(self, k=3, n=6, m=4):
        """A random complex stack of K systems of m columns each under
        (L + e^{-t²}·D)X, flattened as ``_states`` flattens it."""
        gen = np.random.default_rng(5)
        l0, d = (gen.normal(size=(2, k, n, n))
                 + 1j * gen.normal(size=(2, k, n, n)))
        y0 = gen.normal(size=(k, n, m)) + 1j * gen.normal(size=(k, n, m))

        def fun(t, x):
            return ((l0 + np.exp(-t * t) * d) @ x.reshape(k, n, m)).ravel()
        return fun, y0.ravel()

    def test_stacked_system_inside_and_at_the_end(self):
        fun, y0 = self.stacked_linear()
        got = self.assert_as_scipy(fun, (0.2, 1.3), y0,
                                   [0.25, 0.7, 0.7 + 1e-9, 1.3],
                                   rtol=1e-10, atol=1e-12)
        assert got.success and got.y.shape == (len(y0), 4)
        self.assert_as_scipy(fun, (0.2, 1.3), y0, [1.3],
                             rtol=1e-6, atol=1e-8)

    def test_binding_max_step(self):
        fun, y0 = self.stacked_linear(k=2, m=1)
        free = dynamics.solve_ivp(fun, (0.0, 1.0), y0, [1.0], rtol=1e-6,
                                  atol=1e-8)
        bound = self.assert_as_scipy(fun, (0.0, 1.0), y0, [0.5, 1.0],
                                     rtol=1e-6, atol=1e-8, max_step=0.01)
        assert bound.nfev >= 6 * 100 > free.nfev

    def test_rejected_steps(self):
        # a stiff decay under a fast drive: the step control rejects steps
        # (more evaluations than the 6 per step and 2 to start)
        def fun(t, x):
            return -50.0 * x + np.sin(40.0 * t)
        got = self.assert_as_scipy(fun, (0.0, 2.0), np.ones(3),
                                   np.linspace(0.0, 2.0, 9),
                                   rtol=1e-3, atol=1e-6)
        steps = solve_ivp(fun, (0.0, 2.0), np.ones(3), rtol=1e-3,
                          atol=1e-6).t.size - 1
        assert got.nfev > 2 + 6 * steps

    def test_empty_span_gives_the_initial_state(self):
        # scipy evaluates the RHS once and succeeds, but returns no points
        # (it reads t_eval from its end when t0 >= tf); the port gives y0
        y0 = np.array([1.0 + 2.0j, -0.5j])
        got = dynamics.solve_ivp(lambda t, x: -x, (0.5, 0.5), y0, [0.5, 0.5],
                                 rtol=1e-8, atol=1e-10)
        ref = solve_ivp(lambda t, x: -x, (0.5, 0.5), y0, t_eval=[0.5, 0.5],
                        rtol=1e-8, atol=1e-10)
        assert (got.nfev, got.success) == (ref.nfev, ref.success) == (1, True)
        assert np.array_equal(got.t, [0.5, 0.5])
        assert np.array_equal(got.y, np.stack([y0, y0], axis=1))

    def test_rhs_turning_nan_fails_as_scipy_does(self):
        fun, y0 = self.stacked_linear(k=1, n=2, m=1)

        def blowup(t, x):
            return fun(t, x) * (np.nan if t > 0.5 else 1.0)
        with np.errstate(invalid="ignore"):
            got = self.assert_as_scipy(blowup, (0.0, 1.0), y0,
                                       [0.1, 0.3, 0.6, 1.0],
                                       rtol=1e-8, atol=1e-10)
        assert not got.success and got.message == \
            "Required step size is less than spacing between numbers."
        assert got.t[-1] < 0.5

    def test_states_raises_integration_error(self):
        l0 = np.zeros((1, 4, 4), dtype=complex)
        d = np.eye(4, dtype=complex)[None]
        y = np.ones((1, 4, 1), dtype=complex)
        # NaN part way, and from the start, where scipy's step loop would
        # not end: a NaN step size fails at once
        for t_nan in (0.4, -1.0):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(IntegrationError) as err:
                list(dynamics._states(l0, d, NanAfter(t_nan), y, 0.0,
                                      np.array([0.2, 0.5, 1.0])))
            assert err.value.t <= max(t_nan, 0.0) + 0.03
            if t_nan > 0:
                # where the steps stopped, not the last stored time, 0.2
                assert 0.2 < err.value.t <= t_nan

    def test_step_matrices_leave_no_reference_cycle(self):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 0.6), (0.0, 0.9), "pulsed",
                            PulseSpec(sigma_t=0.03, area=np.pi))
        gen = LindbladGenerator(sys, drive)
        gc.collect()
        gc.disable()
        try:
            mats = dynamics._step_matrices(gen, np.arange(0.0, 0.5, 0.025))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(mats) == 19


class TestStackedPropagation:
    """One march for a stack of systems and drives sharing their pulses."""

    def stack(self):
        base = presets.qd_pair()
        pulse = PulseSpec(sigma_t=0.03, area=np.pi)
        systems = [base, base.with_detuning_offsets([0.0, 9.0]),
                   base.with_detuning_offsets([-4.0, 2.0]), base]
        drives = [DriveConfig((1.0, 0.6), (0.0, th), "pulsed", pulse)
                  for th in (0.0, 0.9, 2.5)] + [
            DriveConfig((0.0, 0.0), (0.0, 0.0), "pulsed", pulse)]
        return systems, drives

    def test_mixed_stack_matches_per_member_calls(self):
        systems, drives = self.stack()
        t = np.arange(0.0, 2.0 + 1e-9, 0.025)
        stacked = propagate(basis_ket("gg"), systems, drives, t,
                            validate=False)
        assert len(stacked) == len(systems)
        for traj, system, drive in zip(stacked, systems, drives):
            alone = propagate(basis_ket("gg"), system, drive, t,
                              validate=False)
            assert traj.drive is drive
            np.testing.assert_allclose(traj.states, alone.states, rtol=0,
                                       atol=1e-9)

    def test_single_system_keeps_trajectory_shape(self):
        systems, drives = self.stack()
        t = np.linspace(0.0, 1.0, 11)
        traj = propagate(basis_ket("gg"), systems[0], drives[1], t)
        assert isinstance(traj, dynamics.Trajectory)
        assert traj.states.shape == (11, 4, 4)
        assert traj.drive is drives[1]
        # one system under a sequence of drives is repeated
        trajs = propagate(basis_ket("gg"), systems[0], drives[:2], t)
        assert [tr.drive for tr in trajs] == drives[:2]

    def test_mismatched_pulses_rejected(self):
        systems, drives = self.stack()
        other = DriveConfig((1.0, 0.6), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.02, area=np.pi))
        t = np.linspace(0.0, 1.0, 11)
        for odd in (other, DriveConfig((0.3, 0.0), (0.0, 0.0), "cw")):
            with pytest.raises(ValueError, match="share their pulses"):
                propagate(basis_ket("gg"), systems[0], [drives[0], odd], t)
        with pytest.raises(ValueError, match="differ in number"):
            propagate(basis_ket("gg"), systems[:2], drives[:3], t)

    def test_stack_of_one_equals_single_call(self):
        systems, drives = self.stack()
        t = np.arange(0.0, 3.0 + 1e-9, 0.025)
        (one,) = propagate(basis_ket("gg"), systems[:1], drives[:1], t,
                           validate=False)
        alone = propagate(basis_ket("gg"), systems[0], drives[0], t,
                          validate=False)
        assert np.array_equal(one.states, alone.states)
        np.testing.assert_allclose(one.states.reshape(len(t), -1),
                                   rk45_reference(systems[0], drives[0], t),
                                   rtol=0, atol=1e-9)

    def test_quiet_members_leave_step_control_unchanged(self):
        # |gg⟩ is stationary without a drive, so 63 undriven members add
        # nothing to the pooled error norm: with tolerances scaled by
        # 1/√K the driven member takes the steps it takes alone
        systems, drives = self.stack()
        t = np.arange(0.0, 1.0 + 1e-9, 0.025)
        alone = propagate(basis_ket("gg"), systems[0], drives[1], t,
                          validate=False)
        stacked = propagate(basis_ket("gg"), systems[0],
                            [drives[1]] + [drives[3]] * 63, t,
                            validate=False)
        np.testing.assert_allclose(stacked[0].states, alone.states, rtol=0,
                                   atol=1e-14)

    def test_long_stack_marches_in_chunks(self, monkeypatch):
        systems, drives = self.stack()
        systems, drives = systems + systems[:1], drives + drives[2:3]
        t = np.arange(0.0, 1.0 + 1e-9, 0.05)
        whole = propagate(basis_ket("gg"), systems, drives, t,
                          validate=False)
        sizes = []

        def counted(systems, drives):
            sizes.append(len(systems))
            return superoperators(systems, drives)

        monkeypatch.setattr(dynamics, "superoperators", counted)
        member = 16 * (dynamics.STACK_SUPEROPERATORS * 4 ** 4
                       + len(t) * 4 ** 2)
        monkeypatch.setattr(dynamics, "NODE_STACK_BYTES", 2 * member)
        chunked = propagate(basis_ket("gg"), systems, drives, t,
                            validate=False)
        assert sizes == [2, 2, 1]
        for a, b in zip(whole, chunked):
            np.testing.assert_allclose(a.states, b.states, rtol=0, atol=1e-9)


class TestPropagatorColumns:
    """m columns per system: states, or the identity for a propagator."""

    def pulse_between_grid_points(self):
        sys = presets.qd_pair()
        pulse = PulseSpec(sigma_t=0.03, area=np.pi, center=0.2)
        drive = DriveConfig((1.0, 0.6), (0.0, 0.9), "pulsed", pulse)
        t = np.arange(21) * 0.025       # support [0.02, 0.38]
        assert t[0] < pulse.support[0] < t[1]
        assert t[15] < pulse.support[1] < t[16]
        return sys, drive, t

    def test_step_propagators_match_rk45_reference(self):
        # the edge steps split expm–RK45–expm inside one grid step
        sys, drive, t = self.pulse_between_grid_points()
        gen = LindbladGenerator(sys, drive)
        mats = dynamics._step_matrices(gen, t)
        lo, hi = drive.pulse.support
        dim2 = gen.dim ** 2

        def rhs(tt, x):
            return (gen.superoperator(tt) @ x.reshape(dim2, dim2)).reshape(-1)

        for k, (a, b) in enumerate(zip(t[:-1], t[1:])):
            edges = sorted({a, b} | {e for e in (lo, hi) if a < e < b})
            phi = np.eye(dim2, dtype=complex)
            for u, v in zip(edges[:-1], edges[1:]):
                inside = lo <= 0.5 * (u + v) <= hi
                sol = solve_ivp(rhs, (u, v), phi.reshape(-1), t_eval=[v],
                                rtol=1e-13, atol=1e-15,
                                max_step=drive.pulse.sigma_t / 20 if inside
                                else np.inf)
                phi = sol.y[:, -1].reshape(dim2, dim2)
            np.testing.assert_allclose(mats[k], phi, rtol=0, atol=1e-9)

    def test_stack_of_columns_equals_single_column_calls(self):
        sys, drive, t = self.pulse_between_grid_points()
        systems = [sys, sys.with_detuning_offsets([0.0, 5.0])]
        drives = [drive, DriveConfig((0.4, 1.0), (0.0, 0.0), "pulsed",
                                     drive.pulse)]
        columns = np.stack([np.outer(a, a.conj()).reshape(-1) for a in
                            map(basis_ket, ("gg", "eg", "ee"))], axis=1)
        y = np.stack([columns, columns[:, ::-1]])
        assert y.shape == (2, 16, 3)
        times = t[3:]

        def march(members, start):
            return np.array(list(dynamics._march(
                systems[members], drives[members], times, 16 * 16 * 3,
                lambda l0: start, lambda x: x, t0=0.01)))

        stacked = march(slice(None), y)
        assert stacked.shape == (2, len(times), 16, 3)
        for k in range(2):
            for j in range(3):
                alone = march(slice(k, k + 1), y[k:k + 1, :, j:j + 1])
                np.testing.assert_allclose(stacked[k, :, :, j],
                                           alone[0, :, :, 0], rtol=0,
                                           atol=1e-9)

    def test_readout_equals_contracted_states(self):
        # three members whose pulse lies between grid points (RK45 branch)
        sys, drive, t = self.pulse_between_grid_points()
        systems = [sys, sys.with_detuning_offsets([0.0, 5.0]),
                   sys.with_detuning_offsets([-3.0, 0.0])]
        drives = [drive, DriveConfig((0.4, 1.0), (0.0, 0.0), "pulsed",
                                     drive.pulse), drive]
        rho = np.outer(basis_ket("gg"), basis_ket("gg").conj())
        y = np.repeat(rho.reshape(1, -1, 1), 3, axis=0)
        w = np.stack([[dynamics._trace_weight(op) for op in (
            np.eye(4), *(e.conj().T @ e for e in (
                field_operator(s, p) for p in "LR")))] for s in systems])

        def march(read, row_bytes):
            return np.array(list(dynamics._march(
                systems, drives, t, row_bytes, lambda l0: y, read)))

        read = march(lambda x: np.einsum("krj,knjm->knrm", w, x), 16 * 3)
        states = march(lambda x: x, 16 * 16)
        assert read.shape == (3, len(t), 3, 1)
        np.testing.assert_allclose(
            read, np.einsum("krj,ktjm->ktrm", w, states), rtol=0, atol=1e-15)

    def test_cw_readout_of_columns_equals_contracted_states(self):
        # P = 3 seed columns per member, column p read by weight row p, as
        # in g2_cw
        sys = presets.qd_pair()
        cw = DriveConfig((0.3, 0.0), (0.0, 0.0), "cw")
        systems = [sys, sys.with_detuning_offsets([0.0, 2.0])]
        _, d = superoperators(systems, [cw, cw])
        assert d is None
        rng = np.random.default_rng(5)
        y = rng.normal(size=(2, 16, 3)) + 1j * rng.normal(size=(2, 16, 3))
        w = rng.normal(size=(2, 3, 16)) + 1j * rng.normal(size=(2, 3, 16))
        tau = np.arange(0.0, 0.3 + 0.005, 0.01)

        def march(read, row_bytes):
            return np.array(list(dynamics._march(
                systems, [cw, cw], tau, row_bytes, lambda l0: y, read)))

        read = march(lambda x: np.einsum("kpj,knjp->knp", w, x), 16 * 3)
        states = march(lambda x: x, 16 * 16 * 3)
        assert read.shape == (2, len(tau), 3)
        for i in range(len(tau)):
            assert np.array_equal(
                read[:, i], np.einsum("kpj,kjp->kp", w, states[:, i]))

    def test_pulsed_map_solves_keep_only_requested_times(self, monkeypatch):
        calls = []
        port = dynamics.solve_ivp

        def recording(fun, t_span, *args, **kwargs):
            calls.append(kwargs.get("t_eval"))
            return port(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", recording)
        sys, drive, t = self.pulse_between_grid_points()
        pulsed_g2_map(sys, drive, ports=("LL", "LR"), window=0.5, dt=0.025)
        assert len(calls) == 16    # one per grid step the pulse touches
        assert all(t_eval is not None for t_eval in calls)


class TestSteadyState:
    def test_weak_drive_two_level_population(self):
        gamma = 2.0
        omega = gamma / 100
        sys = single_emitter(gamma)
        rho = steady_state(sys, DriveConfig((omega,), (0.0,), "cw"))
        # leading order: p_e = (omega/gamma)^2
        assert rho.matrix[0, 0].real == pytest.approx(
            (omega / gamma) ** 2, rel=2e-3)

    def test_saturable_mirror_population_ratio(self):
        gamma = 2.0
        e = EmitterParams(gamma, beta=0.999)
        sys = WaveguideSystem((e, e), 0.8 * np.pi)
        rho = steady_state(sys, DriveConfig((gamma / 50, 0.0), (0.0, 0.0), "cw"))
        p_plus = population_projection(rho, "plus_phi", phi=0.8 * np.pi)
        p_minus = population_projection(rho, "minus_phi", phi=0.8 * np.pi)
        assert p_plus < 1e-3 * p_minus

    def test_degenerate_null_space_detected(self):
        # undriven lossless pair at phi=0: |gg> and the subradiant state
        # are both stationary
        sys = identical_pair(beta=1.0, phi=0.0)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(sys, DriveConfig.off(2))

    def test_matches_perturbative_coefficients(self):
        # dephasing-free variant of the device pair: the perturbative
        # formulas carry no dephasing corrections
        import dataclasses
        emitters = tuple(dataclasses.replace(e, dephasing=0.0)
                         for e in presets.qd_pair().emitters)
        sys = WaveguideSystem(emitters, presets.COUPLING_PHASE)
        om = sys.emitters[0].gamma_total / 40
        drive = DriveConfig((om, 0.0), (0.0, 0.0), "cw")
        rho = steady_state(sys, drive)
        pert = perturbative_steady_state(sys, (om, 0.0), (0.0, 0.0))
        rel = (om / sys.emitters[0].gamma_total) ** 2
        # rho_{eg,gg} ~ c_eg etc. up to O(Omega^2) relative corrections
        assert abs(rho.matrix[1, 3] - pert.c_eg) < 5 * rel * abs(pert.c_eg)
        assert abs(rho.matrix[2, 3] - pert.c_ge) < 5 * rel * abs(pert.c_ge)
        assert abs(rho.matrix[0, 3] - pert.c_ee) < 5 * rel * abs(pert.c_ee)

    @staticmethod
    def fast_pair():
        # Γ/2π = 1000 GHz at Ω/Γ = 50: ‖L‖ ~ 3e5 rad/ns
        gamma = 2 * np.pi * 1000.0
        e = EmitterParams(gamma, 0.9, dephasing=0.01 * gamma)
        sys = WaveguideSystem((e, e), 0.8 * np.pi)
        return sys, DriveConfig((50.0 * gamma, 0.0), (0.0, 0.0), "cw")

    def test_fast_pair_not_rejected(self):
        sys, drive = self.fast_pair()
        rho = steady_state(sys, drive)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [1e-2, 1e3])
    @pytest.mark.parametrize("case", ["device", "fast"])
    def test_rate_scaling_leaves_state_unchanged(self, case, lam):
        if case == "fast":
            sys, drive = self.fast_pair()
        else:
            sys = presets.qd_pair()
            drive = DriveConfig((0.2, 0.1), (0.0, 0.7), "cw")
        scaled_sys = WaveguideSystem(
            tuple(EmitterParams(e.gamma_total * lam, e.beta,
                                detuning=e.detuning * lam,
                                dephasing=e.dephasing * lam)
                  for e in sys.emitters), sys.coupling_phase)
        scaled_drive = DriveConfig(
            tuple(r * lam for r in drive.rabi_amplitude), drive.drive_phase,
            "cw")
        rho = steady_state(sys, drive).matrix
        np.testing.assert_allclose(
            steady_state(scaled_sys, scaled_drive).matrix, rho,
            rtol=0, atol=1e-9 * np.abs(rho).max())

    def test_anti_hermitian_part_is_checked(self, monkeypatch):
        svd = np.linalg.svd

        def skewed(a):
            u, s, vh = svd(a)
            dim = int(round(np.sqrt(vh.shape[1])))
            skew = np.zeros((dim, dim), dtype=complex)
            skew[0, 1], skew[1, 0] = 1e-6, -1e-6
            vh[-1] += skew.reshape(-1)
            return u, s, vh

        monkeypatch.setattr(dynamics.np.linalg, "svd", skewed)
        sys = presets.qd_pair()
        with pytest.raises(NumericalError, match="anti-Hermitian"):
            steady_state(sys, DriveConfig((0.2, 0.1), (0.0, 0.7), "cw"))


class TestTwoTimeCorrelation:
    def test_weak_drive_g2_shape(self):
        # independent weak-drive limit: g2(tau) = (1 - e^{-Gamma tau/2})^2
        gamma = 2.0
        omega = gamma / 50
        sys = single_emitter(gamma)
        drive = DriveConfig((omega,), (0.0,), "cw")
        rho = steady_state(sys, drive)
        e_op = field_operator(sys, "L")
        tau = np.linspace(0.0, 6.0 / gamma, 40)
        res = two_time_correlation(sys, drive, e_op, e_op, rho, tau)
        i_ss = np.real(rho.expectation(e_op.conj().T @ e_op))
        g2 = res.values / i_ss ** 2
        expected = (1 - np.exp(-gamma * tau / 2)) ** 2
        mask = expected > 0.05
        np.testing.assert_allclose(g2[mask], expected[mask], rtol=0.02)

    def test_identity_b_reproduces_intensity(self):
        sys = presets.qd_pair()
        drive = DriveConfig((0.2, 0.1), (0.0, 0.7), "cw")
        rho = steady_state(sys, drive)
        a = field_operator(sys, "R")
        tau = np.linspace(0.0, 4.0, 9)
        res = two_time_correlation(sys, drive, a, np.eye(4), rho, tau)
        expected = np.real(rho.expectation(a.conj().T @ a))
        np.testing.assert_allclose(res.values, expected, rtol=1e-9)

    def test_pulsed_regression_matches_map_lattice(self):
        # dual route: the ODE-based regression through a pulse must agree
        # with the propagator-lattice map machinery
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.03, area=np.pi))
        res = pulsed_g2_map(sys, drive, ports="LR", window=2.0, dt=0.1)
        e_l = field_operator(sys, "L")
        e_r = field_operator(sys, "R")
        t = np.arange(0.0, 2.01, 0.1)
        traj = propagate(basis_ket("gg"), sys, drive, t, validate=False)
        for i in (3, 7, 12):
            tau = t[i:] - t[i]
            rr = two_time_correlation(sys, drive, e_l, e_r,
                                      traj.states[i], tau, t_start=t[i])
            np.testing.assert_allclose(rr.values, res.same.values[i, i:],
                                       atol=1e-8, rtol=1e-6)

    def test_clipping_diagnostics(self):
        from wgqed.dynamics import _clip_correlations
        tau = np.arange(4.0)
        with pytest.warns(RuntimeWarning, match="clipped"):
            res = _clip_correlations(tau, np.array([1.0, -1e-9, 2.0, -2e-9]))
        assert res.clipped == 2
        assert np.all(res.values >= 0)
        # below-tolerance negatives clip silently
        res2 = _clip_correlations(tau, np.array([1.0, -1e-11, 2.0, 3.0]))
        assert res2.clipped == 0
        assert res2.values[1] == 0.0
        # the tolerance is 1e-10 of each result's largest |G| (here 2e-10),
        # and each column of a (τ, K) array is a result of its own
        raw = np.array([1.0, -1e-9, 2.0, -2e-11])
        for scaled in (1e-6 * raw, 1e6 * raw,
                       np.column_stack([raw, 1e-6 * raw])):
            with pytest.warns(RuntimeWarning, match="clipped"):
                res = _clip_correlations(tau, scaled)
            assert res.clipped == scaled.size // 4

    def test_long_delay_factorization(self):
        sys = presets.qd_pair()
        drive = DriveConfig((0.3, 0.0), (0.0, 0.0), "cw")
        rho = steady_state(sys, drive)
        a = field_operator(sys, "L")
        b = field_operator(sys, "R")
        tau = np.array([0.0, 60.0])
        res = two_time_correlation(sys, drive, a, b, rho, tau)
        ia = np.real(rho.expectation(a.conj().T @ a))
        ib = np.real(rho.expectation(b.conj().T @ b))
        assert res.values[-1] == pytest.approx(ia * ib, rel=1e-6)


class TestG2CW:
    def test_far_detuned_single_emitter_antibunching(self):
        sys = presets.qd_pair()
        gamma1 = sys.emitters[0].gamma_total
        sys = sys.with_detunings((0.0, 100.0 * gamma1))
        drive = DriveConfig((gamma1 / 16, 0.0), (0.0, 0.0), "cw")
        out = g2_cw(sys, drive, pairs=("LL",), tau_max=4.0)
        assert out["g2"]["LL"][0] < 0.05

    def test_right_port_bunching_exceeds_left(self):
        sys = presets.qd_pair()
        gamma1 = sys.emitters[0].gamma_total
        drive = DriveConfig((gamma1 / 16, 0.0), (0.0, 0.0), "cw")
        out = g2_cw(sys, drive, pairs=("LL", "RR"), tau_max=2.0)
        assert out["g2"]["RR"][0] > out["g2"]["LL"][0]

    @pytest.mark.parametrize("plan", [
        NoiseAveragingPlan("gauss_hermite", 3),
        NoiseAveragingPlan("monte_carlo", 5, seed=7)])
    def test_stack_equals_per_node_loop(self, plan):
        sys = presets.qd_pair()
        gamma1 = sys.emitters[0].gamma_total
        drive = DriveConfig((gamma1 / 16, 0.0), (0.0, 0.0), "cw")
        sigmas = [e.spectral_diffusion_sigma for e in sys.emitters]
        offsets, _ = noise_nodes(sigmas, plan)
        nodes = [sys.with_detuning_offsets(o) for o in offsets]
        pairs = ("LL", "LR", "RL", "RR")
        stacked = g2_cw(nodes, drive, pairs=pairs, tau_max=0.5, dt=0.01)
        for k, node in enumerate(nodes):
            one = g2_cw(node, drive, pairs=pairs, tau_max=0.5, dt=0.01)
            for p in "LR":
                assert stacked["intensity"][p][k] == one["intensity"][p]
            for key in ("G2", "g2", "clipped"):
                for pair in pairs:
                    assert np.array_equal(stacked[key][pair][k],
                                          one[key][pair])
        assert np.array_equal(stacked["tau"], one["tau"])
        assert stacked["G2"]["LL"].shape == (len(nodes), len(one["tau"]))

    def test_long_stack_marches_in_chunks(self, monkeypatch):
        # five nodes in chunks of two: one superoperator build per chunk,
        # and every array as one call over the whole stack gives it
        sys = presets.qd_pair()
        drive = DriveConfig((sys.emitters[0].gamma_total / 16, 0.0),
                            (0.0, 0.0), "cw")
        nodes = [sys.with_detuning_offsets([0.0, 0.2 * j]) for j in range(5)]
        pairs = ("LL", "LR", "RL")
        whole = g2_cw(nodes, drive, pairs=pairs, tau_max=0.3, dt=0.01)
        sizes = []

        def counted(systems, drives):
            sizes.append(len(systems))
            return superoperators(systems, drives)

        monkeypatch.setattr(dynamics, "superoperators", counted)
        # 31 delays and 3 pairs: each node keeps 3 reals per delay
        member = 16 * dynamics.STACK_SUPEROPERATORS * 4 ** 4 + 31 * 8 * 3
        monkeypatch.setattr(dynamics, "NODE_STACK_BYTES", 2 * member)
        chunked = g2_cw(nodes, drive, pairs=pairs, tau_max=0.3, dt=0.01)
        assert sizes == [2, 2, 1]
        assert np.array_equal(whole["tau"], chunked["tau"])
        for key in ("intensity", "G2", "g2", "clipped"):
            for name, value in whole[key].items():
                assert np.array_equal(value, chunked[key][name])

    @pytest.mark.parametrize("tau_max,dt,count", [
        (0.13, 0.02, 7), (0.03, 0.02, 2), (0.14, 0.02, 8), (0.3, 0.1, 4),
        (0.01, 0.02, 1)])
    def test_delays_end_at_or_before_tau_max(self, tau_max, dt, count):
        # half-step spans stop short of tau_max; whole-step spans reach it
        # up to rounding
        sys = presets.qd_pair()
        drive = DriveConfig((sys.emitters[0].gamma_total / 16, 0.0),
                            (0.0, 0.0), "cw")
        tau = g2_cw(sys, drive, pairs=("LL",), tau_max=tau_max,
                    dt=dt)["tau"]
        assert dynamics.grid_points(tau_max, dt) == len(tau) == count
        assert np.array_equal(tau, np.arange(count) * dt)
        assert tau[-1] <= tau_max + 1e-9 * dt

    def test_example_delay_grid_unchanged(self):
        # the g2-cw example's grid, as np.arange(0, tau_max + dt/2, dt)
        # built it
        assert np.array_equal(
            np.arange(dynamics.grid_points(6.0, 0.005)) * 0.005,
            np.arange(0.0, 6.0 + 0.005 / 2, 0.005))


def _assert_maps_equal(a, b):
    assert a.ports == b.ports
    for name in ("same", "different"):
        ma, mb = getattr(a, name), getattr(b, name)
        assert np.array_equal(ma.values, mb.values)
        assert np.array_equal(ma.t2, mb.t2)
        assert ma.normalization == mb.normalization
    assert np.array_equal(a.intensity_a, b.intensity_a)
    assert np.array_equal(a.intensity_b, b.intensity_b)
    assert a.clipped == b.clipped


class TestPulsedMapPairs:
    PAIRS = ("LL", "RR", "LR", "RL")

    def test_all_pairs_equal_one_call_per_pair(self):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.03, area=np.pi))
        kw = dict(window=1.0, dt=0.05, separation_periods=3)
        maps = pulsed_g2_map(sys, drive, ports=self.PAIRS, **kw)
        assert list(maps) == list(self.PAIRS)
        for pair in self.PAIRS:
            _assert_maps_equal(maps[pair],
                               pulsed_g2_map(sys, drive, ports=pair, **kw))

    def test_all_pairs_equal_one_call_per_pair_with_preparation(self):
        # the prepared far window factorizes exactly, so a pair whose far
        # window correlates the wrong ports fails the product check
        sys = presets.qd_pair()
        drive_off = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                                PulseSpec(sigma_t=0.002, area=0.0))
        kw = dict(window=1.0, dt=0.05, initial=basis_ket("ee"))
        maps = pulsed_g2_map(sys, drive_off, ports=["LR", "RL", "RR"], **kw)
        for pair, res in maps.items():
            _assert_maps_equal(res,
                               pulsed_g2_map(sys, drive_off, ports=pair, **kw))
            prod = np.outer(res.intensity_a, res.intensity_b)
            np.testing.assert_allclose(res.different.values, prod,
                                       rtol=1e-12, atol=1e-12 * prod.max())
        assert not np.allclose(maps["LR"].intensity_a,
                               maps["LR"].intensity_b, rtol=1e-3)
        # rows t1 of the cross-port maps against the regression theorem
        t = maps["LR"].t
        traj = propagate(basis_ket("ee"), sys, drive_off, t, validate=False)
        for pair in ("LR", "RL"):
            a, b = (field_operator(sys, p) for p in pair)
            for i in (0, 7):
                ref = two_time_correlation(sys, drive_off, a, b,
                                           traj.states[i], t[i:] - t[i],
                                           t_start=t[i]).values
                np.testing.assert_allclose(maps[pair].same.values[i, i:], ref,
                                           rtol=1e-8, atol=1e-12)


@pytest.fixture(scope="module")
def double_pi_maps():
    sys = presets.qd_pair()
    drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                        PulseSpec(sigma_t=0.03, area=np.pi))
    return pulsed_g2_map(sys, drive, ports="LL", window=3.0, dt=0.02)


class TestPulsedMaps:
    def test_zero_area_map_is_zero(self):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.03, area=0.0))
        res = pulsed_g2_map(sys, drive, ports="LL", window=1.0, dt=0.05)
        assert np.max(res.same.values) == 0.0
        assert np.max(np.abs(res.intensity_a)) == 0.0

    def test_different_pulse_factorizes(self, double_pi_maps):
        res = double_pi_maps
        prod = np.outer(res.intensity_a, res.intensity_b)
        scale = prod.max()
        np.testing.assert_allclose(res.different.values / scale,
                                   prod / scale, atol=1e-6)

    def test_same_pulse_diagonal_ridge(self, double_pi_maps):
        res = double_pi_maps
        prod = np.outer(res.intensity_a, res.intensity_b)
        mask = prod > 1e-3 * prod.max()
        ratio = np.where(mask, res.same.values / np.where(mask, prod, 1.0), 1.0)
        near = np.abs(res.t[None, :] - res.t[:, None]) < 0.3
        far = np.abs(res.t[None, :] - res.t[:, None]) > 1.5
        assert ratio[near & mask].mean() > 1.15 * ratio[far & mask].mean()

    def test_double_pi_photon_number(self):
        # both emitters inverted, beta=1: exactly two guided photons
        # (pulse short against the lifetime so re-excitation is negligible)
        sys = identical_pair(beta=1.0)
        drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.002, area=np.pi,
                                      repetition_period=60.0))
        t = np.linspace(0.0, 50.0, 50001)
        traj = propagate(basis_ket("gg"), sys, drive, t, validate=False)
        rec = intensity_record(traj, sys)
        total = np.trapezoid(rec.left + rec.right, t)
        assert total == pytest.approx(2.0, abs=1e-3)

    def test_single_emitter_volume_ratio(self):
        # only emitter 2 addressable: same-pulse coincidences nearly vanish
        sys = presets.qd_pair()
        gamma1 = sys.emitters[0].gamma_total
        sys = sys.with_detunings((200.0 * gamma1, 0.0))
        drive = DriveConfig((0.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.03, area=np.pi))
        res = pulsed_g2_map(sys, drive, ports="LL", window=3.0, dt=0.02)
        same = res.same.values.sum()
        diff = res.different.values.sum()
        assert same / diff <= 0.05

    def test_integrated_side_peak_unit_area(self, double_pi_maps):
        cg = integrated_pulsed_g2(double_pi_maps)
        area = np.trapezoid(cg.side, cg.tau)
        assert area == pytest.approx(1.0, abs=1e-3)

    def test_uncorrelated_input_normalizes_to_one(self, double_pi_maps):
        # feeding the factorized product map as the same-pulse map must
        # give a center-to-side height ratio of exactly 1
        import copy
        res = copy.copy(double_pi_maps)
        res.same = type(res.same)(
            res.same.t1, res.same.t2,
            np.outer(res.intensity_a, res.intensity_b), "same_pulse", {})
        cg = integrated_pulsed_g2(res)
        assert cg.center_height() == pytest.approx(1.0, abs=1e-3)

    def test_zero_intensity_normalization_error(self):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.03, area=0.0))
        res = pulsed_g2_map(sys, drive, ports="LL", window=1.0, dt=0.05)
        from wgqed.errors import NumericalError
        with pytest.raises(NumericalError, match="zero integrated"):
            integrated_pulsed_g2(res)

    def test_ideal_inversion_initial_state_close_to_pi_pulse(self):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.002, area=np.pi))
        via_pulse = integrated_pulsed_g2(
            pulsed_g2_map(sys, drive, ports="LL", window=3.0, dt=0.02)
        ).center_height()
        drive_off = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                                PulseSpec(sigma_t=0.002, area=0.0))
        via_state = integrated_pulsed_g2(
            pulsed_g2_map(sys, drive_off, ports="LL", window=3.0, dt=0.02,
                          initial=basis_ket("ee"))
        ).center_height()
        assert via_pulse == pytest.approx(via_state, abs=0.02)

    def test_grid_refinement_stability(self, monkeypatch):
        sys = presets.qd_pair()
        drive = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                            PulseSpec(sigma_t=0.03, area=np.pi))
        vals = []
        for rtol in (1e-9, 1e-11):
            monkeypatch.setattr(dynamics, "RTOL", rtol)
            monkeypatch.setattr(dynamics, "ATOL", rtol * 1e-2)
            res = pulsed_g2_map(sys, drive, ports="LL", window=2.0, dt=0.02)
            cg = integrated_pulsed_g2(res)
            vals.append(cg.center_height())
        assert abs(vals[0] - vals[1]) < 1e-4

    def test_ideal_preparation_recurs_in_different_pulse_window(self):
        # the preparation is re-applied every period, so the far-away window
        # starts from the prepared state and the different-pulse map is
        # exactly the product of the prepared intensities
        sys = presets.qd_pair()
        drive_off = DriveConfig((1.0, 1.0), (0.0, 0.0), "pulsed",
                                PulseSpec(sigma_t=0.002, area=0.0))
        res = pulsed_g2_map(sys, drive_off, ports="LL", window=3.0, dt=0.02,
                            initial=basis_ket("ee"))
        prod = np.outer(res.intensity_a, res.intensity_b)
        assert prod.max() > 0.0
        np.testing.assert_allclose(res.different.values, prod, rtol=1e-12,
                                   atol=1e-12 * prod.max())


def collinear_system(positions, gamma=2.0, beta=0.9, dephasing=0.1):
    """Emitters at propagation phases π·positions along the guide."""
    ref = np.pi * np.asarray(positions, float)
    emitters = tuple(EmitterParams(gamma + 0.1 * m, beta, dephasing=dephasing)
                     for m in range(len(ref)))
    return WaveguideSystem(emitters, np.abs(ref[:, None] - ref[None, :]))


class TestSuperoperatorStack:
    """One build for a stack whose members differ only in their detunings
    and drives."""

    PULSE = PulseSpec(sigma_t=0.03, area=np.pi)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_bits_equal_members_alone(self, n):
        rng = np.random.default_rng(n)
        base = collinear_system([0.0, 0.7, 1.9][:n])
        w = [rng.uniform(0.2, 1.0, n) for _ in range(3)]
        th = [rng.uniform(0.0, 2 * np.pi, n) for _ in range(4)]
        w[2][0] = 0.0
        drives = [DriveConfig(w[0], th[0], "cw"), DriveConfig.off(n),
                  DriveConfig(w[1], th[1], "pulsed", self.PULSE),
                  DriveConfig((0.0,) * n, th[2], "pulsed", self.PULSE),
                  DriveConfig(w[2], th[3], "pulsed", self.PULSE),
                  DriveConfig(w[2], th[3], "cw")]
        systems = [base.with_detunings(rng.normal(0.0, 2.0, n))
                   for _ in drives]
        l0, d = superoperators(systems, drives)
        assert l0.shape == d.shape == (len(drives), 4 ** n, 4 ** n)
        for k, (system, drive) in enumerate(zip(systems, drives)):
            alone, d_alone = superoperators([system], [drive])
            assert np.array_equal(l0[k], alone[0])
            if drive.is_pulse_driven:
                assert np.array_equal(d[k], d_alone[0])
            else:
                assert d_alone is None and not d[k].any()
            gen = LindbladGenerator(system, drive)
            assert np.array_equal(gen.static_superoperator, alone[0])
            assert (gen.drive_part is None) == (d_alone is None)

    @pytest.mark.parametrize("change", ["gamma", "beta", "dephasing",
                                        "phase"])
    def test_other_systems_refused(self, change):
        base = collinear_system([0.0, 0.7])
        e0, e1 = base.emitters
        if change == "phase":
            other = WaveguideSystem(base.emitters, base.phase_matrix * 1.1)
        else:
            value = {"gamma": 2.5, "beta": 0.8, "dephasing": 0.3}[change]
            field = {"gamma": "gamma_total"}.get(change, change)
            other = WaveguideSystem(
                (e0, dataclasses.replace(e1, **{field: value})),
                base.phase_matrix)
        cw = DriveConfig((0.3, 0.0), (0.0, 0.0), "cw")
        match = "differ only in their detunings"
        with pytest.raises(ValueError, match=match):
            superoperators([base, other], [cw, cw])
        with pytest.raises(ValueError, match=match):
            propagate(basis_ket("gg"), [base, other], cw,
                      np.linspace(0.0, 0.1, 3))
        with pytest.raises(ValueError, match=match):
            g2_cw([base, other], cw, tau_max=0.05, dt=0.01)

    @pytest.mark.parametrize("build", ["stack", "g2_cw", "traces"])
    def test_one_build_per_stack(self, monkeypatch, build):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(hilbert, "lowering_operator",
                            counting("lower", hilbert.lowering_operator))
        field = counting("field", model.field_operator)
        monkeypatch.setattr(model, "field_operator", field)
        monkeypatch.setattr(dynamics, "field_operator", field)
        base = presets.qd_pair()
        cw = DriveConfig((0.3, 0.0), (0.0, 0.0), "cw")

        def run(k):
            systems = [base.with_detuning_offsets([0.0, 0.1 * j])
                       for j in range(k)]
            calls.clear()
            if build == "stack":
                dynamics.superoperators(systems, [cw] * k)
            elif build == "g2_cw":
                g2_cw(systems, cw, tau_max=0.05, dt=0.01)
            else:
                list(dynamics.intensity_traces(systems, [cw] * k,
                                               np.linspace(0.0, 0.5, 6)))
            return dict(calls)

        one = run(1)
        assert one["lower"] > 0 and one["field"] > 0
        assert run(40) == one

    def test_stack_build_peak_within_size_guard(self):
        # the stacks L₀ and D and the build's work arrays stay within the
        # STACK_SUPEROPERATORS per member that stack_chunk and
        # config.dense_bytes budget
        k = 16
        base = collinear_system([0.0, 0.3, 0.8, 1.5])
        systems = [base.with_detuning_offsets([0.1 * j, 0.0, -0.1 * j, 0.0])
                   for j in range(k)]
        drives = [DriveConfig((1.0, 0.5, 0.3, 0.8), (0.0, 0.2 * j, 0.4, 0.0),
                              "pulsed", self.PULSE) for j in range(k)]
        tracemalloc.start()
        try:
            _, d = dynamics.superoperators(systems, drives)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d is not None
        assert peak < k * dynamics.STACK_SUPEROPERATORS * 16 * 4 ** 8


class TestExpm:
    """``dynamics.expm`` against scipy's (a test-only oracle) on the
    generators that runs exponentiate, and stacks against single calls."""

    PULSE = PulseSpec(sigma_t=0.03, area=np.pi, repetition_period=13.6)
    # a partial step into a pulse, the grid steps of the example configs,
    # coarser steps, and the gap between pulse windows (13.6 − 4 ns); at
    # N = 2 they reach Padé degrees 3, 5, 5, 5, 7, 9 and 13
    STEPS = (1e-3, 4e-3, 0.01, 0.02, 0.1, 0.25, 9.6)

    def generators(self, n):
        """L₀ of an N-emitter stack: undriven, CW-driven and pulse-driven
        members with random detunings."""
        rng = np.random.default_rng(10 + n)
        base = collinear_system([0.0, 0.7, 1.9, 2.6][:n])
        drives = [DriveConfig.off(n),
                  DriveConfig(rng.uniform(0.2, 1.0, n),
                              rng.uniform(0.0, 2 * np.pi, n), "cw"),
                  DriveConfig(rng.uniform(0.2, 1.0, n),
                              rng.uniform(0.0, 2 * np.pi, n), "pulsed",
                              self.PULSE)]
        systems = [base.with_detunings(rng.normal(0.0, 2.0, n))
                   for _ in drives]
        return superoperators(systems, drives)[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_scipy(self, n):
        from scipy.linalg import expm as scipy_expm
        l0 = self.generators(n)
        for dt in self.STEPS:
            got = dynamics.expm(l0 * dt)
            for k in range(len(l0)):
                want = scipy_expm(l0[k] * dt)
                assert np.max(np.abs(got[k] - want)) <= \
                    1e-13 * np.max(np.abs(want)), (n, dt, k)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_members_equal_single_calls(self, n):
        l0 = self.generators(n)
        # members of one stack reach different degrees and scalings
        a = np.concatenate([l0 * dt for dt in self.STEPS])
        stack = dynamics.expm(a)
        for k in range(len(a)):
            assert np.array_equal(stack[k], dynamics.expm(a[k]))

    def test_degrees_and_scalings_all_reached(self, monkeypatch):
        seen = set()
        pade = dynamics._pade

        def recording(a, even, m):
            seen.add(m)
            return pade(a, even, m)

        monkeypatch.setattr(dynamics, "_pade", recording)
        dynamics.expm(self.generators(2)[2] * np.array(self.STEPS)[:, None,
                                                                   None])
        assert seen == {3, 5, 7, 9, 13}

    def test_special_matrices(self):
        assert np.array_equal(dynamics.expm(np.zeros((3, 3))), np.eye(3))
        np.testing.assert_allclose(
            dynamics.expm(np.diag([1.0, -2.0, 30.0])),
            np.diag(np.exp([1.0, -2.0, 30.0])), rtol=1e-13)
        # nilpotent: e^N = I + N
        nil = np.array([[0.0, 5.0], [0.0, 0.0]])
        np.testing.assert_allclose(dynamics.expm(nil), np.eye(2) + nil,
                                   rtol=1e-15)
        assert np.isnan(dynamics.expm(np.array([[np.nan, 0.0],
                                                [0.0, 1.0]]))).all()
        # decay at rates whose powers A⁴…A¹⁰ overflow: every population
        # ends in the ground state
        for rate in (1e20, 1e40, 1e60, 1e200):
            decay = np.array([[-rate, 0.0], [rate, 0.0]])
            np.testing.assert_allclose(dynamics.expm(decay),
                                       [[0.0, 0.0], [1.0, 1.0]], atol=1e-15)
