"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Criteria cover: the published yield probabilities, directional
switching, the weak-drive analytic oracles, population-formula consistency,
directional photon statistics, full-inversion correlations, conservation
and symmetry properties, transmission structure, and Monte Carlo exactness.
"""

import dataclasses
import time

import numpy as np
import pytest

from wgqed import dynamics, presets
from wgqed.analytics import (analytic_g2_zero,
                             analytic_intensities_single_drive,
                             g2_zero_from_populations,
                             perturbative_steady_state)
from wgqed.config import resolve_config
from wgqed.dynamics import (g2_cw, integrated_pulsed_g2, propagate,
                            pulsed_g2_map, steady_state)
from wgqed.errors import NumericalError
from wgqed.experiments import (run_detuning_sweep, run_experiment,
                               run_g2_cw, run_g2_pulsed, run_lifetime)
from wgqed.hilbert import basis_ket
from wgqed.instrument import spectral_diffusion_average
from wgqed.model import (DriveConfig, EmitterParams, LindbladGenerator,
                         PulseSpec, WaveguideSystem, field_operator)
from wgqed.observables import (directionality, intensity, intensity_record,
                               population_projection, transmission_coherent)
from wgqed.scalability import (ScalabilityConfig, conditional_success_count,
                               probability_per_chip,
                               probability_per_waveguide)
from wgqed.units import ghz_to_angular

from _oracles import qmc_conditional_probability


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


GAMMA = 2 * np.pi * 0.388  # reference rate for ideal-model criteria


def ideal_pair(beta=1.0, phi=0.8 * np.pi):
    e = EmitterParams(GAMMA, beta)
    return WaveguideSystem((e, e), phi)


# ---------------------------------------------------------------------------
def test_criterion_1_scalability_reproduction():
    t0 = time.monotonic()
    base = dict(mu_qd=35.0, sigma_qd=15.0, delta_lambda=0.15, runs=200_000,
                seed=20_240_101, mode="consecutive")
    r3 = probability_per_waveguide(
        ScalabilityConfig(n_reg=3, n_set=3, n_wg=100, **base))
    r4 = probability_per_waveguide(
        ScalabilityConfig(n_reg=4, n_set=4, n_wg=500, **base))
    r412 = probability_per_waveguide(
        ScalabilityConfig(n_reg=12, n_set=4, n_wg=500, **base))
    elapsed = time.monotonic() - t0
    chip3 = probability_per_chip(r3.p_per_waveguide, 100)
    chip4 = probability_per_chip(r4.p_per_waveguide, 500)
    chip412 = probability_per_chip(r412.p_per_waveguide, 500)
    checks = [
        abs(r3.p_per_waveguide - 0.04) <= 0.01,
        7e-4 / 1.5 <= r4.p_per_waveguide <= 7e-4 * 1.5,
        4e-3 / 1.5 <= r412.p_per_waveguide <= 4e-3 * 1.5,
        abs(chip3 - 0.98) <= 0.03,
        abs(chip4 - 0.29) <= 0.03,
        abs(chip412 - 0.87) <= 0.03,
        elapsed < 120.0,
    ]
    _report(1, "scalability reproduction", all(checks),
            f"P1(3;3)={r3.p_per_waveguide:.4f} (0.04±0.01), "
            f"P1(4;4)={r4.p_per_waveguide:.2e} (7e-4 x1.5), "
            f"P1(4;12)={r412.p_per_waveguide:.2e} (4e-3 x1.5), "
            f"chips {chip3:.3f}/{chip4:.3f}/{chip412:.3f} "
            f"(0.98/0.29/0.87), runtime {elapsed:.0f}s < 120s")


# ---------------------------------------------------------------------------
def test_criterion_2_directional_switching():
    t0 = time.monotonic()
    phi = 0.8 * np.pi
    sys = ideal_pair(beta=1.0, phi=phi)
    # weak limit: double-excitation pollution of the prompt fraction scales
    # as area^2/8, evolution during the pulse as (Gamma sigma_t)^2
    pulse = PulseSpec(sigma_t=0.002, area=0.01 * np.pi,
                      repetition_period=13.6)
    prompt = pulse.center + 6.0 * pulse.sigma_t

    def right_fraction_prompt(theta_d):
        drive = DriveConfig((1.0, 1.0), (0.0, theta_d), "pulsed", pulse)
        traj = propagate(basis_ket("gg"), sys, drive,
                         np.array([0.0, prompt]), validate=False)
        rec = intensity_record(traj, sys)
        return directionality(rec.left[-1], rec.right[-1])[1]

    fr_right = right_fraction_prompt(np.pi - phi)
    fr_left = right_fraction_prompt(np.pi + phi)

    thetas = np.arange(40) * (2 * np.pi / 40)
    t_grid = np.concatenate([[0.0], np.arange(prompt, prompt + 0.4001,
                                              0.002)])
    fracs = []
    for th in thetas:
        drive = DriveConfig((1.0, 1.0), (0.0, th), "pulsed", pulse)
        traj = propagate(basis_ket("gg"), sys, drive, t_grid, validate=False)
        rec = intensity_record(traj, sys)
        i_l = np.trapezoid(rec.left[1:], t_grid[1:])
        i_r = np.trapezoid(rec.right[1:], t_grid[1:])
        fracs.append(directionality(i_l, i_r)[1])
    fracs = np.array(fracs)
    elapsed = time.monotonic() - t0
    checks = [
        abs(fr_right - 1.0) <= 1e-3,
        abs(fr_left - 0.0) <= 1e-3,
        fracs.max() > 0.8,            # strong-right dominance reached
        fracs.min() < 0.2,            # strong-left dominance reached
        elapsed < 60.0,
    ]
    _report(2, "directional switching", all(checks),
            f"prompt right fraction {fr_right:.6f} at theta=pi-phi, "
            f"{fr_left:.2e} at theta=pi+phi (tol 1e-3); 0.4 ns integrated "
            f"sweep spans [{fracs.min():.3f}, {fracs.max():.3f}], "
            f"runtime {elapsed:.0f}s < 60s")


# ---------------------------------------------------------------------------
def test_criterion_3_appendix_oracle_equivalence():
    # The analytic formulas are leading order: their dropped O(Omega^4)
    # terms are not uniformly small (worst near beta -> 1 and the phi
    # edges where |B_phi| shrinks), so the 5*(Omega/Gamma)^2 bound fixes
    # the admissible domain; empirically the uniform error constant stays
    # below 5 for beta <= 0.5, phi in [0.1pi, 0.9pi] (decisions ledger).
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        gamma = rng.uniform(1.0, 4.0)
        beta = rng.uniform(0.2, 0.5)
        phi = rng.uniform(0.1 * np.pi, 0.9 * np.pi)
        omega = gamma / 20 * rng.uniform(0.2, 1.0)
        tol = 5.0 * (omega / gamma) ** 2
        e = EmitterParams(gamma, beta)
        sys = WaveguideSystem((e, e), phi)
        drive = DriveConfig((omega, 0.0), (0.0, 0.0), "cw")
        rho = steady_state(sys, drive)
        e_l = field_operator(sys, "L")
        e_r = field_operator(sys, "R")

        i_l = np.real(rho.expectation(e_l.conj().T @ e_l))
        i_r = np.real(rho.expectation(e_r.conj().T @ e_r))
        a_l, a_r = analytic_intensities_single_drive(omega, gamma, beta, phi)
        g_ll = np.real(rho.expectation(
            e_l.conj().T @ e_l.conj().T @ e_l @ e_l))
        g_lr = np.real(rho.expectation(
            e_l.conj().T @ e_r.conj().T @ e_r @ e_l))
        g_rr = np.real(rho.expectation(
            e_r.conj().T @ e_r.conj().T @ e_r @ e_r))
        f_ll, f_lr, f_rr = analytic_g2_zero(omega, gamma, beta, phi)
        pert = perturbative_steady_state(sys, (omega, 0.0), (0.0, 0.0))

        rel = [abs(i_l - a_l) / a_l, abs(i_r - a_r) / a_r,
               abs(g_ll - f_ll) / f_ll, abs(g_rr - f_rr) / f_rr,
               abs(rho.matrix[1, 3] - pert.c_eg) / abs(pert.c_eg),
               abs(rho.matrix[2, 3] - pert.c_ge) / abs(pert.c_ge),
               abs(rho.matrix[0, 3] - pert.c_ee) / abs(pert.c_ee)]
        if abs(np.cos(phi)) > 0.05:
            rel.append(abs(g_lr - f_lr) / f_lr)
        worst = max(worst, max(rel) / tol)
    _report(3, "weak-drive oracle equivalence", worst <= 1.0,
            f"100 random parameter sets, worst error / (5*(Omega/Gamma)^2) "
            f"= {worst:.3f} (must be <= 1)")


# ---------------------------------------------------------------------------
def test_criterion_4_population_formula_consistency():
    # equal guided rates, no dephasing (the formulas' regime)
    gamma = 2 * np.pi * 0.388
    phi = 0.8 * np.pi
    e = EmitterParams(gamma, 0.9)
    sys = WaveguideSystem((e, e), phi)
    drive = DriveConfig((gamma / 8, 0.0), (0.0, 0.0), "cw")
    rho = steady_state(sys, drive)
    out = g2_cw(sys, drive, pairs=("LL", "RR", "LR"), tau_max=0.01, dt=0.01)
    g_ll_reg = out["g2"]["LL"][0]
    g_rr_reg = out["g2"]["RR"][0]
    g_lr_reg = out["g2"]["LR"][0]
    p_ee = np.real(rho.matrix[0, 0])
    p_plus = population_projection(rho, "plus_phi", phi=phi)
    p_minus = population_projection(rho, "minus_phi", phi=phi)
    g_ll, g_rr, g_lr = g2_zero_from_populations(p_ee, p_plus, p_minus, phi)
    diffs = [abs(g_ll - g_ll_reg), abs(g_rr - g_rr_reg),
             abs(g_lr - g_lr_reg)]
    identity_err = abs(g_lr - np.sqrt(g_ll * g_rr) * np.cos(phi) ** 2)
    ok = max(diffs) < 1e-3 and identity_err < 1e-10
    _report(4, "population-formula consistency", ok,
            f"max |formula - regression| = {max(diffs):.2e} (tol 1e-3), "
            f"cross-port identity residual {identity_err:.1e} (tol 1e-10)")


# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def cw_statistics():
    cfg = resolve_config({
        "experiment": "g2-cw",
        "noise": {"scheme": "gauss_hermite", "nodes": 9},
        "grid": {"tau_max_ns": 6.0, "dt_ns": 0.005, "pairs": ["LL", "RR"]},
    })
    resonant = run_g2_cw(cfg)
    cfg_far = resolve_config({
        "experiment": "g2-cw",
        "system": {"emitters": [
            {"gamma_ghz": 0.388, "beta": 0.95, "dephasing_ghz": 0.01,
             "spectral_diffusion_ghz": 0.30},
            {"gamma_ghz": 0.349, "beta": 0.85, "dephasing_ghz": 0.09,
             "spectral_diffusion_ghz": 0.22, "detuning_ghz": 38.8}]},
        "noise": {"scheme": "gauss_hermite", "nodes": 9},
        "grid": {"tau_max_ns": 6.0, "dt_ns": 0.005, "pairs": ["LL", "RR"]},
    })
    far = run_g2_cw(cfg_far)
    return resonant, far


def _g2_at_zero(bundle, pair, jittered=True):
    cols, rows = bundle.tables["g2"]
    arr = np.array(rows, dtype=float)
    tau = arr[:, 0]
    col = cols.index(f"g2_{pair}_irf" if jittered else f"g2_{pair}")
    return float(arr[np.argmin(np.abs(tau)), col])


def test_criterion_5_directional_statistics(cw_statistics):
    resonant, far = cw_statistics
    g_ll = _g2_at_zero(resonant, "LL")
    g_rr = _g2_at_zero(resonant, "RR")
    g_ll_far = _g2_at_zero(far, "LL")
    g_rr_far = _g2_at_zero(far, "RR")
    checks = [
        g_ll < g_rr,
        g_ll_far < 0.1,
        g_rr_far < 0.1,
        abs(g_rr - 0.98) <= 0.2,
    ]
    _report(5, "directional statistics", all(checks),
            f"jittered g2_LL(0)={g_ll:.3f} < g2_RR(0)={g_rr:.3f}; "
            f"far-detuned ports {g_ll_far:.3f}/{g_rr_far:.3f} < 0.1; "
            f"g2_RR(0) within 0.98±0.2")


# ---------------------------------------------------------------------------
def test_criterion_6_full_inversion_correlations():
    cfg = resolve_config({
        "experiment": "g2-pulsed",
        "grid": {"window_ns": 4.0, "dt_ns": 0.01,
                 "pairs": ["LL", "RR", "LR", "RL"]},
    })
    bundle = run_g2_pulsed(cfg)
    heights = {p: h_irf for p, _h, h_irf in bundle.tables["heights"][1]}
    targets = {"LL": 0.70, "RR": 0.76, "LR": 0.42, "RL": 0.41}
    value_ok = all(abs(heights[p] - targets[p]) <= 0.15 for p in targets)
    order_ok = min(heights["LL"], heights["RR"]) > max(heights["LR"],
                                                       heights["RL"])

    # ridge structure of the fully time-resolved maps
    res = pulsed_g2_map(cfg.system, cfg.drive, ports="LL", window=3.0,
                        dt=0.02)
    prod = np.outer(res.intensity_a, res.intensity_b)
    mask = prod > 1e-3 * prod.max()
    ratio = np.where(mask, res.same.values / np.where(mask, prod, 1.0), 1.0)
    near = np.abs(res.t[None, :] - res.t[:, None]) < 0.3
    far_band = np.abs(res.t[None, :] - res.t[:, None]) > 1.5
    ridge_ok = ratio[near & mask].mean() > 1.15 * ratio[far_band & mask].mean()
    diff_dev = np.max(np.abs(res.different.values - prod)) / prod.max()
    flat_ok = diff_dev < 1e-6

    ok = value_ok and order_ok and ridge_ok and flat_ok
    _report(6, "full-inversion correlations", ok,
            "jittered heights " +
            " ".join(f"{p}={heights[p]:.3f}" for p in ("LL", "RR", "LR",
                                                       "RL")) +
            f" (targets 0.70/0.76/0.42/0.41 ±0.15, ordering ok={order_ok}); "
            f"diagonal ridge contrast ok={ridge_ok}, different-pulse "
            f"factorization dev {diff_dev:.1e} < 1e-6")


# ---------------------------------------------------------------------------
def test_criterion_7_conservation_and_symmetry():
    # trace preservation
    sys = presets.qd_pair()
    t = np.linspace(0.0, 10.0, 201)
    traj = propagate(basis_ket("eg"), sys, DriveConfig.off(2), t)
    drift = float(np.max(np.abs(np.einsum("tii->t", traj.states).real - 1)))

    # single-excitation photon number
    sys1 = ideal_pair(beta=1.0)
    t2 = np.linspace(0.0, 40.0, 4001)
    traj2 = propagate(basis_ket("eg"), sys1, DriveConfig.off(2), t2)
    rec = intensity_record(traj2, sys1)
    photons = float(np.trapezoid(rec.left + rec.right, t2))

    # mirror swap (asymmetric device parameters)
    drive = DriveConfig((0.21, 0.13), (0.0, 1.234), "cw")
    rho = steady_state(sys, drive)
    e1, e2 = sys.emitters
    sys_sw = WaveguideSystem((e2, e1), presets.COUPLING_PHASE)
    drive_sw = DriveConfig((0.13, 0.21), (1.234, 0.0), "cw")
    rho_sw = steady_state(sys_sw, drive_sw)
    mirror_err = max(
        abs(intensity(rho, sys, "L") - intensity(rho_sw, sys_sw, "R")),
        abs(intensity(rho, sys, "R") - intensity(rho_sw, sys_sw, "L")))

    # phi-periodicity and phi-negation
    e = EmitterParams(2.0, 0.93, dephasing=0.05)
    phi = 0.8 * np.pi
    gen_a = LindbladGenerator(WaveguideSystem((e, e), phi))
    gen_b = LindbladGenerator(WaveguideSystem((e, e), phi + 2 * np.pi))
    period_err = float(np.max(np.abs(gen_a.superoperator()
                                     - gen_b.superoperator())))
    drive_c = DriveConfig((0.2, 0.2), (0.0, 1.234), "cw")
    sys_p = WaveguideSystem((e, e), phi)
    sys_m = WaveguideSystem((e, e), -phi)
    rho_p = steady_state(sys_p, drive_c)
    rho_m = steady_state(sys_m, drive_c)
    neg_err = max(
        abs(intensity(rho_m, sys_m, "L") - intensity(rho_p, sys_p, "R")),
        abs(intensity(rho_m, sys_m, "R") - intensity(rho_p, sys_p, "L")))

    checks = [drift < 1e-8, abs(photons - 1.0) < 1e-4, mirror_err < 1e-10,
              period_err < 1e-12, neg_err < 1e-10]
    _report(7, "conservation/symmetry suite", all(checks),
            f"trace drift {drift:.1e} < 1e-8; photon number "
            f"|{photons:.6f}-1| < 1e-4; mirror error {mirror_err:.1e} "
            f"< 1e-10; phi-periodicity {period_err:.1e}; "
            f"phi-negation swap error {neg_err:.1e} < 1e-10")


# ---------------------------------------------------------------------------
def test_criterion_8_transmission_structure():
    sys = presets.qd_pair()
    far = 1e6
    scan = np.linspace(-2.0, 2.0, 81)
    fixed = np.full_like(scan, far)
    t1 = transmission_coherent(sys, np.column_stack([scan, fixed]),
                               noise_nodes=15).transmission.min()
    t2 = transmission_coherent(sys, np.column_stack([fixed, scan]),
                               noise_nodes=15).transmission.min()
    grid2 = np.linspace(-2.5, 2.5, 41)
    a, b = np.meshgrid(grid2, grid2, indexing="ij")
    tmap = transmission_coherent(sys, np.column_stack([a.ravel(), b.ravel()]),
                                 noise_nodes=15).transmission.reshape(a.shape)
    t12 = float(tmap.min())
    i, j = np.unravel_index(int(np.argmin(tmap)), tmap.shape)
    interior = 0 < i < len(grid2) - 1 and 0 < j < len(grid2) - 1
    off_origin = float(np.hypot(grid2[i], grid2[j]))

    mirror = WaveguideSystem((EmitterParams(2.0, beta=1.0),), 0.0)
    t_mirror = transmission_coherent(mirror, [0.0]).transmission

    checks = [t12 < min(t1, t2), t12 > t1 * t2, interior,
              off_origin > 0.05, t_mirror < 1e-12]
    _report(8, "transmission structure", all(checks),
            f"pair dip {t12:.3f} deeper than singles {t1:.3f}/{t2:.3f} and "
            f"shallower than product {t1 * t2:.3f}; minimum displaced "
            f"{off_origin:.2f} rad/ns from zero detuning; ideal mirror "
            f"T={t_mirror:.1e}")


# ---------------------------------------------------------------------------
def test_criterion_9_monte_carlo_exactness():
    cases = [(3, 3, 3, 0.01), (4, 3, 3, 0.01), (5, 3, 3, 0.005),
             (6, 4, 3, 0.01), (6, 4, 4, 0.02)]
    worst = 0.0
    for n_qd, n_reg, n_set, dl in cases:
        for mode in ("consecutive", "window_distinct"):
            cfg = ScalabilityConfig(
                mu_qd=35.0, sigma_qd=15.0, delta_lambda=dl * 15.0,
                n_reg=n_reg, n_set=n_set, runs=200_000, seed=5, mode=mode)
            p_hat = conditional_success_count(n_qd, cfg) / cfg.runs
            se = max(np.sqrt(p_hat * (1 - p_hat) / cfg.runs), 1.0 / cfg.runs)
            oracle = qmc_conditional_probability(n_qd, n_reg, n_set, dl, mode)
            worst = max(worst, abs(p_hat - oracle) / (3 * se + 1e-4))

    dominance_ok = True
    for n_qd in (4, 6, 9, 14, 20):
        kw = dict(mu_qd=35.0, sigma_qd=15.0, delta_lambda=0.3, n_reg=3,
                  n_set=3, runs=30_000, seed=8)
        c = conditional_success_count(
            n_qd, ScalabilityConfig(mode="consecutive", **kw))
        w = conditional_success_count(
            n_qd, ScalabilityConfig(mode="window_distinct", **kw))
        dominance_ok &= w >= c

    ok = worst <= 1.0 and dominance_ok
    _report(9, "Monte Carlo exactness", ok,
            f"worst |MC - enumeration|/(3 SE) = {worst:.3f} over "
            f"{2 * len(cases)} small instances; window_distinct dominates "
            f"consecutive on every sampled configuration: {dominance_ok}")


# ---------------------------------------------------------------------------
# The experiments march noise nodes as stacks and all port pairs of a pulsed
# map at once; each must reproduce the one-node, one-pair path bit for bit.

def _columns(bundle, table):
    cols, rows = bundle.tables[table]
    return {c: np.array([r[i] for r in rows]) for i, c in enumerate(cols)}


def _cached_nodes(fn):
    cache = {}

    def node(offsets):
        key = tuple(offsets)
        if key not in cache:
            cache[key] = fn(offsets)
        return cache[key]
    return node


def _g2_cw_config(noise):
    return resolve_config({
        "experiment": "g2-cw", "seed": 3, "noise": noise,
        "grid": {"tau_max_ns": 0.3, "dt_ns": 0.01, "pairs": ["LL", "LR"]}})


@pytest.mark.parametrize("noise", [
    {"scheme": "gauss_hermite", "nodes": 3},
    {"scheme": "monte_carlo", "samples": 4}])
def test_g2_cw_stack_matches_per_node_average(noise):
    cfg = _g2_cw_config(noise)
    sigmas = [e.spectral_diffusion_sigma for e in cfg.system.emitters]
    need = ("LL", "LR", "RL")
    node = _cached_nodes(lambda off: g2_cw(
        cfg.system.with_detuning_offsets(off), cfg.drive, pairs=need,
        tau_max=0.3, dt=0.01))
    avg = {p: spectral_diffusion_average(lambda off: node(off)["G2"][p],
                                         sigmas, cfg.noise).value
           for p in need}
    inten = {p: spectral_diffusion_average(
        lambda off: node(off)["intensity"][p], sigmas, cfg.noise).value
        for p in "LR"}
    table = _columns(run_g2_cw(cfg), "g2")
    for p in ("LL", "LR"):
        denom = inten[p[0]] * inten[p[1]]
        fwd, bwd = avg[p] / denom, avg[p[::-1]] / denom
        assert np.array_equal(table[f"g2_{p}"],
                              np.concatenate([bwd[::-1], fwd[1:]]))


def test_g2_cw_node_chunks_match_one_stack(monkeypatch):
    cfg = _g2_cw_config({"scheme": "gauss_hermite", "nodes": 3})
    whole = run_g2_cw(cfg)
    calls = []

    def counted(systems, *args, **kwargs):
        calls.append(len(systems))
        return g2_cw(systems, *args, **kwargs)

    # run_g2_cw imports g2_cw from dynamics when it runs
    monkeypatch.setattr(dynamics, "g2_cw", counted)
    # 31 delays and 3 pairs: each node keeps 3 reals per delay
    member = 16 * dynamics.STACK_SUPEROPERATORS * 4 ** 4 + 31 * 8 * 3
    monkeypatch.setattr(dynamics, "NODE_STACK_BYTES", 2 * member)
    chunked = run_g2_cw(cfg)
    assert calls == [2, 2, 2, 2, 1]
    assert whole.tables["g2"][0] == chunked.tables["g2"][0]
    assert np.array_equal(np.array(whole.tables["g2"][1]),
                          np.array(chunked.tables["g2"][1]))
    assert whole.metadata == chunked.metadata


def test_g2_pulsed_noise_matches_per_pair_average():
    cfg = resolve_config({
        "experiment": "g2-pulsed", "noise": {"scheme": "gauss_hermite",
                                             "nodes": 2},
        "grid": {"window_ns": 0.6, "dt_ns": 0.05,
                 "pairs": ["LL", "LR", "RL"]}})
    sigmas = [e.spectral_diffusion_sigma for e in cfg.system.emitters]
    table = _columns(run_g2_pulsed(cfg), "correlogram")
    for pair in ("LL", "LR", "RL"):
        node = _cached_nodes(lambda off: pulsed_g2_map(
            cfg.system.with_detuning_offsets(off), cfg.drive, ports=pair,
            window=0.6, dt=0.05))
        def average(part):
            return spectral_diffusion_average(lambda off: part(node(off)),
                                              sigmas, cfg.noise).value

        base = node(np.zeros(2))
        res = dataclasses.replace(
            base,
            same=dataclasses.replace(base.same,
                                     values=average(lambda r: r.same.values)),
            different=dataclasses.replace(
                base.different, values=average(lambda r: r.different.values)),
            intensity_a=average(lambda r: r.intensity_a),
            intensity_b=average(lambda r: r.intensity_b))
        cg = integrated_pulsed_g2(res)
        assert np.array_equal(table[f"center_{pair}"], cg.center)
        assert np.array_equal(table[f"side_{pair}"], cg.side)


def test_detuning_sweep_stack_matches_per_point_average(monkeypatch):
    # all (Δ₂, node) pairs march as one stack, cut here into chunks of 3
    # that straddle the groups of 4 nodes; each Δ₂ averages its own nodes
    deltas = [-3.0, 0.0, 2.0]
    cfg = resolve_config({
        "experiment": "detuning-sweep",
        "noise": {"scheme": "gauss_hermite", "nodes": 2},
        "grid": {"detuning2_ghz": {"values": deltas}, "t_max_ns": 1.0,
                 "dt_ns": 0.05, "window_ns": 0.5}})
    t = np.arange(0.0, 1.0 + 0.025, 0.05)
    # each member keeps the trace and two intensities per time
    member = 16 * dynamics.STACK_SUPEROPERATORS * 4 ** 4 + len(t) * 8 * 3
    monkeypatch.setattr(dynamics, "NODE_STACK_BYTES", 3 * member)
    sizes = []

    def counted(systems, drives):
        sizes.append(len(systems))
        return stack(systems, drives)

    stack = dynamics.superoperators
    monkeypatch.setattr(dynamics, "superoperators", counted)
    table = _columns(run_detuning_sweep(cfg), "time_resolved")
    assert sizes == [3, 3, 3, 3]
    sigmas = [e.spectral_diffusion_sigma for e in cfg.system.emitters]
    for delta in deltas:
        def curves(off):
            system = cfg.system.with_detuning_offsets(
                off + np.array([0.0, ghz_to_angular(delta)]))
            rec = intensity_record(propagate(basis_ket("gg"), system,
                                             cfg.drive, t, validate=False),
                                   system)
            return np.stack([rec.left, rec.right])

        left, right = spectral_diffusion_average(curves, sigmas,
                                                 cfg.noise).value
        rows = table["detuning2_ghz"] == delta
        np.testing.assert_allclose(table["intensity_left"][rows], left,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(table["intensity_right"][rows], right,
                                   rtol=0, atol=1e-9)


def test_trace_leak_in_readout_march_raises(monkeypatch):
    # the time traces keep Tr ρ beside the intensities: a generator that
    # leaks trace fails the drift check rather than being read past
    stack = dynamics.superoperators

    def leaky(systems, drives):
        l0, d = stack(systems, drives)
        return l0 - 0.01 * np.eye(l0.shape[-1]), d

    monkeypatch.setattr(dynamics, "superoperators", leaky)
    cfg = resolve_config({"experiment": "lifetime",
                          "grid": {"t_max_ns": 1.0, "dt_ns": 0.05}})
    with pytest.raises(NumericalError, match="trace drift"):
        run_lifetime(cfg)


def test_every_experiment_records_its_warnings():
    # a detector bin wider than its IRF warns in jitter_convolve
    cfg = resolve_config({
        "experiment": "detuning-sweep",
        "detector": {"irf_sigma_ns": 0.005, "bin_ns": 0.01},
        "grid": {"detuning2_ghz": {"values": [0.0]}, "t_max_ns": 0.5,
                 "dt_ns": 0.05, "window_ns": 0.2}})
    meta = run_experiment(cfg).metadata
    assert meta["warnings"] and all(
        "bin width exceeds IRF sigma" in m for m in meta["warnings"])
