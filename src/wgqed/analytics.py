"""Closed-form results used as the oracle suite for the dynamics module.

The weak-drive steady state of two emitters follows from the non-Hermitian
single-excitation Hamiltonian H_eff:

    (c_eg, c_ge)ᵀ = −½ H_eff⁻¹ (Ω₁e^{iθ₁}, Ω₂e^{iθ₂})ᵀ
    c_ee = −i(Ω₂e^{iθ₂}c_eg + Ω₁e^{iθ₁}c_ge) / (Γ₁+Γ₂+2i(Δ₁+Δ₂))

(The sign of c_ee follows from the same amplitude equations that give the
matrix formula above and matches the master-equation coherence ρ_{ee,gg};
only |c_ee|² enters the intensity and correlation formulas.)

For a single resonant drive on identical emitters (Ω₁=Ω, Ω₂=0, equal Γ and
β, no dephasing) the port intensities and zero-delay correlations close in
terms of B_φ = 1 − β²e^{2iφ}:

    I_L = βΩ²(2(1+β²)Γ² + β²Ω² − 4βΓ²cos2φ) / (4Γ³|B_φ|²)
    I_R = βΩ²(2(1−β)²Γ²  + β²Ω²)            / (4Γ³|B_φ|²)
    G²_LL(0) = G²_RR(0) = β⁴Ω⁴ / (4Γ²|B_φ|²)
    G²_LR(0) = G²_RL(0) = β⁴Ω⁴cos²φ / (4Γ²|B_φ|²)

(The leading I_L term and the β⁴ prefactor follow from input-output flux
conservation and ⟨E†E†EE⟩ evaluated on the perturbative state; both are
verified against the brute-force master equation in the test suite.)

Zero-delay correlations in terms of populations (equal guided rates; exact
operator identities at any drive strength):

    g²_LL(0) = p_ee/(p_ee+p_{−φ})²,  g²_RR(0) = p_ee/(p_ee+p_{+φ})²
    g²_LR(0) = p_ee cos²φ / ((p_ee+p_{+φ})(p_ee+p_{−φ}))
    ⇒ g²_LR(0) = √(g²_LL g²_RR)·cos²φ
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import effective_hamiltonian


@dataclass
class PerturbativeSteadyState:
    """Leading-order steady-state amplitudes; c_eg, c_ge ~ Ω, c_ee ~ Ω²."""
    c_eg: complex
    c_ge: complex
    c_ee: complex
    omega_over_gamma: float


def interference_intensities(theta_d, phi):
    """(|E_L|², |E_R|²) ∝ |1+e^{i(θ_d±φ)}|² for the collectively driven
    single-excitation state (|eg⟩ + e^{iθ_d}|ge⟩)/√2; values in [0, 4]."""
    theta_d = np.asarray(theta_d, dtype=float)
    left = np.abs(1.0 + np.exp(1j * (theta_d + phi))) ** 2
    right = np.abs(1.0 + np.exp(1j * (theta_d - phi))) ** 2
    return left, right


def perturbative_steady_state(system, rabi, phases, detunings=None):
    """Weak-drive steady-state amplitudes for an emitter pair."""
    if system.n != 2:
        raise ValueError("perturbative steady state is defined for N=2")
    om1, om2 = rabi
    th1, th2 = phases
    if detunings is None:
        detunings = system.detunings()
    d1, d2 = detunings
    h = effective_hamiltonian(system, (d1, d2))
    b = np.array([om1 * np.exp(1j * th1), om2 * np.exp(1j * th2)])
    c_eg, c_ge = -0.5 * np.linalg.solve(h, b)
    g1 = system.emitters[0].gamma_total
    g2 = system.emitters[1].gamma_total
    c_ee = -1j * (b[1] * c_eg + b[0] * c_ge) / (g1 + g2 + 2j * (d1 + d2))
    gamma_ref = max(g1, g2)
    return PerturbativeSteadyState(
        c_eg=complex(c_eg), c_ge=complex(c_ge), c_ee=complex(c_ee),
        omega_over_gamma=float(max(om1, om2) / gamma_ref))


def b_phi(beta, phi):
    """B_φ = 1 − β²e^{2iφ}; vanishes at β=1, φ=Nπ (lossless mirror pole)."""
    return 1.0 - beta ** 2 * np.exp(2j * phi)


def _check_bphi(beta, phi):
    b2 = np.abs(b_phi(beta, phi)) ** 2
    if np.any(b2 < 1e-12):
        raise ZeroDivisionError(
            "B_phi vanishes (beta=1, phi=N*pi): resonant pole of the "
            "lossless mirror pair; evaluate at beta<1 instead")
    return b2


def analytic_intensities_single_drive(omega, gamma, beta, phi):
    """(I_L, I_R) for a weak resonant drive on emitter 1 only."""
    b2 = _check_bphi(beta, phi)
    pref = beta * omega ** 2 / (4.0 * gamma ** 3 * b2)
    i_l = pref * (2.0 * (1.0 + beta ** 2) * gamma ** 2 + beta ** 2 * omega ** 2
                  - 4.0 * beta * gamma ** 2 * np.cos(2.0 * phi))
    i_r = pref * (2.0 * (1.0 - beta) ** 2 * gamma ** 2 + beta ** 2 * omega ** 2)
    return i_l, i_r


def analytic_g2_zero(omega, gamma, beta, phi):
    """(G²_LL(0), G²_LR(0), G²_RR(0)), unnormalized, same-drive conditions."""
    b2 = _check_bphi(beta, phi)
    g2_ll = beta ** 4 * omega ** 4 / (4.0 * gamma ** 2 * b2)
    g2_lr = g2_ll * np.cos(phi) ** 2
    return g2_ll, g2_lr, g2_ll


def g2_zero_from_populations(p_ee, p_plus_phi, p_minus_phi, phi):
    """(g²_LL, g²_RR, g²_LR) at zero delay from steady-state populations."""
    for name, p in (("p_ee", p_ee), ("p_plus_phi", p_plus_phi),
                    ("p_minus_phi", p_minus_phi)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} = {p!r} outside [0, 1]")
    den_l = p_ee + p_minus_phi
    den_r = p_ee + p_plus_phi
    if den_l == 0.0 or den_r == 0.0:
        raise ZeroDivisionError("all populations zero: g2 undefined")
    g2_ll = p_ee / den_l ** 2
    g2_rr = p_ee / den_r ** 2
    g2_lr = p_ee * np.cos(phi) ** 2 / (den_l * den_r)
    return g2_ll, g2_rr, g2_lr


def rabi_power_curve(power, power_pi):
    """Excited population after a pulse vs pulse power: sin²(area/2) with
    area = π√(P/P_π); peaks at P = P_π, returns to zero at 4P_π."""
    power = np.asarray(power, dtype=float)
    return np.sin(0.5 * np.pi * np.sqrt(power / power_pi)) ** 2


def lifetime_irf_curve(times, gamma, sigma_irf, t0=0.0):
    """Exponential decay convolved with a Gaussian IRF (closed form).

    Normalized like the bare decay Γe^{−Γt}Θ(t): an exponentially modified
    Gaussian with unit area.
    """
    t = np.asarray(times, dtype=float) - t0
    if sigma_irf == 0.0:
        return np.where(t >= 0, gamma * np.exp(-gamma * np.maximum(t, 0.0)), 0.0)
    s = sigma_irf
    arg = (gamma * s ** 2 - t) / (np.sqrt(2.0) * s)
    erfc = np.vectorize(math.erfc, otypes=[float])
    return 0.5 * gamma * np.exp(gamma * (0.5 * gamma * s ** 2 - t)) * erfc(arg)


def calibration_models(kind, params):
    """Return the named calibration curve as a callable of its abscissa."""
    if kind == "rabi_power_curve":
        p_pi = params["power_pi"]
        return lambda power: rabi_power_curve(power, p_pi)
    if kind == "lifetime_irf":
        gamma = params["gamma_total"]
        sigma = params["irf_sigma"]
        t0 = params.get("t0", 0.0)
        return lambda times: lifetime_irf_curve(times, gamma, sigma, t0)
    raise ValueError(f"unknown calibration model {kind!r}")
