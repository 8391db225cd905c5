"""Physical observables: intensities, directionality, transmission.

Directional intensities are photon fluxes I_α = ⟨E_α†E_α⟩ in photons/ns.
Coherent (single-photon, linear) transmission through the waveguide uses
the non-Hermitian single-excitation resolvent

    t(Δ) = 1 − i v_Rᵀ (−H̃)⁻¹ v_L,   H̃ = H_eff(Δ) − i·diag(γ_d),
    v_{L/R,m} = √(γᵂ_m/2) e^{±iφ_1m},

with pure dephasing broadening the linewidth only.  ``transmission_coherent``
takes one detuning vector of shape (N,) or a stack of P of them, shape
(P, N), and returns T as a float or a (P,) array; a stack is solved in one
batched call, and spectral-diffusion averaging loops over the quadrature
nodes with every point in each node.  The saturating variant
drives the master equation with a waveguide input (Ω_m = √(2γᵂ_m P),
drive phase φ_1m + π) and reads the output field t = 1 + ⟨E_R⟩/√P; its
weak-power limit reproduces the coherent formula.
"""

from dataclasses import dataclass, field

import numpy as np

from . import hilbert
from .errors import NumericalError
from .hilbert import CollectiveStateSpec, collective_state
from .instrument import NoiseAveragingPlan, spectral_diffusion_average
from .model import DriveConfig, effective_hamiltonian, field_operator
from .dynamics import steady_state

_CLIP = -1e-12


@dataclass
class IntensityRecord:
    """Directional photon fluxes on a time grid (photons/ns)."""
    times: np.ndarray
    left: np.ndarray
    right: np.ndarray


@dataclass
class TransmissionPoint:
    detunings: object       # tuple, or the (P, N) array of P points
    transmission: object    # float, or a (P,) array
    metadata: dict = field(default_factory=dict)


def intensity(rho, system, direction):
    """Photon flux ⟨E†E⟩ into one port; tiny negatives are clipped."""
    e = field_operator(system, direction)
    m = rho.matrix if isinstance(rho, hilbert.DensityState) else np.asarray(rho)
    val = np.real(np.trace(e.conj().T @ e @ m))
    if val < _CLIP:
        raise NumericalError(f"intensity {val:.3e} below clip tolerance")
    return max(val, 0.0)


def intensity_record(trajectory, system):
    """I_L(t), I_R(t) along a trajectory."""
    out = {}
    for d in "LR":
        e = field_operator(system, d)
        vals = np.real(trajectory.expectation(e.conj().T @ e))
        out[d] = np.maximum(vals, 0.0)
    return IntensityRecord(times=trajectory.times, left=out["L"],
                           right=out["R"])


def directionality(i_left, i_right):
    """Relative intensities (I_L, I_R)/(I_L + I_R); they sum to one."""
    i_left = np.asarray(i_left, dtype=float)
    i_right = np.asarray(i_right, dtype=float)
    total = i_left + i_right
    if np.any(total <= 0):
        raise NumericalError("zero total flux: directionality undefined")
    return i_left / total, i_right / total


def population_projection(rho, spec, phi=None):
    """Population ⟨s|ρ|s⟩ of a collective state (emitter pair only)."""
    m = rho.matrix if isinstance(rho, hilbert.DensityState) else np.asarray(rho)
    if m.shape != (4, 4):
        raise ValueError("population_projection is defined for N=2")
    if isinstance(spec, str):
        spec = CollectiveStateSpec(spec, 0.0 if phi is None else phi)
    v = collective_state(spec)
    val = np.real(v.conj() @ m @ v)
    if not -1e-10 <= val <= 1.0 + 1e-10:
        raise NumericalError(f"projection {val!r} outside [0, 1] tolerance")
    return float(val)


def _coupling_vectors(system):
    n = system.n
    ph = np.array([system.phase_from_first(m) for m in range(1, n + 1)])
    amp = np.array([np.sqrt(e.gamma_wg / 2.0) for e in system.emitters])
    return amp * np.exp(1j * ph), amp * np.exp(-1j * ph)  # v_L, v_R


def _transmission_amplitude(system, detunings):
    """t at every detuning vector of a (..., N) stack, by one batched solve."""
    v_l, v_r = _coupling_vectors(system)
    h = effective_hamiltonian(system, detunings)
    diag = np.arange(system.n)
    h[..., diag, diag] -= 1j * np.array([e.dephasing for e in system.emitters])
    return 1.0 + 1j * np.vecdot(v_r.conj(), np.linalg.solve(h, v_l))


def _power_transmission(system, detunings):
    t = _transmission_amplitude(system, detunings)
    # float_power squares with libm pow, as ** 2 does on a float64 scalar;
    # ** 2 on an array multiplies, which differs in the last bit for ~0.1%
    # of values
    return np.float_power(np.hypot(t.real, t.imag), 2)


def transmission_coherent(system, laser_detunings, noise_nodes=0):
    """Linear-regime transmission T = |t|² at given emitter detunings.

    ``laser_detunings`` of shape (N,) give one point and a float
    ``.transmission``; shape (P, N) gives P points, all solved in one
    batched call, and a (P,) array.  ``noise_nodes`` > 0 averages T over
    static Gaussian detuning offsets (spectral diffusion) with a
    Gauss-Hermite rule per emitter of nonzero sigma; each node evaluates
    every point.
    """
    detunings = np.asarray(laser_detunings, dtype=float)
    meta = {"regime": "linear single-photon", "noise_nodes": noise_nodes}
    if noise_nodes:
        value = spectral_diffusion_average(
            lambda off: _power_transmission(system, detunings + off),
            [e.spectral_diffusion_sigma for e in system.emitters],
            NoiseAveragingPlan("gauss_hermite", noise_nodes)).value
    else:
        value = _power_transmission(system, detunings)
    if np.any(value > 1.0 + 1e-9):
        raise NumericalError(
            f"transmission {float(np.max(value))!r} above passive bound")
    if detunings.ndim == 1:
        return TransmissionPoint(tuple(detunings), float(value), meta)
    return TransmissionPoint(detunings, value, meta)


def waveguide_drive(system, power):
    """Drive equivalent to a coherent input of flux P through the left port.

    Each emitter sees Ω_m = √(2γᵂ_m P) with phase φ_1m + π (the phase fixes
    the output relation t = 1 + ⟨E_R⟩/√P used below).
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    alpha = np.sqrt(power)
    n = system.n
    rabi = tuple(np.sqrt(2.0 * e.gamma_wg) * alpha for e in system.emitters)
    phase = tuple(system.phase_from_first(m) + np.pi for m in range(1, n + 1))
    return DriveConfig(rabi, phase, "cw")


def saturation_powers(system, rabi_over_gamma):
    """Input fluxes P at which emitter 1's Rabi rate √(2γᵂ₁P) is f·Γ₁,
    one per ratio f."""
    e1 = system.emitters[0]
    return [(e1.gamma_total * f) ** 2 / (2.0 * e1.gamma_wg)
            for f in rabi_over_gamma]


@dataclass
class SaturationPoint:
    power: float
    transmission_coherent: float    # |⟨a_out⟩|²/P
    transmission_flux: float        # ⟨a_out†a_out⟩/P


def transmission_saturated(system, powers):
    """Transmission versus input power from the driven master equation.

    Power is the input photon flux (photons/ns); the coherent column is the
    squared mean output amplitude, the flux column the full normally
    ordered output flux.  Depth of the dip decreases monotonically with
    power as the emitters saturate.
    """
    powers = np.asarray(powers, dtype=float)
    if np.any(powers <= 0):
        raise ValueError("power grid must be > 0")
    e_r = field_operator(system, "R")
    e_rd_er = e_r.conj().T @ e_r
    out = []
    for p in powers:
        drive = waveguide_drive(system, p)
        rho = steady_state(system, drive)
        alpha = np.sqrt(p)
        mean_er = rho.expectation(e_r)
        t_amp = 1.0 + mean_er / alpha
        flux = (p + 2.0 * alpha * np.real(mean_er)
                + np.real(rho.expectation(e_rd_er))) / p
        out.append(SaturationPoint(float(p), float(abs(t_amp) ** 2),
                                   float(flux)))
    return out
