"""Physical model of N two-level emitters in a bidirectional waveguide.

Couplings: two emitters separated by propagation phase φ acquire a
dissipative coupling Γ₁₂ = √(γ₁ᵂγ₂ᵂ)cosφ and a dispersive coupling
J₁₂ = ½√(γ₁ᵂγ₂ᵂ)sinφ, with γᵂ = βΓ the guided decay rate.

Directional field operators (emitter 1 as phase reference):

    E_L = i Σ_m √(γᵂ_m/2) e^{+iφ_1m} σ⁻_m
    E_R = i Σ_m √(γᵂ_m/2) e^{−iφ_1m} σ⁻_m

Master equation (rotating frame at the drive, detunings emitter−laser):

    H   = Σ Δ_m σ⁺σ⁻ + Σ_{m<n} J_mn(σ⁺_mσ⁻_n + h.c.)
          + ½ Σ Ω_m(t)(e^{iθ_m}σ⁺_m + h.c.)
    L_k = E_L, E_R, √((1−β_m)Γ_m) σ⁻_m, √(γ_d,m/2) σᶻ_m

The collective dissipator from {E_L, E_R} is algebraically identical to the
standard pairwise form with cross rates Γ_mn; the residual-loss and σᶻ
channels model non-guided decay and pure dephasing.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import hilbert


@dataclass(frozen=True)
class EmitterParams:
    """Rates of one emitter; all angular rates in rad/ns.

    ``fano_xi`` (weak-cavity Fano factor) is carried through configs for
    completeness but enters no computation here.
    """
    gamma_total: float
    beta: float
    detuning: float = 0.0
    dephasing: float = 0.0
    spectral_diffusion_sigma: float = 0.0
    permanent_dipole: float = 0.0   # GHz/mV, config-level voltage map only
    fano_xi: float = 0.0

    def __post_init__(self):
        if self.gamma_total <= 0:
            raise ValueError("gamma_total must be > 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        for name in ("dephasing", "spectral_diffusion_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def gamma_wg(self):
        """Decay rate into the guided mode, γᵂ = βΓ."""
        return self.beta * self.gamma_total


@dataclass(frozen=True)
class WaveguideSystem:
    """N emitters with pairwise coupling phases.

    ``coupling_phase`` is a scalar φ for N=2 or a symmetric matrix φ_mn
    with zero diagonal.  Because the directional field operators are fixed
    by the phases relative to emitter 1, an N>2 matrix must be consistent
    with positions on a line: φ_mn = |φ_1m − φ_1n|.
    """
    emitters: tuple
    coupling_phase: object = 0.0

    def __post_init__(self):
        emitters = tuple(self.emitters)
        if len(emitters) < 1:
            raise ValueError("need at least one emitter")
        hilbert._check_n(len(emitters))
        object.__setattr__(self, "emitters", emitters)
        n = len(emitters)
        phi = self.coupling_phase
        if np.isscalar(phi):
            if n > 2 and phi != 0.0:
                raise ValueError("scalar coupling phase only defined for N <= 2")
            mat = np.zeros((n, n))
            if n == 2:
                mat[0, 1] = mat[1, 0] = float(phi)
        else:
            mat = np.array(phi, dtype=float)
            if mat.shape != (n, n):
                raise ValueError(f"coupling phase matrix must be {n}x{n}")
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise ValueError("coupling phase matrix must be symmetric")
            if not np.allclose(np.diag(mat), 0.0, atol=1e-12):
                raise ValueError("coupling phase matrix must have zero diagonal")
            ref = mat[0]
            if not np.allclose(np.abs(ref[:, None] - ref[None, :]), mat,
                               atol=1e-9):
                raise ValueError(
                    "coupling phases inconsistent with collinear emitters: "
                    "need phi_mn = |phi_1m - phi_1n|")
        object.__setattr__(self, "_phase_matrix", mat)

    @property
    def n(self):
        return len(self.emitters)

    @property
    def phase_matrix(self):
        return self._phase_matrix.copy()

    def phase_from_first(self, m):
        """φ_1m, the propagation phase of emitter m relative to emitter 1."""
        return self._phase_matrix[0, m - 1]

    def with_detunings(self, detunings):
        """Copy of the system with per-emitter detunings replaced."""
        detunings = np.broadcast_to(np.asarray(detunings, float), (self.n,))
        new = tuple(dataclasses.replace(e, detuning=float(d))
                    for e, d in zip(self.emitters, detunings))
        return WaveguideSystem(new, self.coupling_phase)

    def with_detuning_offsets(self, offsets):
        """Copy with offsets added to the existing detunings."""
        offsets = np.broadcast_to(np.asarray(offsets, float), (self.n,))
        return self.with_detunings(
            [e.detuning + float(d) for e, d in zip(self.emitters, offsets)])

    def detunings(self):
        return np.array([e.detuning for e in self.emitters])


def coupling_rates(gamma_wg_1, gamma_wg_2, phi):
    """(Γ₁₂, J₁₂) for two guided decay rates and coupling phase φ."""
    if gamma_wg_1 < 0 or gamma_wg_2 < 0:
        raise ValueError("guided rates must be >= 0")
    root = np.sqrt(gamma_wg_1 * gamma_wg_2)
    return root * np.cos(phi), 0.5 * root * np.sin(phi)


def field_operator(system, direction):
    """Collective field operator E_L or E_R of the guided mode."""
    if direction not in ("L", "R"):
        raise ValueError("direction must be 'L' or 'R'")
    sign = 1.0 if direction == "L" else -1.0
    n = system.n
    op = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for m in range(1, n + 1):
        gw = system.emitters[m - 1].gamma_wg
        phase = np.exp(sign * 1j * system.phase_from_first(m))
        op += np.sqrt(gw / 2.0) * phase * hilbert.lowering_operator(n, m)
    return 1j * op


def effective_hamiltonian(system, detunings=None):
    """Non-Hermitian single-excitation Hamiltonian (N×N).

    Diagonal Δ_m − iΓ_m/2; off-diagonal −(i/2) e^{iφ_mn} √(β_mβ_nΓ_mΓ_n),
    which packages J_mn − iΓ_mn/2 in one complex entry.  ``detunings`` of
    shape (..., N) give a stack of Hamiltonians of shape (..., N, N).
    """
    n = system.n
    if detunings is None:
        detunings = system.detunings()
    detunings = np.asarray(detunings, float)
    detunings = np.broadcast_to(detunings, detunings.shape[:-1] + (n,))
    gamma = np.array([e.gamma_total for e in system.emitters])
    gamma_wg = np.array([e.gamma_wg for e in system.emitters])
    # the upper triangle sets both entries, so h[m, k] == h[k, m] exactly
    phase = np.triu(system._phase_matrix, 1)
    phase = phase + phase.T
    h = np.empty(detunings.shape + (n,), dtype=complex)
    h[...] = -0.5j * np.exp(1j * phase) * np.sqrt(np.outer(gamma_wg, gamma_wg))
    diag = np.arange(n)
    h[..., diag, diag] = detunings - 0.5j * gamma
    return h


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian pulse envelope, parameterized by area (π = full inversion).

    The envelope is shared by all emitters; emitter m receives the pulse
    area ``area * weight_m`` where the weights are the DriveConfig
    rabi_amplitude entries.  Gaussian support is truncated at ±6σ.
    """
    sigma_t: float = 0.03
    area: float = np.pi
    repetition_period: float = 13.6
    center: float = None

    def __post_init__(self):
        if self.sigma_t <= 0:
            raise ValueError("sigma_t must be > 0")
        if self.repetition_period <= 0:
            raise ValueError("repetition_period must be > 0")
        if self.center is None:
            object.__setattr__(self, "center", 6.0 * self.sigma_t)

    @property
    def peak(self):
        """Peak Rabi rate of a unit-weight pulse: area = peak·σ√(2π)."""
        return self.area / (self.sigma_t * np.sqrt(2.0 * np.pi))

    @property
    def support(self):
        return (self.center - 6.0 * self.sigma_t,
                self.center + 6.0 * self.sigma_t)

    def envelope(self, t):
        """Unit-weight Rabi rate at time t (first period only)."""
        t = np.asarray(t, dtype=float)
        x = (t - self.center) / self.sigma_t
        out = np.where(np.abs(x) <= 6.0, self.peak * np.exp(-0.5 * x * x), 0.0)
        return out


@dataclass(frozen=True)
class DriveConfig:
    """Classical drive: per-emitter Rabi amplitudes and phases.

    CW mode: rabi_amplitude in rad/ns, constant in time.  Pulsed mode:
    rabi_amplitude entries are dimensionless weights on the shared pulse.
    """
    rabi_amplitude: tuple
    drive_phase: tuple
    mode: str = "cw"
    pulse: PulseSpec = None

    def __post_init__(self):
        rabi = tuple(float(x) for x in np.atleast_1d(self.rabi_amplitude))
        phase = tuple(float(x) for x in np.atleast_1d(self.drive_phase))
        if len(rabi) != len(phase):
            raise ValueError("rabi_amplitude and drive_phase lengths differ")
        if any(x < 0 for x in rabi):
            raise ValueError("Rabi amplitudes must be >= 0")
        if self.mode not in ("cw", "pulsed"):
            raise ValueError("mode must be 'cw' or 'pulsed'")
        if self.mode == "pulsed" and self.pulse is None:
            raise ValueError("pulsed mode requires a PulseSpec")
        object.__setattr__(self, "rabi_amplitude", rabi)
        object.__setattr__(self, "drive_phase", phase)

    @classmethod
    def off(cls, n):
        return cls((0.0,) * n, (0.0,) * n, "cw")

    @property
    def n(self):
        return len(self.rabi_amplitude)

    @property
    def is_cw(self):
        return self.mode == "cw"

    @property
    def is_pulse_driven(self):
        """Pulsed with a nonzero weight: the generator varies in time."""
        return not self.is_cw and any(r != 0 for r in self.rabi_amplitude)

    def validate_against(self, system):
        if self.n != system.n:
            raise ValueError(
                f"drive has {self.n} channels for {system.n} emitters")
        if self.mode == "pulsed":
            max_lifetime = max(1.0 / e.gamma_total for e in system.emitters)
            if self.pulse.repetition_period <= 10.0 * max_lifetime:
                raise ValueError(
                    "repetition_period must exceed 10x the longest lifetime")

    def envelope_at(self, t):
        """Envelope f(t) of the nearest pulse, shared: Ω_m(t) = w_m·f(t).

        Scalar t only; the bits equal ``pulse.envelope`` at the local time.
        """
        pulse = self.pulse
        period = pulse.repetition_period
        t_local = t - period * np.floor((t - pulse.center) / period + 0.5)
        x = (t_local - pulse.center) / pulse.sigma_t
        if not abs(x) <= 6.0:
            return 0.0
        return pulse.peak * np.exp(-0.5 * x * x)

    def pulse_windows(self, t0, t1):
        """Supports (lo, hi) of the pulses with lo <= t1 and hi > t0, i.e.
        every pulse that acts in [t0, t1]; none without a driven pulse."""
        if not self.is_pulse_driven:
            return []
        period = self.pulse.repetition_period
        lo, hi = self.pulse.support
        out = []
        k = int(np.floor((t0 - hi) / period))
        while lo + k * period <= t1:
            if hi + k * period > t0:
                out.append((lo + k * period, hi + k * period))
            k += 1
        return out


def _spre_spost(a, b):
    """Superoperator for ρ ↦ a ρ b on C-order flattened ρ."""
    return np.kron(a, b.T)


def superoperators(systems, drives):
    """L₀ and D of each (system, drive) member as (K, d², d²) stacks that
    act on C-order flattened density matrices.

    A pulse-driven member has L(t) = L₀ + f(t)·D with its static L₀ and
    D = Σ_m w_m D_m; any other member gives its constant generator as L₀
    and D = 0.  D is None when no member is pulse-driven.  The members may
    differ only in their detunings and drives (weights and phases), else
    ValueError: the couplings and jump terms are built once and added to
    the whole stack in place, and each member writes only its own terms,
    in the order of operations of a stack of one.
    """
    system = systems[0]
    n, dim = system.n, 2 ** system.n
    rates = [(e.gamma_total, e.beta, e.dephasing) for e in system.emitters]
    for s, drive in zip(systems, drives, strict=True):
        if [(e.gamma_total, e.beta, e.dephasing) for e in s.emitters] \
                != rates or not np.array_equal(s._phase_matrix,
                                               system._phase_matrix):
            raise ValueError("the systems of a stack may differ only in "
                             "their detunings")
        drive.validate_against(s)
    eye = np.eye(dim)

    def coherent(h):
        return -1j * (_spre_spost(h, eye) - _spre_spost(eye, h))

    lower = [hilbert.lowering_operator(n, m) for m in range(1, n + 1)]
    number = [hilbert.number_operator(n, m) for m in range(1, n + 1)]
    couplings = []
    for m in range(n):
        for k in range(m + 1, n):
            _, j_mk = coupling_rates(system.emitters[m].gamma_wg,
                                     system.emitters[k].gamma_wg,
                                     system._phase_matrix[m, k])
            couplings.append(j_mk * (lower[m].conj().T @ lower[k]
                                     + lower[k].conj().T @ lower[m]))

    l0 = np.empty((len(systems), dim ** 2, dim ** 2), dtype=complex)
    for k, s in enumerate(systems):
        h0 = np.zeros((dim, dim), dtype=complex)
        for e, num in zip(s.emitters, number):
            h0 += e.detuning * num
        for c in couplings:
            h0 += c
        l0[k] = coherent(h0)

    jumps = [field_operator(system, "L"), field_operator(system, "R")]
    for m, (em, sm) in enumerate(zip(system.emitters, lower), start=1):
        resid = (1.0 - em.beta) * em.gamma_total
        if resid > 0:
            jumps.append(np.sqrt(resid) * sm)
        if em.dephasing > 0:
            jumps.append(np.sqrt(em.dephasing / 2.0) * hilbert.pauli_z(n, m))
    for jop in jumps:
        jdj = jop.conj().T @ jop
        l0 += _spre_spost(jop, jop.conj().T)
        l0 -= 0.5 * (_spre_spost(jdj, eye) + _spre_spost(eye, jdj))

    # unit-Rabi drive terms D_m, weighted into D or a constant generator
    d = np.zeros_like(l0) if any(dr.is_pulse_driven for dr in drives) \
        else None
    for k, drive in enumerate(drives):
        part = d if drive.is_pulse_driven else l0
        for w, th, sm in zip(drive.rabi_amplitude, drive.drive_phase, lower):
            if w != 0:
                hd = 0.5 * (np.exp(1j * th) * sm.conj().T
                            + np.exp(-1j * th) * sm)
                part[k] += w * coherent(hd)
    return l0, d


class LindbladGenerator:
    """dρ/dt = L(t)[ρ] for a WaveguideSystem under a DriveConfig.

    The one-member view of ``superoperators``: ``static_superoperator`` is
    L₀ and ``drive_part`` is D (None unless pulse-driven), so that
    L(t) = L₀ + f(t)·D.
    """

    def __init__(self, system, drive=None):
        if drive is None:
            drive = DriveConfig.off(system.n)
        self.system, self.drive, self.dim = system, drive, 2 ** system.n
        l0, d = superoperators([system], [drive])
        self.static_superoperator = l0[0]
        self.drive_part = None if d is None else d[0]

    def superoperator(self, t=0.0):
        if self.drive_part is None:
            return self.static_superoperator
        return self.static_superoperator \
            + self.drive.envelope_at(t) * self.drive_part
