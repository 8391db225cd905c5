"""Time propagation, steady states, and one- and two-time correlations.

One propagation path, ``_evolve``, serves ``propagate``,
``intensity_traces``, ``two_time_correlation``, ``g2_cw`` and the step
propagators of ``pulsed_g2_map``.  It marches a stack of K systems that
share one pulse timing, such as the grid points and noise nodes of a
sweep, each with m columns: one state, the seeds of several port pairs,
or the identity when it builds a propagator.  At each stored time it
keeps what the caller reads from the columns, such as Tr ρ and the two
port intensities.  Between pulses the stack takes exact steps
expm(L₀Δt); inside a pulse window (±6σ) one RK45 solve integrates it
under L(t) = L₀ + f(t)·D, at tolerances pooled over the stack so that
every system meets RTOL = 1e-10 and ATOL = 1e-12 of its own.  A CW or
undriven generator never calls the ODE solver.  Long stacks are marched
in chunks of ``stack_chunk`` members, whose superoperators and readouts
fit NODE_STACK_BYTES.

Two-time quantities use the quantum regression theorem: with Λ_τ the same
propagator that evolves ρ,

    G_αβ(τ) = Tr[E_β†E_β · Λ_τ(E_α ρ E_α†)].

CW correlations start from the steady state and are τ-stationary.
``g2_cw`` takes a stack of systems, such as the spectral-diffusion nodes
of a noise average: one generator and steady state per node, then one
``_evolve`` march of the pairs' seeds E_α ρ_ss E_α† as columns, where
each delay reads column p with pair p's weight E_β†E_β alone.
Pulsed correlations are computed as fully time-resolved maps G(t₁, t₂)
over one pulse window (same-pulse) and across one repetition period
(different-pulse), then integrated along the diagonal; one
``pulsed_g2_map`` call serves every port pair from one set of step
propagators: expm(L₀Δt) for the grid steps no pulse touches, and for
each other step the identity marched through ``_evolve``.  Stacking and
sharing in ``g2_cw`` and ``pulsed_g2_map`` leave each node's and pair's
arithmetic as in a call of its own, so their results are bit-identical
to one call per node and pair.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import DegenerateSteadyStateError, IntegrationError, NumericalError
from .hilbert import DensityState, basis_ket
from .model import (DriveConfig, LindbladGenerator, WaveguideSystem,
                    field_operator)

NEGATIVE_G_TOL = 1e-10  # regression numerics may produce tiny negatives
RTOL = 1e-10    # RK45 tolerances of one system inside a pulse window
ATOL = 1e-12
NODE_STACK_BYTES = 16 * 1024 ** 2   # one chunk of a stack
_CACHED_STEPS = 3   # the grid step, and the steps into and out of a pulse
STACK_SUPEROPERATORS = 3 + _CACHED_STEPS   # per member of an _evolve stack


@dataclass
class Trajectory:
    """Propagated states on a time grid, with the drive that produced them."""
    times: np.ndarray
    states: np.ndarray          # (nt, dim, dim) complex
    drive: DriveConfig

    def expectation(self, op):
        """⟨op⟩(t) for all grid times."""
        return np.einsum("tij,ji->t", self.states, np.asarray(op))


def _as_matrix(state):
    if isinstance(state, DensityState):
        return state.matrix
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def _stack(systems, drives):
    """L₀ and D of each (system, drive) pair as (K, d², d²) stacks, with
    the drive whose pulses the pairs share.

    A pulse-driven member gives its static L₀ and D = Σ_m w_m D_m; any
    other member gives its constant generator as L₀ and D = 0.  D and the
    drive are None when no member is pulse-driven.  Each generator is
    dropped once its rows are copied, so the stacks are all that is held.
    """
    l0 = d = timed = None
    for k, (system, drive) in enumerate(zip(systems, drives)):
        gen = LindbladGenerator(system, drive)
        if l0 is None:
            l0 = np.empty((len(systems),) + gen.static_superoperator.shape,
                          dtype=complex)
        if gen.is_time_dependent:
            if d is None:
                d = np.zeros_like(l0)
            l0[k], d[k], timed = (gen.static_superoperator,
                                  gen.drive_superoperator(), drive)
        else:
            l0[k] = gen.superoperator()
    return l0, d, timed


def _evolve(l0, d, drive, y, t0, times, read=lambda x: x):
    """What ``read`` keeps of the columns of each of K stacked systems at
    each of ``times`` (increasing, all >= t0) from y[k] at t0; returns
    (K, len(times), ...).

    ``y`` is (K, d², m): m columns per system, such as one vec(ρ) (m = 1)
    or the identity (m = d², which gives the propagator).  ``read`` maps
    the (K, d², m) columns at a stored time to a (K, ...) array, such as
    the port intensities of each state; by default the columns are kept.
    ``l0`` and ``d`` are (K, d², d²) stacks (``d`` None for constant
    generators) and ``drive`` gives the pulse windows all members share.
    Pulse-free stretches take exact steps expm(L₀Δt), one batched
    exponential per step length for the whole stack (lengths within 1e-12
    relative share it; the last _CACHED_STEPS lengths are kept).  Each
    pulse window runs one RK45 solve on the flattened state with max_step
    = σ/5.  Its right-hand side is L₀X + f(t)·(DX) for one column, where
    forming L₀ + f(t)·D would cost as much as a product, and
    (L₀ + f(t)·D)X for more, one product instead of two.  Its error norm
    is pooled over the stack, so RTOL and ATOL are divided by √K: the
    pooled norm is then the root of the sum of the systems' own squared
    norms, each an RMS over that system's d²·m entries.
    """
    k, d2, m = y.shape
    if d is None:
        windows = []
    else:
        windows = [(max(lo, t0), min(hi, times[-1]))
                   for lo, hi in drive.pulse_windows(t0, times[-1])]
    steps = {}

    def free(dt):
        for length in steps:
            if abs(length - dt) <= 1e-12 * dt:
                steps[length] = steps.pop(length)   # most recent last
                return steps[length]
        if len(steps) == _CACHED_STEPS:
            del steps[next(iter(steps))]
        steps[dt] = expm(l0 * dt)
        return steps[dt]

    def rhs(t, x):
        x = x.reshape(k, d2, m)
        if m == 1:
            return (l0 @ x + drive.envelope_at(t) * (d @ x)).reshape(-1)
        return ((l0 + drive.envelope_at(t) * d) @ x).reshape(-1)

    first = read(y)
    out = np.empty((k, len(times)) + first.shape[1:], dtype=first.dtype)
    t, i = t0, 0
    for a, b in windows + [(np.inf, np.inf)]:
        while i < len(times) and times[i] <= a:
            if times[i] > t:
                y, t = free(times[i] - t) @ y, times[i]
            out[:, i] = read(y)
            i += 1
        if i == len(times):
            break
        if a > t:
            y = free(a - t) @ y
        inside = times[i:][times[i:] <= b]
        t_eval = list(inside)
        if not t_eval or t_eval[-1] < b:
            t_eval.append(b)   # the window's end state carries on
        sol = solve_ivp(rhs, (a, b), y.reshape(-1), method="RK45",
                        t_eval=t_eval, rtol=RTOL / np.sqrt(k),
                        atol=ATOL / np.sqrt(k),
                        max_step=drive.pulse.sigma_t / 5.0)
        if not sol.success:
            raise IntegrationError(
                f"integrator failed near t = {sol.t[-1] if len(sol.t) else a:.6g} ns: "
                f"{sol.message}", t=float(sol.t[-1]) if len(sol.t) else a)
        ys = sol.y.reshape(k, d2, m, -1)
        for j in range(len(inside)):
            out[:, i + j] = read(ys[..., j])
        i += len(inside)
        y, t = ys[..., -1], b
    return out


def stack_chunk(dim, nt, row_bytes):
    """Members per ``_evolve`` stack for Hilbert dimension ``dim`` and
    ``nt`` stored times of ``row_bytes`` readout bytes each.

    Each member holds STACK_SUPEROPERATORS dim²×dim² complex matrices (L₀,
    D, the scaled L₀·Δt that expm reads and up to _CACHED_STEPS cached
    steps) and its readout (nt × row_bytes); a chunk keeps them within
    NODE_STACK_BYTES (but has at least one member).
    """
    member = 16 * STACK_SUPEROPERATORS * dim ** 4 + nt * row_bytes
    return max(1, NODE_STACK_BYTES // member)


def _march(rho0, systems, drives, t_grid, row_bytes, reader, trace):
    """Each member's readout on t_grid from ρ₀ at t = 0, in order, marched
    in ``_evolve`` stacks of ``stack_chunk`` members; ``reader(members)``
    reads a chunk (``row_bytes`` per member and time) and ``trace`` takes
    Tr ρ from its readouts, which may drift from 1 by at most 1e-8.
    """
    chunk = stack_chunk(len(rho0), len(t_grid), row_bytes)
    for lo in range(0, len(systems), chunk):
        members = systems[lo:lo + chunk]
        l0, d, timed = _stack(members, drives[lo:lo + chunk])
        y = np.repeat(rho0.reshape(1, -1, 1), len(l0), axis=0)
        reads = _evolve(l0, d, timed, y, 0.0, t_grid, reader(members))
        del l0, d
        drift = np.max(np.abs(trace(reads) - 1.0))
        if drift > 1e-8:
            raise NumericalError(f"trace drift {drift:.2e} exceeds 1e-8")
        yield from reads


def propagate(initial, system, drive, t_grid, validate=True):
    """Propagate a density state along t_grid (must start at 0, monotone).

    ``system`` and ``drive`` are each one object or a sequence; a single
    one is repeated to the length of the other.  One system under one
    drive gives its Trajectory; otherwise the members march as one stack
    and a list of Trajectories comes back in order.  All drives must
    share their pulses (or all be CW), so that the members share their
    pulse windows.  Stacks longer than ``stack_chunk`` are marched in
    chunks of that size.

    Every stored state is checked against the DensityState invariants
    unless ``validate=False``; total trace drift beyond 1e-8 raises.
    """
    single = isinstance(system, WaveguideSystem) and \
        isinstance(drive, DriveConfig)
    systems = [system] if isinstance(system, WaveguideSystem) else list(system)
    drives = [drive] if isinstance(drive, DriveConfig) else list(drive)
    if len(systems) == 1:
        systems = systems * len(drives)
    if len(drives) == 1:
        drives = drives * len(systems)
    if len(systems) != len(drives):
        raise ValueError("systems and drives differ in number")
    if len({None if dr.is_cw else dr.pulse for dr in drives}) > 1:
        raise ValueError("the drives of a stack must share their pulses")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    rho0 = _as_matrix(initial)
    if any(rho0.shape != (2 ** s.n, 2 ** s.n) for s in systems):
        raise ValueError("initial state dimension mismatch")
    dim = len(rho0)
    trajectories = []
    for states, dr in zip(_march(
            rho0, systems, drives, t_grid, 16 * dim ** 2,
            lambda members: lambda x: x[..., 0],
            lambda s: s[..., ::dim + 1].sum(axis=-1).real), drives):
        states = states.reshape((len(t_grid),) + rho0.shape)
        if validate:
            for s in states:
                DensityState(s)
        trajectories.append(Trajectory(times=t_grid, states=states,
                                       drive=dr))
    return trajectories[0] if single else trajectories


def intensity_traces(systems, drives, t_grid):
    """I_L(t) and I_R(t) of each (system, drive) pair from |g…g⟩ at t = 0,
    one dict {"left", "right"} per pair in order, clipped at zero; the
    march keeps Tr ρ, ⟨E_L†E_L⟩ and ⟨E_R†E_R⟩ per member and time.
    """
    dim = 2 ** systems[0].n

    def reader(members):
        ops = np.stack([op for s in members for op in (np.eye(dim), *(
            e.conj().T @ e for e in (field_operator(s, p) for p in "LR")))])
        return lambda x: np.real(np.einsum(
            "kij,kji->k", np.repeat(x.reshape(-1, dim, dim), 3, axis=0),
            ops)).reshape(-1, 3)

    rho0 = _as_matrix(basis_ket("g" * systems[0].n))
    for read in _march(rho0, systems, drives, t_grid, 3 * 8, reader,
                       lambda reads: reads[..., 0]):
        yield {"left": np.maximum(read[:, 1], 0.0),
               "right": np.maximum(read[:, 2], 0.0)}


def steady_state(system, drive=None):
    """Unique steady state of the CW-driven generator.

    ``system`` may be a LindbladGenerator already built for a CW drive,
    which is then used as is (``drive`` is ignored).  Every check is
    relative to the scale ‖L‖₂ (the largest singular value), so scaling
    all rates and the drive by λ leaves the decisions unchanged.
    Uniqueness is certified by the second-smallest singular value s₋₂
    exceeding 1e-11·‖L‖₂.  The null vector, phase-fixed by its trace, may
    carry an anti-Hermitian part of at most 1e-12·‖L‖₂/s₋₂ of its norm (the
    SVD accuracy) before it is symmetrized; the returned state has unit
    trace and satisfies max|L(ρ_ss)| ≤ 1e-12·‖L‖₂.
    """
    gen = system if isinstance(system, LindbladGenerator) else None
    if not (drive if gen is None else gen.drive).is_cw:
        raise ValueError("steady_state requires a CW drive")
    if gen is None:
        gen = LindbladGenerator(system, drive)
    l = gen.superoperator()
    _, s, vh = np.linalg.svd(l)
    scale = s[0]
    if s[-2] <= 1e-11 * scale:
        raise DegenerateSteadyStateError(
            f"null space is degenerate (second singular value {s[-2]:.2e}, "
            f"‖L‖ {scale:.2e})")
    rho = vh[-1].conj().reshape(gen.dim, gen.dim)
    unit = rho / np.trace(rho)
    anti = np.linalg.norm(unit - unit.conj().T) / (2 * np.linalg.norm(unit))
    if not anti <= 1e-12 * scale / s[-2]:
        raise NumericalError(
            f"steady state anti-Hermitian part {anti:.2e} > "
            f"{1e-12 * scale / s[-2]:.2e}")
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    residual = np.max(np.abs(l @ rho.reshape(-1)))
    if residual > 1e-12 * scale:
        raise NumericalError(f"steady-state residual {residual:.2e} > "
                             f"{1e-12 * scale:.2e}")
    return DensityState(rho)


@dataclass
class CorrelationResult:
    """G(τ) values with clipping diagnostics."""
    tau: np.ndarray
    values: np.ndarray
    clipped: int = 0            # entries below -NEGATIVE_G_TOL before clip


def _trace_weight(op):
    """Row vector w with Tr[op·X] = w @ vec(X) for C-order vec."""
    return np.asarray(op).T.reshape(-1)


def _clip_correlations(tau, raw):
    clipped = int(np.sum(raw < -NEGATIVE_G_TOL))
    if clipped:
        warnings.warn(
            f"{clipped} correlation values below -{NEGATIVE_G_TOL:g} clipped "
            f"to zero (min {raw.min():.3e})", RuntimeWarning)
    return CorrelationResult(tau=tau, values=np.clip(raw, 0.0, None),
                             clipped=clipped)


def two_time_correlation(system, drive, a_op, b_op, rho, tau_grid,
                         t_start=0.0):
    """G(τ) = Tr[B†B Λ_τ(A ρ A†)] via the quantum regression theorem.

    ``rho`` is the state at absolute time ``t_start`` (the steady state for
    CW problems).  Negative values beyond the 1e-10 tolerance are clipped
    with a warning and counted in the result.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid < 0) or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau_grid must be nonnegative and increasing")
    rho_m = _as_matrix(rho)
    seed = (a_op @ rho_m @ a_op.conj().T).reshape(1, -1, 1)
    w = _trace_weight(b_op.conj().T @ b_op)
    l0, d, timed = _stack([system], [drive])
    g = _evolve(l0, d, timed, seed, t_start, t_start + tau_grid,
                lambda x: x[..., 0] @ w)
    return _clip_correlations(tau_grid, np.real(g[0]))


def g2_cw(systems, drive, pairs=("LL", "RR", "LR", "RL"), tau_max=6.0,
          dt=0.005):
    """Steady-state g²_αβ(τ) for the requested port pairs.

    ``systems`` is one WaveguideSystem or a sequence of them sharing the
    CW drive and dimension, such as the detuning nodes of a noise average.
    Each gets its own generator and steady state; all march as one
    ``_evolve`` stack with the pairs' seeds as columns, and each delay
    keeps the P reals Tr[E_β†E_β·X_p] of pair p's column, so pass at most
    ``stack_chunk(dim, len(tau), 8·P)`` systems.

    Returns a dict with 'tau', per-pair normalized 'g2' (τ ≥ 0) and 'G2',
    steady intensities, and per-pair clip counts.  For a sequence every
    value carries a leading system axis; one system gives them without
    it.  Negative delays follow from g²_αβ(−τ) = g²_βα(τ).
    """
    single = isinstance(systems, WaveguideSystem)
    stack = [systems] if single else list(systems)
    tau = np.arange(0.0, tau_max + dt / 2, dt)
    l, seeds, weights = None, [], []
    intens = {"L": [], "R": []}
    for k, system in enumerate(stack):
        gen = LindbladGenerator(system, drive)
        rho_ss = steady_state(gen)
        ops = {p: field_operator(system, p) for p in "LR"}
        for p in "LR":
            intens[p].append(max(np.real(rho_ss.expectation(
                ops[p].conj().T @ ops[p])), 0.0))
        if l is None:
            l = np.empty((len(stack),) + gen.static_superoperator.shape,
                         dtype=complex)
        l[k] = gen.superoperator()
        seeds.append(np.stack(
            [(ops[p[0]] @ rho_ss.matrix @ ops[p[0]].conj().T).reshape(-1)
             for p in pairs], axis=1))
        weights.append(
            [_trace_weight(ops[p[1]].conj().T @ ops[p[1]]) for p in pairs])
    intens = {p: np.array(v) for p, v in intens.items()}
    weights = np.stack(weights)             # (K, P, dim²)
    raw = _evolve(l, None, None, np.stack(seeds), 0.0, tau, lambda x: np.real(
        np.einsum("kpj,kjp->kp", weights, x))).transpose(1, 0, 2)
    del l
    out = {"tau": tau, "intensity": intens, "g2": {}, "G2": {}, "clipped": {}}
    for j, pair in enumerate(pairs):
        res = _clip_correlations(tau, raw[:, :, j])
        denom = intens[pair[0]] * intens[pair[1]]
        if np.any(denom <= 0):
            raise NumericalError(f"zero steady flux for pair {pair}")
        out["G2"][pair] = res.values.T
        out["g2"][pair] = res.values.T / denom[:, None]
        out["clipped"][pair] = np.sum(raw[:, :, j] < -NEGATIVE_G_TOL, axis=0)
    if single:
        out["intensity"] = {p: v[0] for p, v in intens.items()}
        for key in ("g2", "G2", "clipped"):
            out[key] = {pair: v[0] for pair, v in out[key].items()}
    return out


@dataclass
class CorrelationMap:
    """Two-time correlation values on a (t₁, t₂) grid."""
    t1: np.ndarray
    t2: np.ndarray
    values: np.ndarray
    kind: str                   # 'same_pulse' | 'different_pulse'
    normalization: dict = field(default_factory=dict)


@dataclass
class PulsedG2Result:
    ports: str
    t: np.ndarray
    same: CorrelationMap
    different: CorrelationMap
    intensity_a: np.ndarray
    intensity_b: np.ndarray
    period: float
    clipped: int = 0


def _step_matrices(gen, t):
    """Propagator Φ_k over each [t_k, t_{k+1}] of the uniform grid t.

    The steps that no pulse touches share one expm(L₀Δt); each other step
    marches the identity through ``_evolve`` as one system of d² columns.
    """
    l0 = gen.static_superoperator
    d = gen.drive_superoperator()[None]
    eye = np.eye(len(l0), dtype=complex)[None]
    drive = gen.drive
    p_static = None
    mats = []
    for a, b in zip(t[:-1], t[1:]):
        if drive.pulse_windows(a, b):
            mats.append(_evolve(l0[None], d, drive, eye, a,
                                np.array([b]))[0, 0])
        else:
            if p_static is None:
                p_static = expm(l0 * (t[1] - t[0]))
            mats.append(p_static)
    return mats


def pulsed_g2_map(system, drive, ports="LL", window=4.0, dt=0.01,
                  initial=None, separation_periods=500):
    """Fully time-resolved G²_αβ(t₁, t₂) maps for one pulse window.

    ``ports`` is one port pair such as "LR", which returns its
    PulsedG2Result, or a sequence of pairs, which returns a dict pair →
    PulsedG2Result.  All pairs share one set of step propagators, one
    march per seed port and one far-window march per first port.

    Each result holds same-pulse and different-pulse maps on the full
    (t₁, t₂) square; for t₂ < t₁ the same-pulse map holds G_βα(t₂, t₁).
    The different-pulse map correlates t₁ in one pulse window with t₂ a
    large number of repetition periods later (coincidence hardware pairs
    pulses hundreds of periods apart), so it factorizes into I(t₁)I(t₂)
    once the system has fully relaxed.

    By default every period starts from |g…g⟩ and the pulse does the
    excitation.  ``initial`` instead models an ideal preparation: the
    trace-preserving reset ρ ↦ Tr(ρ)·ρ₀ to the state ρ₀ = ``initial``,
    applied at the start of every repetition period, the first window and
    the far-away different-pulse window alike.  The pulse still acts after
    the reset when its area is nonzero.
    """
    pairs = [ports] if isinstance(ports, str) else list(ports)
    for pair in pairs:
        if not (len(pair) == 2 and set(pair) <= set("LR")):
            raise ValueError("ports must be two of 'L'/'R'")
    if drive.is_cw:
        raise ValueError("pulsed_g2_map requires a pulsed drive")
    period = drive.pulse.repetition_period
    gap = period - window
    if gap < 0:
        raise ValueError("window exceeds the repetition period")
    if separation_periods < 1:
        raise ValueError("separation_periods must be >= 1")
    gen = LindbladGenerator(system, drive)
    dim, dim2 = gen.dim, gen.dim ** 2
    nt = int(round(window / dt)) + 1
    t = np.arange(nt) * dt
    mats = _step_matrices(gen, t)

    ops = {"L": field_operator(system, "L"), "R": field_operator(system, "R")}
    w_tr = {p: _trace_weight(ops[p].conj().T @ ops[p]) for p in "LR"}

    rho = _as_matrix(basis_ket("g" * system.n) if initial is None
                     else initial)
    rho_t = np.empty((nt, dim, dim), dtype=complex)
    rho_t[0] = rho
    for k in range(nt - 1):
        rho_t[k + 1] = (mats[k] @ rho_t[k].reshape(-1)).reshape(dim, dim)

    intensity = {p: np.maximum(
        np.real(np.einsum("tij,ji->t", rho_t, ops[p].conj().T @ ops[p])), 0.0)
        for p in "LR"}

    def seeds_for(port):
        e = ops[port]
        return np.stack([(e @ r @ e.conj().T).reshape(-1) for r in rho_t],
                        axis=1)  # (dim2, nt)

    banks = {p: seeds_for(p) for p in sorted({q for pair in pairs
                                               for q in pair})}
    # "αβ" -> map over t1 <= t2
    g_upper = {key: np.zeros((nt, nt)) for pair in pairs
               for key in (pair, pair[::-1])}

    # march all seed banks forward through the window
    live = {p: np.zeros((dim2, nt), dtype=complex) for p in banks}
    for k in range(nt):
        for p in banks:
            live[p][:, k] = banks[p][:, k]
        for (alpha, beta_), g in g_upper.items():
            g[:k + 1, k] = np.real(w_tr[beta_] @ live[alpha][:, :k + 1])
        if k < nt - 1:
            for p in banks:
                live[p][:, :k + 1] = mats[k] @ live[p][:, :k + 1]

    if initial is None:
        # relax across `separation_periods` repetitions, then march through
        # the far-away pulse window
        p_gap = expm(gen.static_superoperator * gap)
        if separation_periods > 1:
            p_window = np.eye(dim2, dtype=complex)
            for m in mats:
                p_window = m @ p_window
            p_gap = np.linalg.matrix_power(p_gap @ p_window,
                                           separation_periods - 1) @ p_gap
    else:
        w_id = _trace_weight(np.eye(dim))
    g_diff = {pair: np.zeros((nt, nt)) for pair in pairs}  # far-away window
    for a in sorted({pair[0] for pair in pairs}):
        if initial is None:
            far = p_gap @ live[a]
        else:
            # the preparation recurs at the start of the far-away period;
            # the propagation in between preserves the trace, so
            # X ↦ Tr(X)·ρ₀ needs only the trace of each seed
            far = np.outer(rho.reshape(-1), w_id @ live[a])
        served = [pair for pair in g_diff if pair[0] == a]
        for k in range(nt):
            for pair in served:
                g_diff[pair][:, k] = np.real(w_tr[pair[1]] @ far)
            if k < nt - 1:
                far = mats[k] @ far

    upper = np.arange(nt)[None, :] >= np.arange(nt)[:, None]
    results = {}
    for pair in pairs:
        same = np.where(upper, g_upper[pair], g_upper[pair[::-1]].T)
        diff = g_diff[pair]
        n_neg = int(np.sum(same < -NEGATIVE_G_TOL)
                    + np.sum(diff < -NEGATIVE_G_TOL))
        if n_neg:
            warnings.warn(f"{n_neg} map values below -{NEGATIVE_G_TOL:g} "
                          f"clipped ({pair})", RuntimeWarning)
        meta = {"ports": pair, "dt": dt, "window": window, "period": period,
                "separation_periods": separation_periods}
        results[pair] = PulsedG2Result(
            ports=pair, t=t,
            same=CorrelationMap(t, t, np.clip(same, 0.0, None),
                                "same_pulse", dict(meta)),
            different=CorrelationMap(t, t + separation_periods * period,
                                     np.clip(diff, 0.0, None),
                                     "different_pulse", dict(meta)),
            intensity_a=intensity[pair[0]], intensity_b=intensity[pair[1]],
            period=period, clipped=n_neg)
    return results[ports] if isinstance(ports, str) else results


@dataclass
class PulsedCorrelogram:
    """Diagonal-integrated correlograms, normalized per pulse pair.

    ``center`` and ``side`` are correlation densities
    q(τ) = ∫G²(t, t+τ)dt / (∫I_α dt · ∫I_β dt); the side peak (τ measured
    about one repetition period) integrates to 1 for uncorrelated pulses.
    The dimensionless peak height reported by experiments is the ratio of
    the center maximum to the side maximum.
    """
    tau: np.ndarray
    center: np.ndarray
    side: np.ndarray
    norm: float
    period: float

    def center_height(self):
        peak = self.side.max()
        if peak <= 0:
            raise NumericalError("side peak vanishes; cannot normalize")
        return float(self.center.max() / peak)


def _diagonal_integral(values, dt):
    """∫G(t, t+τ)dt for every diagonal offset, trapezoid along the diagonal."""
    nt = values.shape[0]
    out = np.empty(2 * nt - 1)
    for j in range(-(nt - 1), nt):
        d = values.diagonal(j)
        if len(d) == 1:
            out[j + nt - 1] = d[0] * dt
        else:
            out[j + nt - 1] = (d.sum() - 0.5 * (d[0] + d[-1])) * dt
    return out


def integrated_pulsed_g2(result):
    """Integrate PulsedG2Result maps into center/side correlograms."""
    dt = float(result.t[1] - result.t[0])
    ia = np.trapezoid(result.intensity_a, dx=dt)
    ib = np.trapezoid(result.intensity_b, dx=dt)
    norm = ia * ib
    if norm <= 0:
        raise NumericalError("zero integrated intensity; g2 undefined")
    nt = len(result.t)
    tau = np.arange(-(nt - 1), nt) * dt
    center = _diagonal_integral(result.same.values, dt) / norm
    side = _diagonal_integral(result.different.values, dt) / norm
    return PulsedCorrelogram(tau=tau, center=center, side=side, norm=norm,
                             period=result.period)
