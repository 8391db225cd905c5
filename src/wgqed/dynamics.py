"""Time propagation, steady states, and one- and two-time correlations.

One propagation path, ``_states``, serves ``propagate``,
``intensity_traces``, ``two_time_correlation``, ``g2_cw`` and the step
propagators of ``pulsed_g2_map``.  It marches a stack of K systems that
share one pulse timing, such as the grid points and noise nodes of a
sweep, each with m columns: one state, the seeds of several port pairs,
or the identity when it builds a propagator.  ``_march`` reads it for all
but the step propagators: it keeps what the caller reads from the
columns, such as Tr ρ and the two port intensities, for blocks of
READ_BLOCK stored times at once.  Between pulses the stack takes
exact steps expm(L₀Δt); inside a pulse window (±6σ) one RK45 solve
integrates it under L(t) = L₀ + f(t)·D, at tolerances pooled over the
stack so that every system meets RTOL = 1e-10 and ATOL = 1e-12 of its
own.  The RK45 is ``solve_ivp``, this module's port of scipy 1.17.1's
Dormand–Prince solver, bit for bit the same, and the exponential is
``expm``, this module's scaling and squaring with Padé approximants
(Al-Mohy & Higham 2009, the method of scipy's), so that this module
imports no scipy module.  A CW or undriven generator never calls the ODE
solver.  Long stacks are marched in chunks of ``stack_chunk`` members,
whose superoperators and readouts fit NODE_STACK_BYTES.  The members
differ only in their detunings and drives, so one
``model.superoperators`` call builds a chunk's L₀ and D.

Two-time quantities use the quantum regression theorem: with Λ_τ the same
propagator that evolves ρ,

    G_αβ(τ) = Tr[E_β†E_β · Λ_τ(E_α ρ E_α†)].

CW correlations start from the steady state and are τ-stationary.
``g2_cw`` takes a stack of systems, such as the spectral-diffusion nodes
of a noise average: per chunk one superoperator build and one steady
state per node, then one ``_march`` of the pairs' seeds E_α ρ_ss E_α† as
columns, where each delay reads column p with pair p's weight E_β†E_β
alone.
Pulsed correlations are computed as fully time-resolved maps G(t₁, t₂)
over one pulse window (same-pulse) and across one repetition period
(different-pulse), then integrated along the diagonal; one
``pulsed_g2_map`` call serves every port pair from one set of step
propagators: expm(L₀Δt) for the grid steps no pulse touches, and for
each other step the identity marched through ``_states``.  Stacking and
sharing in ``g2_cw`` and ``pulsed_g2_map`` leave each node's and pair's
arithmetic as in a call of its own, so their results are bit-identical
to one call per node and pair.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSteadyStateError, IntegrationError, NumericalError
from .hilbert import DensityState, basis_ket
from .model import (DriveConfig, LindbladGenerator, WaveguideSystem,
                    field_operator, superoperators)

NEGATIVE_G_TOL = 1e-10  # regression numerics may produce tiny negatives;
                        # counted below -NEGATIVE_G_TOL·max|G| of a result
RTOL = 1e-10    # RK45 tolerances of one system inside a pulse window
ATOL = 1e-12
# A pulse window whose RK45 needs more steps than this for stability alone
# fails before it starts: 30x the most that any example config or the
# N = 4 benchmark configs take in one window (326, detuning-sweep).
RK45_STEP_CAP = 10_000
RK45_STABLE = 3.3   # the RK45 stability region's reach along -R (h·|λ|)
NODE_STACK_BYTES = 16 * 1024 ** 2   # one chunk of a stack
_CACHED_STEPS = 3   # the grid step, and the steps into and out of a pulse
STACK_SUPEROPERATORS = 3 + _CACHED_STEPS   # per member of a _march stack
READ_BLOCK = 16     # stored times per member that _march reads at once
# Work arrays that the size guard counts (config.dense_bytes), traced with
# tracemalloc at N = 4: one ``_expm`` call holds up to 7.6 matrices of
# its argument's size beyond the argument, and one pulse-window solve of
# ``_states`` 17.5 arrays of its state's size (its 7 stage rows, the
# dense output's 4 columns, the right-hand side's temporaries, the start
# and the result; for a pulse step's propagator the state is d²×d²)
EXPM_WORK = 8
RK45_WORK = 18


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


def _states(l0, d, drive, y, t0, times):
    """The (K, d², m) columns of each of K stacked systems at each of
    ``times`` (increasing, all >= t0) from y[k] at t0, yielded in order.

    ``y`` is (K, d², m): m columns per system, such as one vec(ρ) (m = 1)
    or the identity (m = d², which gives the propagator).
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
    norms, each an RMS over that system's d²·m entries.  A window that
    needs more than RK45_STEP_CAP steps for stability alone raises
    IntegrationError before its solve.
    """
    k, d2, m = y.shape
    if d is None:
        windows = []
    else:
        windows = [(max(lo, t0), min(hi, times[-1]))
                   for lo, hi in drive.pulse_windows(t0, times[-1])]
    steps = {}
    # the spectral radius is at least |tr L₀|/d² (D is traceless), and an
    # explicit step h is stable only where h·radius <= RK45_STABLE
    radius = np.abs(np.trace(l0, axis1=1, axis2=2)).max() / d2

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

    t, i = t0, 0
    for a, b in windows + [(np.inf, np.inf)]:
        while i < len(times) and times[i] <= a:
            if times[i] > t:
                y, t = free(times[i] - t) @ y, times[i]
            yield y
            i += 1
        if i == len(times):
            break
        if a > t:
            y = free(a - t) @ y
        least = (b - a) * radius / RK45_STABLE
        if least > RK45_STEP_CAP:
            raise IntegrationError(
                f"pulse window at t = {a:.6g} ns too stiff for the RK45: "
                f"at least {least:.3g} steps (cap {RK45_STEP_CAP})", t=a)
        inside = times[i:][times[i:] <= b]
        t_eval = list(inside)
        if not t_eval or t_eval[-1] < b:
            t_eval.append(b)   # the window's end state carries on
        sol = solve_ivp(rhs, (a, b), y.reshape(-1), t_eval=t_eval,
                        rtol=RTOL / np.sqrt(k), atol=ATOL / np.sqrt(k),
                        max_step=drive.pulse.sigma_t / 5.0)
        if not sol.success:
            raise IntegrationError(f"integrator failed near t = "
                                   f"{sol.reached:.6g} ns: {sol.message}",
                                   t=sol.reached)
        ys = sol.y.reshape(k, d2, m, -1)
        for j in range(len(inside)):
            yield ys[..., j]
        i += len(inside)
        y, t = ys[..., -1], b


# Dormand–Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 19
# (1980)): nodes C, stages A, 5th-order weights B, error weights E (B minus
# the 4th-order weights, with the FSAL stage) and Shampine's quartic dense
# output P, each as scipy 1.17.1's RK45 builds it.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 5      # -1/(order of the error estimate + 1)
_REACHED_END = ("The solver successfully reached the end of the "
                "integration interval.")
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass
class IvpResult:
    """A ``solve_ivp`` run: the states at times ``t`` as the columns of
    ``y``, the right-hand-side evaluations, whether it reached the end
    of its span, and the time its accepted steps reached."""
    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str
    reached: float


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol, max_step=np.inf):
    """y' = fun(t, y) from y0 at t_span[0] to t_span[1] >= t_span[0],
    sampled at ``t_eval`` (increasing, within the span), by explicit
    Runge–Kutta 5(4) with local extrapolation.

    A port of ``scipy.integrate.solve_ivp(method="RK45")`` of scipy 1.17.1
    for forward spans without events: the same tableau, initial step
    (Hairer, Nørsett & Wanner, Solving ODEs I, §II.4), step control (the
    error estimate's RMS norm against atol + rtol·max(|y|, |y_new|); safety
    0.9, factors 0.2–10, no growth right after a rejection, failure below
    10 ulp of t) and quartic dense output at the ``t_eval`` points, made by
    the same numpy calls in the same order, so that its results are scipy's
    bit for bit.  ``rtol`` is raised to 100 ε as scipy raises it.  Where
    they part: an empty span gives y0 at every point (scipy gives none),
    and a NaN initial step, from a right-hand side that is NaN at t0,
    fails at once (scipy's step loop would not end).  The steps run in
    this one frame, so a solve leaves no reference cycle behind.
    """
    t, t_bound = map(float, t_span)
    if t_bound < t:
        raise ValueError("solve_ivp integrates forward in time only")
    t_eval = np.asarray(t_eval)
    y = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y) else float
    y = y.astype(dtype, copy=False)
    rtol = max(rtol, 100 * np.finfo(float).eps)

    def f_of(t, y):
        return np.asarray(fun(t, y), dtype=dtype)

    f = f_of(t, y)
    if t == t_bound:
        return IvpResult(t_eval, np.repeat(y[:, None], len(t_eval), axis=1),
                         nfev=1, success=True, message=_REACHED_END,
                         reached=t)
    interval = t_bound - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((f_of(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval, max_step)
    nfev, success = 2, True
    stages = np.empty((len(_C) + 1, y.size), dtype=dtype)
    ts, ys, i_eval = [], [], 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            stages[0] = f
            for s in range(1, len(_C)):
                dy = np.dot(stages[:s].T, _A[s, :s]) * h
                stages[s] = f_of(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(stages[:-1].T, _B)
            f_new = f_of(t + h, y_new)
            stages[-1] = f_new
            nfev += len(_C)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(stages.T, _E) * h / scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else \
                    min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
            rejected = True
        else:               # the step fell below min_step
            success = False
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i_eval:
            x = (t_eval[i_eval:i_new] - t_old) / h
            p = np.cumprod(np.tile(x, (_P.shape[1], 1)), axis=0)
            out = h * np.dot(stages.T.dot(_P), p)
            out += y_old[:, None]
            ts.append(t_eval[i_eval:i_new])
            ys.append(out)
            i_eval = i_new
    return IvpResult(
        t=np.hstack(ts) if ts else np.empty(0),
        y=np.hstack(ys) if ys else np.empty((y.size, 0), dtype=dtype),
        nfev=nfev, success=success,
        message=_REACHED_END if success else _TOO_SMALL_STEP,
        reached=float(t))


# Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009): for each
# Padé degree m the bound θ_m on the ‖A^k‖^(1/k), the coefficients b_j of
# p_m(x) = Σ b_j x^j (q_m(x) = p_m(−x)) and 1/|c_{2m+1}|, the reciprocal
# of the leading coefficient of the backward-error series that ℓ reads
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600.,
         670442572800., 33522128640., 1323241920., 40840800., 960960.,
         16380., 182., 1.)}
_C_RECIP = {3: 100800., 5: 10059033600., 7: 4487938430976000.,
            9: 5914384781877411840000.,
            13: 113250775606021113483283660800000000.}


def expm(a):
    """e^A of a square matrix, or of each matrix of a (K, n, n) stack.

    Scaling and squaring with Padé approximants, Algorithm 6.1 of Al-Mohy
    & Higham (2009), with exact 1-norms of the powers: each matrix gets its
    own degree and scaling (``_expm``), so a member of a stack equals its
    own 2-D call bit for bit.
    """
    a = np.asarray(a)
    if a.ndim == 2:
        return _expm(a)
    out = np.empty(a.shape, dtype=np.result_type(a, float))
    for k, member in enumerate(a):
        out[k] = _expm(member)
    return out


def _norm1(x):
    return np.abs(x).sum(axis=0).max()


def _ell(a, m):
    """ℓ(A, m): the extra squarings that keep the backward error of the
    degree-m approximant of A within the unit roundoff 2⁻⁵³, from the
    exact 1-norm of |A|^(2m+1) (computed for |A|/‖A‖₁, which cannot
    overflow)."""
    norm = _norm1(a)
    if norm == 0:
        return 0
    v = np.ones(len(a))
    scaled = np.abs(a) / norm
    for _ in range(2 * m + 1):
        v = v @ scaled
    power = v.max()
    if power == 0:
        return 0
    log_alpha = 2 * m * math.log2(norm) + math.log2(power) \
        - math.log2(_C_RECIP[m])
    return max(math.ceil((log_alpha + 53) / (2 * m)), 0)


def _expm(a):
    """e^A of one square matrix (``expm``).

    The least degree m of 3, 5 whose θ_m bounds max(‖A⁴‖^¼, ‖A⁶‖^⅙), or of
    7, 9 whose θ_m bounds max(‖A⁶‖^⅙, ‖A⁸‖^⅛), and whose ℓ(A, m) is 0;
    otherwise m = 13 on A/2ˢ, with the least s that brings the smaller of
    those two bounds and max(‖A⁸‖^⅛, ‖A¹⁰‖^⅒) within θ₁₃, plus ℓ(A/2ˢ, 13),
    and s squarings of the result.  A matrix with ‖A‖₁ above 2¹⁰⁰, whose
    powers up to A¹⁰ could overflow, is scaled to within θ₁₃ first and its
    exponential squared back; one that is not finite gives NaN.
    """
    norm = _norm1(a)
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=np.result_type(a, float))
    if norm > 2.0 ** 100:
        s = math.ceil(math.log2(norm / _THETA[13]))
        x = _expm(a * 2.0 ** -s)
        for _ in range(s):
            x = x @ x
        return x
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    d6 = _norm1(a6) ** (1 / 6)
    eta = max(_norm1(a4) ** (1 / 4), d6)
    for m in (3, 5):
        if eta <= _THETA[m] and _ell(a, m) == 0:
            return _pade(a, [a2, a4], m)
    a8 = a4 @ a4
    d8 = _norm1(a8) ** (1 / 8)
    eta = max(d6, d8)
    for m in (7, 9):
        if eta <= _THETA[m] and _ell(a, m) == 0:
            return _pade(a, [a2, a4, a6, a8], m)
    del a8
    eta = min(eta, max(d8, _norm1(a4 @ a6) ** (1 / 10)))
    s = max(math.ceil(math.log2(eta / _THETA[13])), 0) if eta > 0 else 0
    s += _ell(a * 2.0 ** -s, 13)
    if s:
        a = a * 2.0 ** -s
        a2 *= 2.0 ** (-2 * s)
        a4 *= 2.0 ** (-4 * s)
        a6 *= 2.0 ** (-6 * s)
    x = _pade(a, [a2, a4, a6], 13)
    for _ in range(s):
        x = x @ x
    return x


def _pade(a, even, m):
    """r_m(A) = q_m(A)⁻¹p_m(A) from A and its even powers [A², A⁴, …]: with
    U the odd and V the even part of p_m(A), q_m(A) = V − U, and r_m(A) is
    formed as I + 2(V − U)⁻¹U, so that the entries that are small next to
    the identity keep their own relative accuracy."""
    b = _PADE[m]
    eye = np.eye(len(a))
    if m == 13:
        a2, a4, a6 = even
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    else:
        powers = [eye, *even][:(m + 1) // 2]    # I, A², …, A^(m−1)
        u = a @ sum(b[2 * j + 1] * x for j, x in enumerate(powers))
        v = sum(b[2 * j] * x for j, x in enumerate(powers))
    v -= u
    x = np.linalg.solve(v, u)
    x *= 2.0
    x += eye
    return x


def grid_points(span, dt):
    """Points of the grid 0, dt, 2·dt, … that ends at or before ``span``
    (1e-9 steps of slack for spans that are whole steps up to rounding)."""
    return int(np.floor(span / dt + 1e-9)) + 1


def stack_chunk(dim, nt, row_bytes):
    """Members per ``_march`` stack for Hilbert dimension ``dim`` and
    ``nt`` stored times of ``row_bytes`` readout bytes each.

    Each member holds STACK_SUPEROPERATORS dim²×dim² complex matrices (L₀,
    D, the scaled L₀·Δt that expm reads and up to _CACHED_STEPS cached
    steps) and its readout (nt × row_bytes); a chunk keeps them within
    NODE_STACK_BYTES (but has at least one member).
    """
    member = 16 * STACK_SUPEROPERATORS * dim ** 4 + nt * row_bytes
    return max(1, NODE_STACK_BYTES // member)


def _march(systems, drives, times, row_bytes, start, read, t0=0.0,
           trace=None):
    """Each member's readout at ``times`` (increasing, all >= t0), in
    order, marched in ``_states`` stacks of ``stack_chunk`` members.

    Each chunk's L₀ and D come from one ``superoperators`` call, with the
    last pulse-driven member's drive for the pulse windows they share.
    ``start`` maps the chunk's (K, d², d²) L₀ to its (K, d², m) columns at
    t0.  ``read`` maps the columns at up to READ_BLOCK consecutive stored
    times, (K, n, d², m), to their readouts, (K, n, ...) of ``row_bytes``
    per member and time.  ``trace``, if given, takes Tr ρ from a chunk's
    readouts, which may drift from 1 by at most 1e-8.
    """
    chunk = stack_chunk(2 ** systems[0].n, len(times), row_bytes)
    last = len(times) - 1
    for lo in range(0, len(systems), chunk):
        part = drives[lo:lo + chunk]
        l0, d = superoperators(systems[lo:lo + chunk], part)
        timed = None if d is None else \
            [dr for dr in part if dr.is_pulse_driven][-1]
        y = start(l0)
        block = np.empty((len(y), READ_BLOCK) + y.shape[1:], dtype=complex)
        reads = None
        for i, x in enumerate(_states(l0, d, timed, y, t0, times)):
            j = i % READ_BLOCK
            block[:, j] = x
            if j == READ_BLOCK - 1 or i == last:
                got = read(block[:, :j + 1])
                if reads is None:
                    reads = np.empty(got.shape[:1] + times.shape
                                     + got.shape[2:], dtype=got.dtype)
                reads[:, i - j:i + 1] = got
        del l0, d, y, block
        if trace is not None:
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
    pulse windows, and the systems may differ only in their detunings
    (``superoperators`` refuses any other stack with ValueError).  Stacks
    longer than ``stack_chunk`` are marched in chunks of that size.

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
            systems, drives, t_grid, 16 * dim ** 2,
            lambda l0: np.repeat(rho0.reshape(1, -1, 1), len(l0), axis=0),
            lambda x: x[..., 0],
            trace=lambda s: s[..., ::dim + 1].sum(axis=-1).real), drives):
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
    march keeps Tr ρ, ⟨E_L†E_L⟩ and ⟨E_R†E_R⟩ per member and time, each
    Tr[op·ρ] the sum Σ_ij ρ_ij op_ji of one member and time, read for a
    block of stored times at once.
    """
    dim = 2 ** systems[0].n
    ops = [np.eye(dim), *(e.conj().T @ e for e in (
        field_operator(systems[0], p) for p in "LR"))]

    def read(states):
        rho = states.reshape(-1, dim, dim)
        sums = [np.real(np.einsum("kij,ji->k", rho, op)) for op in ops]
        return np.stack(sums, axis=-1).reshape(states.shape[:2] + (3,))

    rho0 = _as_matrix(basis_ket("g" * systems[0].n))
    for member in _march(
            systems, drives, t_grid, 3 * 8,
            lambda l0: np.repeat(rho0.reshape(1, -1, 1), len(l0), axis=0),
            read, trace=lambda reads: reads[..., 0]):
        yield {"left": np.maximum(member[:, 1], 0.0),
               "right": np.maximum(member[:, 2], 0.0)}


def steady_state(system, drive):
    """Unique steady state of ``system`` under the CW ``drive``."""
    if not drive.is_cw:
        raise ValueError("steady_state requires a CW drive")
    gen = LindbladGenerator(system, drive)
    return _null_state(gen.superoperator(), gen.dim)


def _null_state(l, dim):
    """Unique steady state of the constant generator ``l`` on C^dim.

    Every check is relative to the scale ‖L‖₂ (the largest singular
    value), so scaling all rates and the drive by λ leaves the decisions
    unchanged.  Uniqueness is certified by the second-smallest singular
    value s₋₂ exceeding 1e-11·‖L‖₂.  The null vector, phase-fixed by its
    trace, may carry an anti-Hermitian part of at most 1e-12·‖L‖₂/s₋₂ of
    its norm (the SVD accuracy) before it is symmetrized; the returned
    state has unit trace and satisfies max|L(ρ_ss)| ≤ 1e-12·‖L‖₂.
    """
    _, s, vh = np.linalg.svd(l)
    scale = s[0]
    if s[-2] <= 1e-11 * scale:
        raise DegenerateSteadyStateError(
            f"null space is degenerate (second singular value {s[-2]:.2e}, "
            f"‖L‖ {scale:.2e})")
    rho = vh[-1].conj().reshape(dim, dim)
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
    clipped: int = 0            # entries below -NEGATIVE_G_TOL·max|G|


def _trace_weight(op):
    """Row vector w with Tr[op·X] = w @ vec(X) for C-order vec."""
    return np.asarray(op).T.reshape(-1)


def _negative(raw):
    """Where ``raw`` lies below -NEGATIVE_G_TOL times the largest |G| of
    its result, so that the count does not depend on the rates' scale;
    ``raw`` is one result along τ, or (τ, K) with one result per column."""
    scale = np.maximum(raw.max(axis=0), -raw.min(axis=0))
    return raw < -NEGATIVE_G_TOL * scale


def _clip_correlations(tau, raw):
    clipped = int(np.sum(_negative(raw)))
    if clipped:
        warnings.warn(
            f"{clipped} correlation values below -{NEGATIVE_G_TOL:g}·max|G| "
            f"clipped to zero (min {raw.min():.3e})", RuntimeWarning)
    return CorrelationResult(tau=tau, values=np.clip(raw, 0.0, None),
                             clipped=clipped)


def two_time_correlation(system, drive, a_op, b_op, rho, tau_grid,
                         t_start=0.0):
    """G(τ) = Tr[B†B Λ_τ(A ρ A†)] via the quantum regression theorem.

    ``rho`` is the state at absolute time ``t_start`` (the steady state for
    CW problems).  Negative values beyond 1e-10 of the largest |G| are
    clipped with a warning and counted in the result.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid < 0) or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau_grid must be nonnegative and increasing")
    rho_m = _as_matrix(rho)
    seed = (a_op @ rho_m @ a_op.conj().T).reshape(1, -1, 1)
    w = _trace_weight(b_op.conj().T @ b_op)
    [g] = _march([system], [drive], t_start + tau_grid, 16,
                 lambda l0: seed, lambda x: x[..., 0] @ w, t0=t_start)
    return _clip_correlations(tau_grid, np.real(g))


def g2_cw(systems, drive, pairs=("LL", "RR", "LR", "RL"), tau_max=6.0,
          dt=0.005):
    """Steady-state g²_αβ(τ) for the requested port pairs.

    ``systems`` is one WaveguideSystem or a sequence of them sharing the
    CW drive, such as the detuning nodes of a noise average; they may
    differ only in their detunings (else ValueError), so one E_L, E_R
    serve all and one ``superoperators`` build serves each chunk of
    ``stack_chunk(dim, len(tau), 8·P)`` systems.  Each gets its own steady
    state; a chunk marches as one ``_march`` stack with the pairs' seeds as
    columns, and each delay keeps the P reals Tr[E_β†E_β·X_p] of pair p's
    column.

    Returns a dict with 'tau', per-pair normalized 'g2' (τ ≥ 0) and 'G2',
    steady intensities, and per-pair clip counts.  For a sequence every
    value carries a leading system axis; one system gives them without
    it.  Negative delays follow from g²_αβ(−τ) = g²_βα(τ).
    """
    single = isinstance(systems, WaveguideSystem)
    stack = [systems] if single else list(systems)
    if not drive.is_cw:
        raise ValueError("g2_cw requires a CW drive")
    tau = np.arange(grid_points(tau_max, dt)) * dt
    dim = 2 ** stack[0].n
    ops = {p: field_operator(stack[0], p) for p in "LR"}
    flux = {p: ops[p].conj().T @ ops[p] for p in "LR"}
    intens = {"L": [], "R": []}

    def start(l):
        seeds = np.empty((len(l), dim ** 2, len(pairs)), dtype=complex)
        for k in range(len(l)):
            rho_ss = _null_state(l[k], dim)
            for p in "LR":
                intens[p].append(
                    max(np.real(rho_ss.expectation(flux[p])), 0.0))
            seeds[k] = np.stack(
                [(ops[p[0]] @ rho_ss.matrix @ ops[p[0]].conj().T).reshape(-1)
                 for p in pairs], axis=1)
        return seeds

    weights = np.array([_trace_weight(flux[p[1]]) for p in pairs])
    raw = np.stack(list(_march(
        stack, [drive] * len(stack), tau, 8 * len(pairs), start,
        lambda x: np.real(np.einsum("pj,knjp->knp", weights, x)))), axis=1)
    intens = {p: np.array(v) for p, v in intens.items()}
    out = {"tau": tau, "intensity": intens, "g2": {}, "G2": {}, "clipped": {}}
    for j, pair in enumerate(pairs):
        res = _clip_correlations(tau, raw[:, :, j])
        denom = intens[pair[0]] * intens[pair[1]]
        if np.any(denom <= 0):
            raise NumericalError(f"zero steady flux for pair {pair}")
        out["G2"][pair] = res.values.T
        out["g2"][pair] = res.values.T / denom[:, None]
        out["clipped"][pair] = np.sum(_negative(raw[:, :, j]), axis=0)
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
    marches the identity through ``_states`` as one system of d² columns.
    """
    l0 = gen.static_superoperator
    eye = np.eye(len(l0), dtype=complex)[None]
    drive = gen.drive
    p_static = None
    mats = []
    for a, b in zip(t[:-1], t[1:]):
        if drive.pulse_windows(a, b):
            [phi] = _states(l0[None], gen.drive_part[None], drive, eye, a,
                            np.array([b]))
            mats.append(phi[0])
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
    PulsedG2Result.  All pairs share one set of step propagators and one
    march through the window, which steps ρ(t) and, per seed port α, a
    bank of the seeds E_α ρ(t_j) E_α† entered so far, reading G(t_j, t_k)
    for every t_j ≤ t_k; one far-window march per first port follows.

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
    pairs = [ports] if isinstance(ports, str) else list(dict.fromkeys(ports))
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
    nt = grid_points(window, dt)
    t = np.arange(nt) * dt
    mats = _step_matrices(gen, t)

    ops = {"L": field_operator(system, "L"), "R": field_operator(system, "R")}
    w_tr = {p: _trace_weight(ops[p].conj().T @ ops[p]) for p in "LR"}

    rho = _as_matrix(basis_ket("g" * system.n) if initial is None
                     else initial)
    rho_t = np.empty((nt, dim, dim), dtype=complex)
    rho_t[0] = rho
    # "αβ" -> map over t1 <= t2
    g_upper = {key: np.zeros((nt, nt)) for pair in pairs
               for key in (pair, pair[::-1])}
    # column j of port α's bank: E_α ρ(t_j) E_α† carried on to t_k
    live = {p: np.zeros((dim2, nt), dtype=complex)
            for p in sorted({q for pair in pairs for q in pair})}
    for k in range(nt):
        for p, bank in live.items():
            bank[:, k] = (ops[p] @ rho_t[k] @ ops[p].conj().T).reshape(-1)
        for (alpha, beta_), g in g_upper.items():
            g[:k + 1, k] = np.real(w_tr[beta_] @ live[alpha][:, :k + 1])
        if k < nt - 1:
            rho_t[k + 1] = (mats[k] @ rho_t[k].reshape(-1)).reshape(dim, dim)
            for bank in live.values():
                bank[:, :k + 1] = mats[k] @ bank[:, :k + 1]

    intensity = {p: np.maximum(
        np.real(np.einsum("tij,ji->t", rho_t, ops[p].conj().T @ ops[p])), 0.0)
        for p in "LR"}

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

    # each map's lower triangle, zero so far, is its reverse pair's upper
    # one transposed; the upper triangles are read only, so order is free
    for pair in pairs:
        same, reverse = g_upper[pair], g_upper[pair[::-1]]
        for i in range(1, nt):
            same[i, :i] = reverse[:i, i]
    results = {}
    for pair in pairs:
        same, diff = g_upper[pair], g_diff.pop(pair)
        tol = NEGATIVE_G_TOL * max(same.max(), -same.min(), diff.max(),
                                   -diff.min())
        n_neg = int(np.sum(same < -tol) + np.sum(diff < -tol))
        if n_neg:
            warnings.warn(f"{n_neg} map values below "
                          f"-{NEGATIVE_G_TOL:g}·max|G| clipped ({pair})",
                          RuntimeWarning)
        meta = {"ports": pair, "dt": dt, "window": window, "period": period,
                "separation_periods": separation_periods}
        results[pair] = PulsedG2Result(
            ports=pair, t=t,
            same=CorrelationMap(t, t, np.clip(same, 0.0, None, out=same),
                                "same_pulse", dict(meta)),
            different=CorrelationMap(t, t + separation_periods * period,
                                     np.clip(diff, 0.0, None, out=diff),
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
