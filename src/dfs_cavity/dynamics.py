"""No-jump propagation and quantum-jump trajectories.

Between emission events the state evolves with U_cond(t) = exp(-i H_cond t),
exact for the piecewise-constant schedules used here.  Every U_cond(t) psi
is one step of a (generator, advance) pair.  _dense_stepper holds H_cond
and its full-duration propagator, which a full-segment step applies
without an exponential; _taylor_stepper sums a truncated Taylor series of
degree 55 (algorithm 3.2 of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)) on a sparse H_cond built from its entry table and forms no
dim x dim matrix.  The schedule propagator steps with the dense pair up to
DENSE_MAX_DIM and the Taylor pair above it, the sampler with the dense
pair at every dim.  propagate_conditional, the single dense exponential,
also takes a stack of H_cond with one time per slice and exponentiates it
in one call, which keeps each slice's bytes.  The squared norm of the
unnormalized state is the probability that no photon has been emitted,
which is what trajectory sampling inverts: draw r uniform in (0, 1),
evolve until the norm falls to r, then apply a jump operator
sqrt(2*gamma)*sigma_i or sqrt(2*kappa)*b chosen with probability
proportional to its emission weight, each gathered from its entry table
(sigma_i within a photon block, b one block down).  That choice of jump
operators makes conditional evolution plus jumps exactly
trace-preserving on average, which the test suite checks against an
independent solution of the Lindblad master equation.  The sampler
bisects for the jump time with O(dim^2) eigen-probes
V (exp(-i lam t) * V^-1 psi), from H_cond = V diag(lam) V^-1 diagonalised
once per segment; a probe whose norm lies within a margin of the decision
boundary is recomputed with the dense step, so the jumps are the
ones exponential probes alone would give.  The margin grows with
cond_1(V), so ill-conditioned segments (up to cond_1(V) ~ 1e8 at an
exceptional point) take the same search and simply recompute more probes.
A regula falsi on the eigen-probes first brackets the jump time between
two probes that lie clear of the margin, and the bisection skips the
midpoints outside that bracket, whose decisions the norm's monotonicity
already fixes.  One search, _next_jump, decides what is left of a segment:
an eigen-probe at its end rules survival out without an exponential, or
else the dense step to its end (for a full segment, the cached
propagator) decides, and the bisection runs only if that says the state
does not survive.  What the sampler
precomputes for one (space, schedule), the segment steps and
eigensystems, the ground state's no-jump path and the channel tables,
is one cached, read-only sampler plan.  Every trajectory follows the
plan's no-jump path until the segment where its threshold is crossed, so
one that emits nothing costs a single draw and ends in the same no-jump
state psi0.  An ensemble keeps psi0, the survival fraction p0 and the
average rho_perp of the trajectories that emitted; its state is
p0 |psi0><psi0| + (1 - p0) rho_perp.  Its trajectory i draws from child i
of ``SeedSequence(seed).spawn(n)``; the children's seeding words are
computed in blocks of 65 536, and numpy's PCG64 seeds itself from each.

This is the package's one module that imports scipy (``scipy.linalg.expm``,
and ``scipy.sparse`` on a Taylor step); ``Schedule`` lives in
``hamiltonians`` and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import expm

from .hamiltonians import (Pulse, Schedule, _channel_entries, _conditional_entries,
                           conditional_hamiltonian)
from .hilbert import HilbertSpace, _read_only, check_budget

NORM_BISECTION_TOL = 1e-10
# An eigen-probe's squared norm is trusted to PROBE_MARGIN * cond_1(V) * dim * eps of the
# exponential's (see _eigensystem).  Measured misses, in cond_1(V) dim eps: up to 2 on the
# two-atom ensemble (||H t||_1 <= 300), 13 on segments with ||H t||_1 ~ 6500, and
# 0.52 / 0.62 / 0.12 / 0.08 / 0.02 on N = 2-6 ensembles (cond_1(V) up to 146).
PROBE_MARGIN = 64.0
# Largest dim the schedule propagator steps with the dense exponential: up to here its
# bytes were measured not to depend on the BLAS thread count, and at dim 128 they do.  It
# is not faster at every duration.  In process on a 2-vCPU Xeon, 1 BLAS thread, kappa 1,
# gamma 1e-3, n_max 3, alternating +-0.05, T + settle 10: a final state at dim 16-64 took
# 0.3-2.0 ms dense against 8-61 ms on the Taylor steps, but a 200-row grid at dim 64,
# whose rows inside a segment each form an expm, took 97 ms (T = 30) and 141 ms
# (T = 300) dense against 26 and 73 ms.
DENSE_MAX_DIM = 64
# Degree of the sparse step's Taylor series and theta_55, the largest ||t A||_1 / s of its s
# sub-steps that meets the backward-error tolerance for unit roundoff 2^-53 (Al-Mohy &
# Higham, SIAM J. Sci. Comput. 33, 488 (2011), table 3.1)
TAYLOR_DEGREE, TAYLOR_MAX_NORM = 55, 9.9
TAYLOR_TOL = 2.0 ** -53  # a step's series stops once two terms fall below this times ||F||
# A sub-step whose series term grows past this times its input is redone as two halves.
# The terms of a coherent one-atom rotation at ||h A||_1 = 9.8 reach 2.3e3 times the input
# before they cancel: two such steps missed the dense chain by 1.0e-12, in halves (terms
# below 25 times the input) by 7e-15.  The benchmark's steps stay below 1.0004.
TAYLOR_MAX_HUMP = 64.0
# Most sub-steps a Taylor step takes, so a runaway drive (Rabi 1e20 at N = 5 asks for 7.6e20)
# aborts instead of stepping on.  Desk runs took 32-92 (N = 5-12) and 5.1e5 (N = 5, Omega =
# 0.001, T = 5e5); at 0.31 ms a sub-step there (1 BLAS thread, 2-vCPU Xeon) that is 160 s
TAYLOR_MAX_SUBSTEPS = 2 ** 20
# Dense dim x dim matrices one expm(-1j * t * h) holds at its peak: its argument, seven
# Pade and solve arrays and its result (tracemalloc at dim 64-1024).  A segment's eig and
# inv hold at most 4.3 with V and V^-1 (peak RSS at dim 1024), so this is the largest
# transient of a plan's segment build and of a jump search.
EXPM_PEAK_MATRICES = 9
# Regula falsi steps _eigen_bracket takes at most; the bisection's result does not
# depend on them
BRACKET_ITERATIONS = 12
ENSEMBLE_CHUNK = 256  # trajectories summed per partial sum; fixes the summation order
# ENSEMBLE_CHUNKs whose children's seeding words are computed in one batch: 65 536 children,
# about 6.6 MB of transients, so an ensemble's seeding memory does not grow with n_samples
SEED_BLOCK_CHUNKS = 256
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), fixed by NEP 19
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_LOW32 = 0xFFFFFFFF


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One conditioned realization: jump record and normalized final state."""

    jumps: tuple[tuple[float, str], ...]
    final_state: np.ndarray


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Seeded trajectory ensemble: survival estimate and the two parts of its state.

    Every trajectory that emits no photon ends in ``no_jump_state``, the
    normalized conditioned state psi0 (a writeable copy of the cached one).
    ``rho_perp`` is the average over trajectories that emitted at least one
    photon (None if every sample survived).  The ensemble state is
    p0 |psi0><psi0| + (1 - p0) rho_perp.
    """

    p0_estimate: float
    no_jump_state: np.ndarray
    n_samples: int
    seed: int
    rho_perp: np.ndarray | None
    jump_records: tuple[tuple[int, float, str], ...]

    @property
    def stderr(self) -> float:
        """Binomial standard error of the survival estimate."""
        p = self.p0_estimate
        return float(np.sqrt(p * (1.0 - p) / self.n_samples))


def propagate_conditional(h_cond: np.ndarray, state: np.ndarray,
                          t: float | np.ndarray) -> np.ndarray:
    """U_cond(t) applied to the state; the returned vector is unnormalized.

    Also takes a stack: ``h_cond`` of shape (..., dim, dim) with ``t`` of
    shape (...) returns the (..., dim) states exp(-i t_k H_k) state from
    one ``expm`` call; a single H_cond with a scalar time is the stack of
    shape ().  scipy runs the single-matrix code on every slice and each
    slice is scaled by the Python complex -1j * t_k, so slice k holds the
    bytes of the call on (H_k, state, t_k).  Raises ValueError
    for a negative or non-finite time, or a ``t`` whose shape is not the
    stack's.
    """
    times = np.asarray(t, dtype=float)
    if not np.isfinite(times).all() or (times < 0).any():
        raise ValueError(f"propagation times must be finite and >= 0, got {t}")
    if h_cond.shape[-2:] != (state.shape[0], state.shape[0]):
        raise ValueError("Hamiltonian and state dimensions disagree")
    if times.shape != h_cond.shape[:-2]:
        raise ValueError(f"times of shape {times.shape} for a stack of shape "
                         f"{h_cond.shape[:-2]}")
    scales = np.array([-1j * tk for tk in times.ravel().tolist()]).reshape(times.shape)
    return expm(scales[..., None, None] * h_cond) @ state


def propagate_schedule(space: HilbertSpace, schedule: Schedule,
                       times: np.ndarray | None = None) -> np.ndarray:
    """No-emission evolution of the ground state through the schedule.

    Returns the unnormalized final state or, given finite non-decreasing
    ``times`` inside the schedule span (else ValueError), one row per
    time.  Each segment end is reached one way: one step of the segment's
    full duration from its start state.  Rows are read off the walk and
    never feed it: the rows inside a segment step from that start state
    from row to row, taking times as offsets from the segment's start, and
    a row at a segment end (or up to 1e-12 past it) is the state there.
    So the final state, and every row at a segment end, has the same bytes
    whichever rows were asked for.  The steps are _dense_stepper's up to
    DENSE_MAX_DIM, the sampler's own, so a row at a segment end also has
    the bytes of its no-jump state, and _taylor_stepper's above, within
    1e-12 of the dense exponential.  Raises DeskScaleError, before
    it allocates them, when the rows exceed DENSE_BUDGET_BYTES,
    ArithmeticError when the state at the schedule end is not finite or
    its squared norm underflows to zero, and ValueError (from the H_cond
    builder) when the schedule drives another atom count than the space
    holds.
    """
    generator, advance = (_dense_stepper if space.dim <= DENSE_MAX_DIM else _taylor_stepper)(space)
    grid = np.asarray([] if times is None else times, dtype=float)
    if times is not None and (grid.ndim != 1 or not grid.size or not np.isfinite(grid).all()
                              or grid[0] < 0 or np.any(np.diff(grid) < 0)
                              or grid[-1] > schedule.total_duration + 1e-12):
        raise ValueError("times must be finite, non-decreasing and lie within the schedule span")
    check_budget(f"{grid.size} rows of {space.dim} complex amplitudes",
                 16 * grid.size * space.dim)
    out = np.empty((grid.size, space.dim), dtype=complex)
    psi, end, k = space.ground_state(), 0.0, 0
    for seg in schedule.segments:
        gen, row, at, start, end = generator(seg), psi, 0.0, end, end + seg.duration
        psi = advance(gen, psi, seg.duration)
        while k < grid.size and grid[k] <= end + 1e-12:
            t = grid[k] - start
            row, at = (psi, t) if grid[k] >= end else (advance(gen, row, t - at), t)
            out[k], k = row, k + 1
    _check_final_state(psi)
    return psi if times is None else out


def _check_final_state(psi: np.ndarray | None) -> None:
    """ArithmeticError unless the no-jump final state is finite and nonzero (None: zero)."""
    norm = 0.0 if psi is None else np.vdot(psi, psi).real
    if not np.isfinite(norm):
        raise ArithmeticError("conditional state is not finite: the propagation overflowed")
    if not norm > 0:
        raise ArithmeticError("conditional state vanished entirely")


def _dense_stepper(space: HilbertSpace):
    """(generator, advance) pair stepping exp(-i H_cond t) psi with the dense exponential.

    Per segment, ``generator`` returns the read-only H_cond and U =
    expm(-1j * duration * H_cond), and the duration.  ``advance`` applies U
    when t is the duration, so a full-segment step forms no exponential,
    else expm(-1j * t * H_cond); either has propagate_conditional's bytes.
    """
    def generator(seg: Pulse) -> tuple[np.ndarray, np.ndarray, float]:
        h = conditional_hamiltonian(space, seg)
        return _read_only(h), _read_only(expm(-1j * seg.duration * h)), seg.duration

    def advance(gen: tuple[np.ndarray, np.ndarray, float], psi: np.ndarray,
                t: float) -> np.ndarray:
        h, u, duration = gen
        return (u if t == duration else expm(-1j * t * h)) @ psi

    return generator, advance


def _taylor_stepper(space: HilbertSpace):
    """(generator, advance) pair stepping exp(-i H_cond t) psi with a truncated Taylor series.

    Algorithm 3.2 of Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488 (2011)).
    Per segment, ``generator`` builds the CSR a = -i H_cond from the entry
    table, the shift mu = trace(a) / dim, the CSR A = a - mu I and its exact
    1-norm, and returns (a, A, mu, ||A||_1); a is what the tests compare
    with the dense H_cond.  Per step, ``advance`` takes
    s = ceil(||t A||_1 / TAYLOR_MAX_NORM) sub-steps of h = t / s and in each
    sums the terms (h / j) A b up to degree TAYLOR_DEGREE, stopping early
    once two consecutive terms fall below TAYLOR_TOL times the partial sum
    (infinity norms), then scales the sum by exp(h mu).  A sub-step whose
    term exceeds TAYLOR_MAX_HUMP times its input is redone as two sub-steps
    of h / 2, each checked the same way.  A step whose s exceeds
    TAYLOR_MAX_SUBSTEPS raises ArithmeticError before its first sub-step.
    No norm is estimated, so numpy's global RNG is never drawn from.  A step
    whose exponent t A and t mu are both zero returns the state itself.
    """
    # imported on first use, so a process that never steps here does not load scipy.sparse
    from scipy.sparse import csr_array, eye_array

    identity = eye_array(space.dim, dtype=complex, format="csr")

    def generator(seg: Pulse) -> tuple[csr_array, csr_array, complex, float]:
        rows, cols, values = _conditional_entries(space, seg)
        keep = values != 0  # csr_array(-1j * H_cond)'s bytes: no zeros, int32, sorted rows
        ij = rows[keep].astype(np.int32), cols[keep].astype(np.int32)
        a = csr_array((-1j * values[keep], ij), shape=(space.dim, space.dim))
        mu = complex(a.trace()) / space.dim
        shifted = a - mu * identity
        return a, shifted, mu, float(abs(shifted).sum(axis=0).max())

    def substep(shifted: csr_array, mu: complex, psi: np.ndarray, h: float) -> np.ndarray:
        f = b = psi
        c1 = np.abs(psi).max()
        limit = TAYLOR_MAX_HUMP * c1
        for j in range(1, TAYLOR_DEGREE + 1):
            b = (h / j) * (shifted @ b)
            c2 = np.abs(b).max()
            if c2 > limit:
                return substep(shifted, mu, substep(shifted, mu, psi, h / 2), h / 2)
            f = f + b
            if c1 + c2 <= TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
        return np.exp(h * mu) * f

    def advance(gen: tuple[csr_array, csr_array, complex, float], psi: np.ndarray,
                t: float) -> np.ndarray:
        _, shifted, mu, norm = gen
        if not (t * norm or t * mu):
            return psi
        if not t * norm <= TAYLOR_MAX_SUBSTEPS * TAYLOR_MAX_NORM:
            raise ArithmeticError(f"a Taylor step of 1-norm {t * norm:.3g} has too many sub-steps")
        s = max(1, math.ceil(t * norm / TAYLOR_MAX_NORM))
        for _ in range(s):
            psi = substep(shifted, mu, psi, t / s)
        return psi

    return generator, advance


@dataclass(frozen=True, eq=False)
class _SamplerPlan:
    segments: tuple[tuple, ...]  # (step(psi, t) = U(t) psi, duration, eigensystem)
    starts: tuple[np.ndarray, ...]  # no-jump state entering each segment
    offsets: tuple[float, ...]  # schedule time at which each segment starts
    end_norms: tuple[float, ...]  # no-jump squared norm at each segment end; inf if duration 0
    psi0: np.ndarray | None  # normalized no-jump end state; None if it vanished, NaN if not finite
    channels: tuple[tuple[str, ...], tuple[tuple, ...]]  # labels, (rows, cols, values) each


@lru_cache(maxsize=16)
def _sampler_plan(space: HilbertSpace, schedule: Schedule) -> _SamplerPlan:
    """What the sampler precomputes for one schedule: segments, no-jump path, channels.

    Each segment holds its _dense_stepper step, at every dim, and H_cond's
    eigensystem.  The no-jump path of the ground state is walked with those
    steps; a segment of zero duration leaves the state as it is.  The
    channels are the entry tables of ``_channel_entries``.  Cached; every
    array is read-only.  Raises DeskScaleError, before it builds anything,
    when its dense matrices (per segment H_cond, its propagator, V and
    V^-1) and the EXPM_PEAK_MATRICES of one exponential exceed
    DENSE_BUDGET_BYTES, and ValueError (from conditional_hamiltonian) when
    the schedule drives another atom count than the space holds.
    """
    check_budget("a sampler plan", 16 * (4 * len(schedule.segments) + EXPM_PEAK_MATRICES)
                 * space.dim * space.dim)
    generator, advance = _dense_stepper(space)
    segments, starts, offsets, end_norms = [], [], [], []
    psi, t_offset = space.ground_state(), 0.0
    for seg in schedule.segments:
        gen = generator(seg)
        step = partial(advance, gen)
        segments.append((step, seg.duration, _eigensystem(gen[0])))
        starts.append(_read_only(psi))
        offsets.append(t_offset)
        if seg.duration > 0:
            psi = step(psi, seg.duration)
        end_norms.append(np.vdot(psi, psi).real if seg.duration > 0 else np.inf)
        t_offset += seg.duration
    psi0 = None if np.vdot(psi, psi).real == 0 else _read_only(psi / np.linalg.norm(psi))
    labels, tables = _channel_entries(space)
    tables = tuple(tuple(map(_read_only, table)) for table in tables)
    return _SamplerPlan(tuple(segments), tuple(starts), tuple(offsets), tuple(end_norms), psi0,
                        (labels, tables))


def _eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(lam, V, V^-1, delta) with h = V diag(lam) V^-1; the arrays are read-only.

    delta = PROBE_MARGIN * cond_1(V) * dim * eps is the margin within which
    an eigen-probe's squared norm is not trusted: 1e-12 at N = 2 and
    2e-11 to 5e-10 at N = 4-6 (``n_max = 3``), 8e-6 at the one-atom
    exceptional point.  A singular V (V^-1 is then NaN) or any non-finite
    value gives delta = inf, so that every probe takes the exponential.
    """
    lam, v = np.linalg.eig(h)
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        v_inv = np.full_like(v, np.nan)
    # the condition number from 1-norms: np.linalg.cond's SVD pages in more of LAPACK
    cond = np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1)
    delta = PROBE_MARGIN * cond * h.shape[0] * np.finfo(float).eps
    if not (np.isfinite(delta) and np.isfinite(lam).all()):
        delta = np.inf
    return _read_only(lam), _read_only(v), _read_only(v_inv), delta


def _draw_threshold(rng: np.random.Generator) -> float:
    r = rng.random()
    while r == 0.0:
        r = rng.random()
    return r


def _next_jump(step, eig: tuple, psi: np.ndarray, r: float,
               t_max: float) -> tuple[float | None, np.ndarray]:
    """(tau, U(tau) psi) at the tau in (0, t_max] where ||U(tau) psi||^2 crosses r.

    A state that outlives t_max returns (None, U(t_max) psi).  ``step(psi,
    t)`` is the segment's dense step U(t) psi (see _dense_stepper), which
    reads its cached propagator when t_max is the full segment.  An
    eigen-probe V (exp(-i lam t_max) * V^-1 psi) from ``eig`` (see
    _eigensystem) decides first: one more than NORM_BISECTION_TOL + delta
    below r cannot come from a norm above r, so no exponential is formed.
    Otherwise the step to t_max decides.
    The norm is non-increasing along the conditional evolution, so 200
    halvings reach |norm^2 - r| <= 1e-10; if not, raise ArithmeticError.
    Each halving's probe not farther than NORM_BISECTION_TOL + delta from
    r (NaN and delta = inf included) is recomputed with the exponential,
    which then decides.  Every decision, and so the result, is the one
    exponential probes alone would give.  The halvings replay from the
    bracket (a, b) of _eigen_bracket: a midpoint at or below a is decided
    "later" and one at or above b "earlier" without a probe, the
    decisions any probe there would make.  A jump costs about 11-15
    eigen-probes (11.19 at N = 2, 11.84 at N = 4) and 1.5 / 1.9 / 1.9 /
    2.3 / 3.3 exponentials at N = 2 / 3 / 4 / 5 / 6 (``n_max = 3``): the
    deciding one, those of other midpoints inside the margin, and the one
    at t_max of the rest of the segment after the jump, unless its
    eigen-probe rules survival out.
    """
    lam, v, v_inv, delta = eig
    coeffs = v_inv @ psi
    trusted = NORM_BISECTION_TOL + delta
    end = _eigen_probe(lam, v, coeffs, t_max)
    n_end = np.vdot(end, end).real
    if not n_end - r < -trusted:
        survivor = step(psi, t_max)
        if np.vdot(survivor, survivor).real > r:
            return None, survivor
    a, b = _eigen_bracket(lam, v, coeffs, np.vdot(psi, psi).real, n_end, r, t_max,
                          trusted + 2.0 * delta)
    lo, hi = 0.0, t_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
            continue
        if mid >= b:
            hi = mid
            continue
        cand = _eigen_probe(lam, v, coeffs, mid)
        val = np.vdot(cand, cand).real - r
        if not abs(val) > trusted:
            cand = step(psi, mid)
            val = np.vdot(cand, cand).real - r
        if abs(val) <= NORM_BISECTION_TOL:
            break
        if val > 0:
            lo = mid
        else:
            hi = mid
    else:
        raise ArithmeticError(f"jump-time bisection did not reach norm^2 = {r} in (0, {t_max}]")
    return mid, cand


def _eigen_bracket(lam: np.ndarray, v: np.ndarray, coeffs: np.ndarray, norm0: float,
                   norm_max: float, r: float, t_max: float, s: float) -> tuple[float, float]:
    """Times a < b in (0, t_max] where eigen-probes put norm^2 - r above s and below -s.

    norm0 is the squared norm at time 0 and norm_max the eigen-probe's at
    t_max, which is not probed again.  Pegasus regula falsi (Dowell &
    Jarratt, BIT 12, 503 (1972)) on log(norm^2 / r), which is close to
    linear where the norm decays exponentially, finds a time t* whose
    probe lies within s of r; t* -+ 1.25 (s + |norm^2(t*) - r|) / |slope|
    are probed next, the slope being r times the log secant of the last
    bracket, and a side left unverified is probed once more 8x farther
    out.  Of all the probes, the latest one above r + s gives a and the
    earliest one below r - s gives b; a side that none verified is -inf or
    inf.  With s = NORM_BISECTION_TOL + 3 delta and a probe missing the
    exponential by at most delta, the exponential puts the norm more than
    the tolerance above r at every time up to a and below it from b on.
    """
    a, b = -np.inf, np.inf
    if not s < np.inf:
        return a, b

    def verify(t, norm):
        nonlocal a, b
        if norm - r > s:
            a = max(a, t)
        elif norm - r < -s:
            b = min(b, t)
        return norm

    def probe(t):
        cand = _eigen_probe(lam, v, coeffs, t)
        return verify(t, np.vdot(cand, cand).real)

    def log_ratio(norm):
        return math.log(norm / r) if norm > 0 else -np.inf

    lo, n_lo, hi, n_hi = 0.0, norm0, t_max, verify(t_max, norm_max)
    g_lo, g_hi, side, root = log_ratio(n_lo), log_ratio(n_hi), 0, None
    for _ in range(BRACKET_ITERATIONS):
        if not g_lo > 0 > g_hi > -np.inf:
            break
        t = hi - g_hi * ((hi - lo) / (g_hi - g_lo))
        if not lo < t < hi:
            break
        n_t = probe(t)
        if not abs(n_t - r) > s:
            root = t
            break
        g_t = log_ratio(n_t)
        if n_t > r:
            if side > 0:
                g_hi *= g_lo / (g_lo + g_t)
            lo, n_lo, g_lo, side = t, n_t, g_t, 1
        else:
            if side < 0:
                g_lo *= g_hi / (g_hi + g_t)
            hi, n_hi, g_hi, side = t, n_t, g_t, -1
    if root is not None:
        # r times the log secant slope approximates |d norm^2 / dt| near the root
        slope = r * (log_ratio(n_lo) - log_ratio(n_hi)) / (hi - lo)
        step = 1.25 * (s + abs(n_t - r)) / slope
        for _ in range(2):  # a side the first pair left unverified gets one 8x wider try
            if 0.0 < root - step and a < root - step:
                probe(root - step)
            if root + step < t_max and root + step < b:
                probe(root + step)
            step *= 8.0
    return a, b


def _eigen_probe(lam: np.ndarray, v: np.ndarray, coeffs: np.ndarray, t: float) -> np.ndarray:
    """V (exp(-i lam t) * coeffs): U_cond(t) psi for coeffs = V^-1 psi, in O(dim^2)."""
    return v @ (np.exp(-1j * t * lam) * coeffs)


def sample_trajectory(space: HilbertSpace, schedule: Schedule, seed,
                      initial_state: np.ndarray | None = None) -> Trajectory:
    """One quantum-jump realization of the schedule (waiting-time algorithm).

    Identical seeds reproduce identical jump records and final states
    bit-exactly.  ``seed`` may be an int, a numpy SeedSequence or a numpy
    Generator, which is drawn from as it stands (``run_ensemble`` passes
    each child's own Generator).  From
    the ground state, the trajectory follows the plan's no-jump path up to
    the first segment whose end norm is not above its threshold; one that
    never reaches such a segment returns psi0 without a product.  The
    plan raises DeskScaleError over DENSE_BUDGET_BYTES.
    """
    plan = _sampler_plan(space, schedule)
    rng = np.random.default_rng(seed)
    if initial_state is None:
        r = _draw_threshold(rng)
        first = next((k for k, end in enumerate(plan.end_norms) if not end > r), None)
        if first is None:
            return Trajectory((), plan.psi0.copy())
        psi, t_offset = plan.starts[first], plan.offsets[first]
    else:
        if abs(np.linalg.norm(initial_state) - 1.0) > 1e-9:
            raise ValueError("initial state must be normalized")
        psi = np.asarray(initial_state, dtype=complex).copy()
        r = _draw_threshold(rng)
        first, t_offset = 0, 0.0
    labels, tables = plan.channels
    jumps: list[tuple[float, str]] = []
    for step, duration, eig in plan.segments[first:]:
        elapsed = 0.0
        while elapsed < duration:
            tau, psi_at = _next_jump(step, eig, psi, r, duration - elapsed)
            if tau is None:
                psi = psi_at
                break
            emitted = []
            for rows, cols, values in tables:  # the dense product's bytes: one entry per row
                emitted.append(np.zeros_like(psi_at))
                emitted[-1][rows] = values * psi_at[cols]
            weights = np.array([np.vdot(e, e).real for e in emitted])
            total = weights.sum()
            if not total > 0:
                raise RuntimeError("norm decayed with no open emission channel")
            pick = min(int(np.searchsorted(np.cumsum(weights) / total, rng.random(),
                                           side="right")), len(tables) - 1)
            psi = emitted[pick] / np.linalg.norm(emitted[pick])
            jumps.append((t_offset + elapsed + tau, labels[pick]))
            if len(jumps) > 100_000:
                raise RuntimeError("jump count safeguard exceeded")
            advanced = elapsed + tau
            if advanced <= elapsed:  # guard against a zero-width float step
                advanced = np.nextafter(elapsed, np.inf)
            elapsed = min(advanced, duration)
            r = _draw_threshold(rng)
        t_offset += duration
    return Trajectory(tuple(jumps), psi / np.linalg.norm(psi))


def _child_seed_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """Row k: ``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)``, i = indices[k].

    The words numpy's PCG64 seeds child i with, from one pass over arrays:
    SeedSequence mixes the seed's 32-bit words (zero-padded to the four-word
    pool) before the spawn key's, so every child starts from the parent's
    ``pool`` and hash constants; the key's words (one, or two for i >= 2^32)
    are mixed into each pool word, and eight words are drawn from the pool.
    Raises what ``SeedSequence(seed)`` raises.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    pool = np.tile(np.random.SeedSequence(seed).pool, (idx.size, 1))
    seed_words = max(4, -(-int(seed).bit_length() // 32))
    # hash constant after the parent's hashmix calls: 4 to fill the pool, 12 to mix it
    # and 4 per seed word beyond the fourth
    hash_const = _HASH_INIT_A * pow(_HASH_MULT_A, 4 * seed_words, 1 << 32) & _LOW32
    for word, rows in ((idx & _LOW32, slice(None)), (idx >> 32, idx > _LOW32)):
        key = word[rows].astype(np.uint32)
        for dst in range(4):
            hashed = key ^ np.uint32(hash_const)
            hash_const = hash_const * _HASH_MULT_A & _LOW32
            hashed *= np.uint32(hash_const)
            hashed ^= hashed >> 16
            mixed = np.uint32(_MIX_MULT_L) * pool[rows, dst] - np.uint32(_MIX_MULT_R) * hashed
            pool[rows, dst] = mixed ^ (mixed >> 16)
    # generate_state(4, np.uint64): eight 32-bit words cycled from the pool
    state_words = np.empty((idx.size, 8), dtype=np.uint32)
    hash_const = _HASH_INIT_B
    for dst in range(8):
        drawn = pool[:, dst % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & _LOW32
        drawn *= np.uint32(hash_const)
        state_words[:, dst] = drawn ^ (drawn >> 16)
    # read little-endian, as generate_state does, then in the native byte order
    return state_words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@dataclass
class _SeedWords(np.random.bit_generator.ISeedSequence):
    """One child's row of _child_seed_words, handed to numpy's PCG64 as its seed sequence."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words are four uint64, not {n_words} {np.dtype(dtype)}")
        return self.words


def run_ensemble(space: HilbertSpace, schedule: Schedule, n_samples: int,
                 seed: int) -> EnsembleResult:
    """Sample n_samples seeded trajectories from the ground state.

    The dense matrices it holds (per segment H_cond, its propagator, V and
    V^-1; two partial sums of rho_perp; the channels are entry tables) and
    the EXPM_PEAK_MATRICES of the exponential a jump search forms raise
    DeskScaleError over DENSE_BUDGET_BYTES, before any is allocated.  The
    sampler plan is built next, so a schedule under which the no-jump
    state vanishes or is not finite raises ArithmeticError before any
    sampling.  Trajectory i draws from ``SeedSequence(seed).spawn(n)[i]``:
    the children's seeding words are computed SEED_BLOCK_CHUNKS *
    ENSEMBLE_CHUNK at a time (_child_seed_words), so the seeding memory
    does not grow with n_samples, and each seeds numpy's own PCG64 through
    _SeedWords.  The outer products of the trajectories that emitted are
    summed per chunk of ENSEMBLE_CHUNK trajectories and the chunk sums are
    then added in order.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    check_budget("a trajectory ensemble",
                 16 * (4 * len(schedule.segments) + 2 + EXPM_PEAK_MATRICES)
                 * space.dim * space.dim)
    plan = _sampler_plan(space, schedule)
    _check_final_state(plan.psi0)
    perp_sum = np.zeros((space.dim, space.dim), dtype=complex)
    survived = 0
    records: list[tuple[int, float, str]] = []
    block = SEED_BLOCK_CHUNKS * ENSEMBLE_CHUNK
    for start in range(0, n_samples, ENSEMBLE_CHUNK):
        if start % block == 0:
            words = _child_seed_words(seed, np.arange(start, min(start + block, n_samples)))
        chunk_perp = np.zeros_like(perp_sum)
        for idx, child in enumerate(words[start % block:start % block + ENSEMBLE_CHUNK], start):
            rng = np.random.Generator(np.random.PCG64(_SeedWords(child)))
            traj = sample_trajectory(space, schedule, rng)
            if not traj.jumps:
                survived += 1
            else:
                chunk_perp += np.outer(traj.final_state, traj.final_state.conj())
                records.extend((idx, t, chan) for t, chan in traj.jumps)
        perp_sum += chunk_perp
    jumped = n_samples - survived
    rho_perp = 0.5 * (perp_sum + perp_sum.conj().T) / jumped if jumped else None
    return EnsembleResult(survived / n_samples, plan.psi0.copy(), n_samples, seed, rho_perp,
                          tuple(records))
