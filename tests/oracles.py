"""Independent reference constructions shared by the tests.

Everything here is written out from scratch (explicit matrix elements,
explicit product states, series expansions, black-box ODE integration)
so the package paths are checked against genuinely independent
arithmetic rather than against themselves.  The inverse flat index and
configuration bitstrings, the pair-basis amplitude equations, the
exact-exponential Lindblad evolution, the standard-tableau singlet
products built term by term, the greedy all-pairings trapped basis, the
loop- and product-built operators and jump channels, the
dense-exponential schedule chain and quantum-jump sampler, the trajectory ensemble over
numpy-spawned child seeds, the slow model's propagator
and amplitudes, the sweep row built point by point, the no-emission
probability and conditioned state of one propagation, the
trapped-subspace projector and a few operator helpers that only the
tests use live here as well.
"""

import itertools
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dfs_cavity import (DfsBasis, EnsembleResult, HilbertSpace, Pulse, Schedule, SlowModel,
                        SystemParams, Trajectory, atomic_lowering, build_slow_model,
                        build_space, conditional_hamiltonian, dfs_basis,
                        entangling_pulse_duration, omega_pm, p0_closed_form,
                        propagate_conditional, sample_trajectory)
from dfs_cavity.analytic import _sin_over_s
from dfs_cavity.dfs import RANK_TOL
from dfs_cavity.dynamics import ENSEMBLE_CHUNK, NORM_BISECTION_TOL
from dfs_cavity.hamiltonians import _check_pulse

PAIR_INDEX = {"g": 0, "a": 1, "s": 2, "e": 3}

# single-pair states over the 2-atom config integer (first atom = MSB)
_PAIR_KET = {
    "g": np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
    "a": np.array([0.0, -1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0),
    "s": np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0),
    "e": np.array([0.0, 0.0, 0.0, 1.0], dtype=complex),
}


def pair_vector(space, n, x):
    """|n, x> for two atoms, x in 'gase', embedded in the composite space."""
    vec = np.zeros(space.dim, dtype=complex)
    vec[4 * n: 4 * n + 4] = _PAIR_KET[x]
    return vec


def pair_ladder_matrix(n_max, g, kappa, gamma, omega1, omega2):
    """Conditional generator written out rung by rung in the pair basis.

    Index 4n + k with k ordered (g, a, s, e).  The cavity ladder couples
    |n+1 g> <-> |n s| and |n+1 s> <-> |n e| with strength sqrt(2(n+1)) g
    (coupling element -i sqrt(2(n+1)) g on the raising side, +i on the
    lowering side), the drive couples g<->s and s<->e with W+ and g<->a,
    a<->e (with a sign flip) with W-, and the diagonal carries the decay
    rates -i(gamma + n kappa), -i(2 gamma + n kappa), -i n kappa.
    """
    wp = (omega1 + omega2) / (2.0 * np.sqrt(2.0))
    wm = (omega1 - omega2) / (2.0 * np.sqrt(2.0))
    dim = 4 * (n_max + 1)
    h = np.zeros((dim, dim), dtype=complex)

    def idx(n, x):
        return 4 * n + PAIR_INDEX[x]

    for n in range(n_max + 1):
        if n < n_max:
            c = np.sqrt(2.0 * (n + 1)) * g
            h[idx(n + 1, "g"), idx(n, "s")] = -1j * c
            h[idx(n, "s"), idx(n + 1, "g")] = +1j * c
            h[idx(n + 1, "s"), idx(n, "e")] = -1j * c
            h[idx(n, "e"), idx(n + 1, "s")] = +1j * c
        h[idx(n, "g"), idx(n, "s")] += wp
        h[idx(n, "s"), idx(n, "g")] += np.conj(wp)
        h[idx(n, "s"), idx(n, "e")] += wp
        h[idx(n, "e"), idx(n, "s")] += np.conj(wp)
        h[idx(n, "g"), idx(n, "a")] += wm
        h[idx(n, "a"), idx(n, "g")] += np.conj(wm)
        h[idx(n, "a"), idx(n, "e")] += -wm
        h[idx(n, "e"), idx(n, "a")] += -np.conj(wm)
        h[idx(n, "g"), idx(n, "g")] += -1j * n * kappa
        h[idx(n, "a"), idx(n, "a")] += -1j * (gamma + n * kappa)
        h[idx(n, "s"), idx(n, "s")] += -1j * (gamma + n * kappa)
        h[idx(n, "e"), idx(n, "e")] += -1j * (2.0 * gamma + n * kappa)
    return h


def basis_labels(space: HilbertSpace, flat: int) -> tuple[int, int]:
    """Inverse of ``space.flat_index``: returns (photon_number, atomic_config)."""
    if not 0 <= flat < space.dim:
        raise ValueError(f"flat index {flat} outside [0, {space.dim})")
    return divmod(flat, space.n_configs)


def config_string(space: HilbertSpace, atomic_config: int) -> str:
    """Bitstring of a configuration, atom 1 leftmost."""
    return format(atomic_config, f"0{space.n_atoms}b")


def four_atom_state(x12, y34):
    """Product of pair states on atoms (1,2) and (3,4); length-16 config vector."""
    return np.kron(_PAIR_KET[x12], _PAIR_KET[y34])


def four_atom_trapped_states():
    """The six orthonormal trapped configurations of four atoms.

    Order: gg, ga, ag, aa, x1 = (sg - gs)/sqrt(2),
    x2 = (eg + ge - ss)/sqrt(3).
    """
    gg = four_atom_state("g", "g")
    ga = four_atom_state("g", "a")
    ag = four_atom_state("a", "g")
    aa = four_atom_state("a", "a")
    x1 = (four_atom_state("s", "g") - four_atom_state("g", "s")) / np.sqrt(2.0)
    x2 = (four_atom_state("e", "g") + four_atom_state("g", "e")
          - four_atom_state("s", "s")) / np.sqrt(3.0)
    return {"gg": gg, "ga": ga, "ag": ag, "aa": aa, "x1": x1, "x2": x2}


def tableau_pairings(n_atoms: int, n_pairs: int):
    """Column pairs of the two-row standard Young tableaux of shape (N - n, n).

    The lower row b_1 < ... < b_n runs over combinations in lexicographic
    order; the upper row a_1 < a_2 < ... holds the remaining atoms.  The
    filling is standard iff a_k < b_k for every k; the pairs (a_k, b_k)
    then come out sorted.  There are dicke_degeneracy(N, N/2 - n) of them.
    """
    atoms = range(1, n_atoms + 1)
    for lower in itertools.combinations(atoms, n_pairs):
        upper = [a for a in atoms if a not in lower]
        if all(a < b for a, b in zip(upper, lower)):
            yield tuple(zip(upper, lower))


def singlet_product(n_atoms: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Atomic-sector vector: singlets on ``pairs``, all other atoms ground."""
    vec = np.zeros(1 << n_atoms, dtype=complex)
    amp = 2.0 ** (-len(pairs) / 2.0)
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        bits = 0
        sign = 1.0
        for (i, j), c in zip(pairs, choice):
            excited = i if c == 0 else j
            if c == 1:
                sign = -sign
            bits |= 1 << (n_atoms - excited)
        vec[bits] += sign * amp
    return vec


def _pairings(atoms: tuple[int, ...], n_pairs: int):
    """All ways to pick n_pairs disjoint ordered pairs (i < j), lexicographic.

    Atoms left over stay unpaired, so the leading atom is first matched
    with every later partner and then skipped entirely.
    """
    if n_pairs == 0:
        yield ()
        return
    if len(atoms) < 2 * n_pairs:
        return
    first, rest = atoms[0], atoms[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for sub in _pairings(remaining, n_pairs - 1):
            yield ((first, partner),) + sub
    yield from _pairings(rest, n_pairs)


def greedy_pairing_basis(n_atoms):
    """Trapped basis from every partial singlet pairing, dependent ones dropped.

    Each sector enumerates all (2n - 1)!! * C(N, 2n) pairings and Gram-Schmidts
    every candidate (two passes) against all vectors accepted so far,
    skipping those whose residual falls below RANK_TOL.  Returns the atomic
    vectors as rows, grouped by increasing excitation number.
    """
    atoms = tuple(range(1, n_atoms + 1))
    accepted = []
    for n in range(n_atoms // 2 + 1):
        for pairs in _pairings(atoms, n):
            v = singlet_product(n_atoms, pairs)
            for _ in range(2):
                for u in accepted:
                    v -= np.vdot(u, v) * u
            nrm = np.linalg.norm(v)
            if nrm < RANK_TOL:
                continue
            accepted.append(v / nrm)
    return np.array(accepted)


def embed_vacuum(space, atomic_vec):
    """Place an atomic-configuration vector in the photon-0 block."""
    vec = np.zeros(space.dim, dtype=complex)
    vec[: atomic_vec.shape[0]] = atomic_vec
    return vec


def four_atom_effective_matrix(space, rabi):
    """Explicit Zeno-projected drive for four atoms (gamma = 0).

    Three coefficient groups act on the trapped sextet:
    (W1+W2-W3-W4) couples gg<->x1 and x1<->x2 with weights 1/sqrt(2) and
    sqrt(2/3); (W1-W2) couples gg<->ag, ga<->aa and ag<->x2 (weight
    -1/sqrt(3)); (W3-W4) couples gg<->ga, ag<->aa and ga<->x2 (weight
    -1/sqrt(3)); everything scaled by 1/(2 sqrt(2)).
    """
    o1, o2, o3, o4 = rabi
    states = {k: embed_vacuum(space, v) for k, v in four_atom_trapped_states().items()}
    a_coef = o1 + o2 - o3 - o4
    b_coef = o1 - o2
    c_coef = o3 - o4
    terms = [
        (a_coef / np.sqrt(2.0), "gg", "x1"),
        (a_coef * np.sqrt(2.0 / 3.0), "x1", "x2"),
        (b_coef, "gg", "ag"),
        (b_coef, "ga", "aa"),
        (-b_coef / np.sqrt(3.0), "ag", "x2"),
        (c_coef, "gg", "ga"),
        (c_coef, "ag", "aa"),
        (-c_coef / np.sqrt(3.0), "ga", "x2"),
    ]
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for coef, bra, ket in terms:
        h += coef / (2.0 * np.sqrt(2.0)) * np.outer(states[bra], states[ket].conj())
    return h + h.conj().T


def expm_taylor(m, t, terms=20):
    """Plain Taylor series for exp(-m t); valid for small ||m|| t."""
    dim = m.shape[0]
    acc = np.eye(dim, dtype=complex)
    power = np.eye(dim, dtype=complex)
    for k in range(1, terms + 1):
        power = power @ (-m * t) / k
        acc = acc + power
    return acc


def schedule_states_dense(space: HilbertSpace, params: SystemParams, schedule: Schedule,
                          times) -> np.ndarray:
    """Unnormalized no-emission state at each time, by dense exponentials.

    Every row restarts from the ground state: the full-segment exponentials
    of the segments before the one holding t, then that segment's exponential
    over the rest.  t belongs to the first segment whose end it does not pass
    by more than 1e-12.
    """
    rows = []
    for t in times:
        psi, start = space.ground_state(), 0.0
        for seg in schedule.segments:
            h = conditional_hamiltonian(space, seg)
            end = start + seg.duration
            if t <= end + 1e-12:
                psi = expm(-1j * (min(t, end) - start) * h) @ psi
                break
            psi = expm(-1j * seg.duration * h) @ psi
            start = end
        rows.append(psi)
    return np.array(rows)


def bisect_jump_expm(h: np.ndarray, psi: np.ndarray, r: float,
                     t_max: float) -> tuple[float, np.ndarray]:
    """Locate tau in (0, t_max] where ||U(tau) psi||^2 crosses r.

    The norm is non-increasing along the conditional evolution, so 200
    halvings reach |norm^2 - r| <= 1e-10; if not, raise ArithmeticError.
    """
    lo, hi = 0.0, t_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cand = expm(-1j * mid * h) @ psi
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


def draw_threshold(rng: np.random.Generator) -> float:
    """Uniform draw in (0, 1): the sampler's jump threshold."""
    r = rng.random()
    while r == 0.0:
        r = rng.random()
    return r


def sample_trajectory_expm(space: HilbertSpace, schedule: Schedule, seed,
                           initial_state: np.ndarray | None = None) -> Trajectory:
    """Waiting-time quantum-jump trajectory with a dense exponential for every product.

    The package sampler's loop without its shortcuts: each segment starts
    with its full-duration exponential, every post-jump remainder forms
    exp(-i remaining H_cond), and bisect_jump_expm finds each jump time.
    Same seed contract, so jumps and final states must match the package's
    bytes.
    """
    rng = np.random.default_rng(seed)
    if initial_state is None:
        psi = space.ground_state()
    else:
        nrm = np.linalg.norm(initial_state)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError("initial state must be normalized")
        psi = np.asarray(initial_state, dtype=complex).copy()
    channels = jump_operators(space)
    labels = [name for name, _ in channels]
    ops = [op for _, op in channels]
    jumps: list[tuple[float, str]] = []
    r = draw_threshold(rng)
    t_offset = 0.0
    for seg in schedule.segments:
        h = conditional_hamiltonian(space, seg)
        duration = seg.duration
        u_full = expm(-1j * duration * h)
        elapsed = 0.0
        while True:
            remaining = duration - elapsed
            if remaining <= 0:
                break
            u = u_full if elapsed == 0.0 else expm(-1j * remaining * h)
            candidate = u @ psi
            if np.vdot(candidate, candidate).real > r:
                psi = candidate
                break
            tau, psi_at = bisect_jump_expm(h, psi, r, remaining)
            emitted = [op @ psi_at for op in ops]
            weights = np.array([np.vdot(e, e).real for e in emitted])
            total = weights.sum()
            if not total > 0:
                raise RuntimeError("norm decayed with no open emission channel")
            pick = min(int(np.searchsorted(np.cumsum(weights) / total, rng.random(),
                                           side="right")), len(ops) - 1)
            psi = emitted[pick] / np.linalg.norm(emitted[pick])
            jumps.append((t_offset + elapsed + tau, labels[pick]))
            advanced = elapsed + tau
            if advanced <= elapsed:
                advanced = np.nextafter(elapsed, np.inf)
            elapsed = min(advanced, duration)
            r = draw_threshold(rng)
        t_offset += duration
    nrm = np.linalg.norm(psi)
    return Trajectory(tuple(jumps), psi / nrm)


def run_ensemble_spawned(space: HilbertSpace, schedule: Schedule, n_samples: int,
                         seed: int) -> EnsembleResult:
    """run_ensemble's reduction with one numpy-spawned child seed per trajectory.

    Trajectory i is ``sample_trajectory`` on ``SeedSequence(seed).spawn(n_samples)[i]``,
    which builds its own Generator; the emitted outer products are summed
    per ENSEMBLE_CHUNK trajectories and the chunk sums added in order.  The
    no-jump state is the last survivor's final state (None if none
    survived), so the package's batched seeding must reproduce every byte.
    """
    children = np.random.SeedSequence(seed).spawn(n_samples)
    perp_sum = np.zeros((space.dim, space.dim), dtype=complex)
    survivor_state = None
    records = []
    for start in range(0, n_samples, ENSEMBLE_CHUNK):
        chunk_perp = np.zeros_like(perp_sum)
        for idx in range(start, min(start + ENSEMBLE_CHUNK, n_samples)):
            traj = sample_trajectory(space, schedule, children[idx])
            if not traj.jumps:
                survivor_state = traj.final_state
            else:
                chunk_perp += np.outer(traj.final_state, traj.final_state.conj())
                records.extend((idx, t, chan) for t, chan in traj.jumps)
        perp_sum += chunk_perp
    jumped = len({idx for idx, _, _ in records})
    rho_perp = 0.5 * (perp_sum + perp_sum.conj().T) / jumped if jumped else None
    return EnsembleResult((n_samples - jumped) / n_samples, survivor_state, n_samples, seed,
                          rho_perp, tuple(records))


def integrate_pair_amplitudes(params: SystemParams, omega1, omega2, duration,
                              rtol=1e-10, atol=1e-12):
    """Black-box DOP853 integration of the pair-basis amplitude equations.

    Starts from the two-atom ground state and returns the (n_max+1, 4)
    complex amplitude array at the end of the pulse.
    """
    wp, wm = omega_pm(omega1, omega2)
    nlev = params.n_max + 1
    c0 = np.zeros((nlev, 4), dtype=complex)
    c0[0, 0] = 1.0

    def rhs(_t, y):
        c = y.view(complex).reshape(nlev, 4)
        return two_atom_ode_rhs(c, params, wp, wm).reshape(-1).view(float)

    sol = solve_ivp(rhs, (0.0, duration), c0.reshape(-1).view(float).copy(),
                    method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[:, -1].copy().view(complex).reshape(nlev, 4)


@lru_cache(maxsize=16)
def two_atom_pair_basis(space: HilbertSpace) -> np.ndarray:
    """Unitary whose columns are |n g>, |n a>, |n s>, |n e> for n = 0..n_max.

    Column 4*n + k holds the k-th pair state (order g, a, s, e) in the
    photon-n sector, with a/s the antisymmetric/symmetric single
    excitation shared by the two atoms.  Only defined for N = 2.
    """
    if space.n_atoms != 2:
        raise ValueError("pair basis is defined for exactly two atoms")
    w = np.zeros((space.dim, space.dim), dtype=complex)
    rt = 1.0 / np.sqrt(2.0)
    for n in range(space.n_max + 1):
        base = 4 * n
        w[space.flat_index(n, 0b00), base + 0] = 1.0          # g
        w[space.flat_index(n, 0b10), base + 1] = rt           # a
        w[space.flat_index(n, 0b01), base + 1] = -rt
        w[space.flat_index(n, 0b10), base + 2] = rt           # s
        w[space.flat_index(n, 0b01), base + 2] = rt
        w[space.flat_index(n, 0b11), base + 3] = 1.0          # e
    return w


def two_atom_ode_rhs(coeffs: np.ndarray, params: SystemParams,
                     omega_plus: complex, omega_minus: complex) -> np.ndarray:
    """Time derivatives of the pair-basis amplitudes c[n, x] for two atoms.

    ``coeffs`` has shape (n_max + 1, 4) with columns ordered (g, a, s, e).
    The four coupled lines are, per Fock level n (amplitudes outside the
    truncation window are zero):

        dc_ng = -i W- c_na - i W+ c_ns - sqrt(2n) g c_(n-1)s - n kappa c_ng
        dc_na = -i W-* c_ng + i W- c_ne - (gamma + n kappa) c_na
        dc_ns = -i W+* c_ng - i W+ c_ne - sqrt(2n) g c_(n-1)e
                + sqrt(2(n+1)) g c_(n+1)g - (gamma + n kappa) c_ns
        dc_ne = +i W-* c_na - i W+* c_ns + sqrt(2(n+1)) g c_(n+1)s
                - (2 gamma + n kappa) c_ne

    with W+- the symmetric/antisymmetric drive combinations
    (Omega_1 +- Omega_2)/(2 sqrt(2)).  Identical to -i H_cond c after the
    pair-basis change (verified in the test suite).
    """
    if params.n_atoms != 2:
        raise ValueError("the pair-basis amplitude equations require exactly two atoms")
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (params.n_max + 1, 4):
        raise ValueError(f"coeffs must have shape ({params.n_max + 1}, 4), got {c.shape}")
    g, kap, gam = params.g, params.kappa, params.gamma
    wp, wm = complex(omega_plus), complex(omega_minus)
    cg, ca, cs, ce = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
    n = np.arange(params.n_max + 1)
    sq_dn = np.sqrt(2.0 * n)            # sqrt(2n), pairs with c_(n-1)
    sq_up = np.sqrt(2.0 * (n + 1))      # sqrt(2(n+1)), pairs with c_(n+1)
    cs_dn = np.concatenate(([0.0], cs[:-1]))
    ce_dn = np.concatenate(([0.0], ce[:-1]))
    cg_up = np.concatenate((cg[1:], [0.0]))
    cs_up = np.concatenate((cs[1:], [0.0]))
    out = np.empty_like(c)
    out[:, 0] = -1j * wm * ca - 1j * wp * cs - sq_dn * g * cs_dn - n * kap * cg
    out[:, 1] = -1j * np.conj(wm) * cg + 1j * wm * ce - (gam + n * kap) * ca
    out[:, 2] = (-1j * np.conj(wp) * cg - 1j * wp * ce - sq_dn * g * ce_dn
                 + sq_up * g * cg_up - (gam + n * kap) * cs)
    out[:, 3] = (1j * np.conj(wm) * ca - 1j * np.conj(wp) * cs
                 + sq_up * g * cs_up - (2 * gam + n * kap) * ce)
    return out


# The loop- and product-built operators the package used before it
# scattered every operator from a table of entries (H_cond from
# ``_conditional_entries``, the jump channels from ``_channel_entries``);
# the package must reproduce them bit for bit.

@lru_cache(maxsize=64)
def atomic_lowering_loops(space: HilbertSpace, i: int) -> np.ndarray:
    """Lowering operator sigma_i = |0><1| on atom i, identity elsewhere.

    Treat the cached return value as read-only.
    """
    bit = space.atom_bit(i)
    mask = 1 << bit
    op = np.zeros((space.dim, space.dim), dtype=complex)
    for n in range(space.n_max + 1):
        base = n * space.n_configs
        for bits in range(space.n_configs):
            if bits & mask:
                op[base + (bits & ~mask), base + bits] = 1.0
    return op


@lru_cache(maxsize=32)
def cavity_annihilation_loops(space: HilbertSpace) -> np.ndarray:
    """Bosonic annihilation b with b|n> = sqrt(n)|n-1>, truncated at n_max.

    The truncation only breaks the ladder algebra at the cutoff row:
    b_dag |n_max> = 0.  Treat the cached return value as read-only.
    """
    op = np.zeros((space.dim, space.dim), dtype=complex)
    nc = space.n_configs
    for n in range(1, space.n_max + 1):
        root = np.sqrt(n)
        for bits in range(nc):
            op[(n - 1) * nc + bits, n * nc + bits] = root
    return op


def jump_operators(space: HilbertSpace) -> list[tuple[str, np.ndarray]]:
    """Emission channels: ("cavity", sqrt(2 kappa) b) then ("atom_i", sqrt(2 gamma) sigma_i).

    Channels with zero rate are omitted, in the order the package's
    sampler draws them.
    """
    params = space.params
    ops = []
    if params.kappa > 0:
        ops.append(("cavity", np.sqrt(2.0 * params.kappa) * cavity_annihilation_loops(space)))
    if params.gamma > 0:
        ops += [(f"atom_{i}", np.sqrt(2.0 * params.gamma) * atomic_lowering_loops(space, i))
                for i in range(1, space.n_atoms + 1)]
    return ops


def laser_hamiltonian_products(space: HilbertSpace, pulse: Pulse) -> np.ndarray:
    """Hermitian drive (1/2) sum_i Omega_i sigma_i + h.c."""
    _check_pulse(space, pulse)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for i, omega in enumerate(pulse.rabi, start=1):
        if omega == 0:
            continue
        s = atomic_lowering_loops(space, i)
        h += 0.5 * omega * s
        h += 0.5 * np.conj(omega) * s.conj().T
    return h


def conditional_hamiltonian_products(space: HilbertSpace, params: SystemParams,
                                     pulse: Pulse | None = None) -> np.ndarray:
    """Non-Hermitian generator of the no-emission evolution.

    ``params`` may carry different rates than the ones the space was
    built with, but must agree on n_atoms and n_max.  ``pulse=None``
    means lasers off.
    """
    if (params.n_atoms, params.n_max) != (space.n_atoms, space.n_max):
        raise ValueError("params disagree with the space on n_atoms/n_max")
    b = cavity_annihilation_loops(space)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(1, space.n_atoms + 1):
        s = atomic_lowering_loops(space, i)
        sdag = s.conj().T
        h += 1j * params.g * (b @ sdag - b.conj().T @ s)
        if params.gamma:
            h += -1j * params.gamma * (sdag @ s)
    if params.kappa:
        h += -1j * params.kappa * (b.conj().T @ b)
    if pulse is not None and any(pulse.rabi):
        h += laser_hamiltonian_products(space, pulse)
    return h


def collective_lowering(space: HilbertSpace) -> np.ndarray:
    """Collective atomic lowering J_minus = sum_i sigma_i."""
    op = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(1, space.n_atoms + 1):
        op += atomic_lowering(space, i)
    return op


def expectation(op: np.ndarray, state: np.ndarray) -> complex:
    """<psi|A|psi> with the raw (possibly unnormalized) amplitudes."""
    if op.shape != (state.shape[0], state.shape[0]):
        raise ValueError(f"operator shape {op.shape} does not match state length {state.shape[0]}")
    return complex(np.vdot(state, op @ state))


def no_photon_probability(h_cond: np.ndarray, state: np.ndarray, t: float) -> float:
    """Probability of zero emissions in (0, t) for a normalized initial state."""
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"initial state must be normalized, got norm {nrm!r}")
    evolved = propagate_conditional(h_cond, state, t)
    return float(min(np.vdot(evolved, evolved).real, 1.0))


def conditional_state(h_cond: np.ndarray, state: np.ndarray, t: float) -> np.ndarray:
    """Normalized state given that no photon was emitted up to time t."""
    evolved = propagate_conditional(h_cond, state, t)
    nrm = np.linalg.norm(evolved)
    if nrm < 1e-300:
        raise ValueError("state is incompatible with the no-emission conditioning")
    return evolved / nrm


def basis_projector(basis: DfsBasis) -> np.ndarray:
    """P = sum_k |v_k><v_k| on the composite space."""
    return basis.vectors.T @ basis.vectors.conj()


def dfs_projector(space: HilbertSpace) -> np.ndarray:
    """Projector onto the trapped subspace; idempotent and Hermitian."""
    return basis_projector(dfs_basis(space))


def slow_matrix(model: SlowModel) -> np.ndarray:
    """The 2x2 generator M = [[k1, i W-], [i W-*, k2]] of the trapped amplitudes."""
    return np.array([[model.k1, 1j * model.omega_minus],
                     [1j * np.conj(model.omega_minus), model.k2]], dtype=complex)


def slow_eigenvalues(model: SlowModel) -> tuple[complex, complex]:
    """(lambda_1, lambda_2) = (k1 + k2)/2 +- i S."""
    mean = (model.k1 + model.k2) / 2.0
    return mean + 1j * model.s_freq, mean - 1j * model.s_freq


def slow_propagator(model: SlowModel, t: float) -> np.ndarray:
    """exp(-M t) via the two-eigenprojector expansion.

    Falls back to the confluent limit exp(-l t) (I - (M - l) t) when the
    eigenvalues coincide (critically damped model).
    """
    l1, l2 = slow_eigenvalues(model)
    m = slow_matrix(model)
    eye = np.eye(2, dtype=complex)
    if abs(l1 - l2) < 1e-13 * max(1.0, abs(l1) + abs(l2)):
        return np.exp(-l1 * t) * (eye - (m - l1 * eye) * t)
    return ((m - l2 * eye) / (l1 - l2) * np.exp(-l1 * t)
            + (m - l1 * eye) / (l2 - l1) * np.exp(-l2 * t))


def slow_amplitudes(model: SlowModel, t: float) -> tuple[complex, complex]:
    """Trapped amplitudes (c_g(t), c_a(t)) for the ground-state initial condition.

    Closed form:
        exp(-(k1+k2) t / 2) * [ (1, 0) cos(S t)
                                - (1/2) ((k1-k2), 2 i W-*) sin(S t)/S ].
    """
    mu = (model.k1 + model.k2) / 2.0
    d = (model.k1 - model.k2) / 2.0
    s = model.s_freq
    sinc = _sin_over_s(s, t)
    decay = np.exp(-mu * t)
    c_g = decay * (np.cos(s * t) - d * sinc)
    c_a = decay * (-1j * np.conj(model.omega_minus) * sinc)
    return complex(c_g), complex(c_a)


def final_dfs_state(model: SlowModel, duration: float) -> np.ndarray:
    """Normalized trapped-state 2-vector at the end of the pulse."""
    c_g, c_a = slow_amplitudes(model, duration)
    nrm = np.sqrt(abs(c_g) ** 2 + abs(c_a) ** 2)
    if nrm < 1e-300:
        raise ValueError("trapped amplitudes vanished; no state to normalize")
    return np.array([c_g, c_a], dtype=complex) / nrm


def sweep_point(omega1: float, gamma: float, kappa: float, n_max: int,
                eta: float) -> tuple[float, ...]:
    """One sweep row, rebuilding params, space and trapped basis for the point alone."""
    params = SystemParams(2, 1.0, kappa, gamma, n_max)
    space = build_space(params)
    basis = dfs_basis(space)
    model = build_slow_model(params, omega1, -omega1)
    duration = entangling_pulse_duration(model)
    h = conditional_hamiltonian(space, Pulse((omega1, -omega1), duration))
    psi = propagate_conditional(h, space.ground_state(), duration)
    c_g = np.vdot(basis.vectors[0], psi)
    c_a = np.vdot(basis.vectors[1], psi)
    # Success probability of the full protocol: no emission during the
    # pulse and the atoms settle into the trapped subspace (the leaked
    # transient amplitude decays right after the pulse ends).
    p0_num = abs(c_g) ** 2 + abs(c_a) ** 2
    p0_ana = p0_closed_form(model, duration)
    fid_cond = abs(c_a) ** 2 / p0_num
    fid_nodet = fid_cond * p0_num / (1.0 - eta * (1.0 - p0_num))
    return (omega1, gamma, duration, p0_num, p0_ana, fid_cond, fid_nodet)


def effective_hamiltonian(space: HilbertSpace, pulse: Pulse,
                          params: SystemParams) -> np.ndarray:
    """Zeno-projected generator P H_cond P.

    The continuously monitored leaky cavity confines weak driving to the
    trapped subspace, so the drive acts through its projection.  For
    gamma = 0 the cavity coupling projects to zero exactly and the result
    reduces to P H_laser P, which is Hermitian.
    """
    p = dfs_projector(space)
    h = conditional_hamiltonian(space, pulse)
    return p @ h @ p


def master_equation_evolve(space: HilbertSpace, params: SystemParams, schedule: Schedule,
                           rho0: np.ndarray, t: float | None = None) -> np.ndarray:
    """Trace-preserving evolution of a density matrix through the schedule.

    H is the Hermitian part of ``conditional_hamiltonian_products`` and the
    jump operators are the emission channels sqrt(2 kappa) b and
    sqrt(2 gamma) sigma_i from the loop-built operators, so this is the
    unconditioned average of the trajectory unraveling.  Each segment is
    one exact step vec(rho) <- expm(span L) vec(rho) with the dense
    dim^2 x dim^2 Liouvillian L on the row-stacked vec(rho).  Its cost
    grows as dim^6: the oracle is meant for dim <= 32.
    """
    rho = np.asarray(rho0, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("rho0 is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("rho0 trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("rho0 has a negative eigenvalue")
    total = schedule.total_duration
    if t is None:
        t = total
    if not 0 <= t <= total + 1e-12:
        raise ValueError(f"t = {t} outside the schedule span [0, {total}]")
    # row-stacked vec: vec(A rho B) = kron(A, B^T) vec(rho)
    eye = np.eye(space.dim)
    channels = [np.sqrt(2.0 * params.kappa) * cavity_annihilation_loops(space)]
    channels += [np.sqrt(2.0 * params.gamma) * atomic_lowering_loops(space, i)
                 for i in range(1, space.n_atoms + 1)]
    dissipator = 0.0
    for c in channels:  # C rho C^dag - (C^dag C rho + rho C^dag C) / 2
        c_sq = c.conj().T @ c
        dissipator = (dissipator + np.kron(c, c.conj())
                      - 0.5 * np.kron(c_sq, eye) - 0.5 * np.kron(eye, c_sq.T))
    vec = rho.reshape(-1)
    remaining = t
    for seg in schedule.segments:
        span = min(seg.duration, remaining)
        remaining -= span
        if span <= 0:
            continue
        h_cond = conditional_hamiltonian_products(space, params, seg)
        h = 0.5 * (h_cond + h_cond.conj().T)
        liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + dissipator
        vec = expm(span * liouvillian) @ vec
    return vec.reshape(space.dim, space.dim)
