import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from unittest.mock import Mock, patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dfs_cavity import (DeskScaleError, Pulse, Schedule, SystemParams, atomic_lowering,
                        build_slow_model, build_space, cavity_annihilation,
                        conditional_hamiltonian, dfs_basis, entangling_pulse_duration,
                        propagate_conditional, propagate_schedule, run_ensemble,
                        sample_trajectory)
from dfs_cavity import dynamics, hilbert
from dfs_cavity.dynamics import _eigensystem, _next_jump
from dfs_cavity.hamiltonians import _scatter
import oracles
from oracles import (bisect_jump_expm, conditional_state, dfs_projector, jump_operators,
                     master_equation_evolve, no_photon_probability, pair_vector,
                     sample_trajectory_expm, schedule_states_dense)


def two_atom_setup(gamma=0.0, kappa=1.0, n_max=3):
    params = SystemParams(n_atoms=2, g=1.0, kappa=kappa, gamma=gamma, n_max=n_max)
    return build_space(params), params


def singlet_state(space):
    return pair_vector(space, 0, "a")


def test_propagate_identity_at_zero():
    space, params = two_atom_setup()
    h = conditional_hamiltonian(space)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    assert np.allclose(propagate_conditional(h, psi, 0.0), psi)
    with pytest.raises(ValueError):
        propagate_conditional(h, psi, -1.0)


@st.composite
def conditional_stacks(draw):
    n_atoms = draw(st.integers(1, 3))
    params = SystemParams(n_atoms=n_atoms, g=1.0, n_max=draw(st.integers(1, 3)),
                          kappa=draw(st.floats(0.0, 2.0)), gamma=draw(st.floats(0.0, 1.0)))
    space = build_space(params)
    drive = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    pulses = draw(st.lists(st.lists(drive, min_size=n_atoms, max_size=n_atoms),
                           min_size=1, max_size=5))
    stack = np.array([conditional_hamiltonian(space, Pulse(tuple(rabi), 1.0))
                      for rabi in pulses])
    times = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
                          min_size=len(pulses), max_size=len(pulses)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return stack, state, times


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(conditional_stacks())
def test_stacked_propagation_has_the_bytes_of_single_calls(case):
    stack, state, times = case
    batched = propagate_conditional(stack, state, np.array(times))
    singles = [propagate_conditional(h, state, t) for h, t in zip(stack, times)]
    assert batched.shape == (len(times), state.size)
    assert np.array_equal(batched, np.array(singles))
    # two leading axes: the same slices in another layout
    square = propagate_conditional(stack[:, None], state, np.array(times)[:, None])
    assert np.array_equal(square[:, 0], batched)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_propagation_rejects_negative_and_non_finite_times(bad):
    space, params = two_atom_setup(gamma=1e-3)
    h = conditional_hamiltonian(space, Pulse((0.1, -0.1), 1.0))
    psi = space.ground_state()
    with pytest.raises(ValueError):
        propagate_conditional(h, psi, bad)
    with pytest.raises(ValueError):
        propagate_conditional(np.array([h, h]), psi, np.array([1.0, bad]))


def test_stacked_propagation_rejects_times_of_another_shape():
    space, params = two_atom_setup()
    h = conditional_hamiltonian(space)
    psi = space.ground_state()
    stack = np.array([h, h, h])
    for times in (1.0, [1.0, 2.0], [[1.0, 2.0, 3.0]], np.ones((3, 1))):
        with pytest.raises(ValueError):
            propagate_conditional(stack, psi, np.asarray(times))
    with pytest.raises(ValueError):
        propagate_conditional(h, psi, np.array([1.0]))


def test_propagate_schedule_chains_segments(monkeypatch):
    space, params = two_atom_setup(gamma=1e-3)
    segments = (Pulse((0.1, -0.1), 3.0), Pulse.off(2, 0.0), Pulse((0.05, 0.02), 2.5))
    schedule = Schedule(segments)
    h1, h2, h3 = (conditional_hamiltonian(space, seg) for seg in segments)
    chained = space.ground_state()
    for h, seg in zip((h1, h2, h3), segments):
        chained = propagate_conditional(h, chained, seg.duration)
    # time grid: a step ends at each segment end it passes, as evolve steps
    at_start = propagate_conditional(h1, space.ground_state(), 0.0)
    at_boundary = propagate_conditional(h1, propagate_conditional(h1, at_start, 1.5), 1.5)
    at_4 = propagate_conditional(h1, at_boundary, 0.0)
    at_4 = propagate_conditional(h3, propagate_conditional(h2, at_4, 0.0), 1.0)
    at_end = propagate_conditional(h3, at_4, 1.5)

    # dim 16 steps with the dense exponential, the chain's own products; forced onto
    # the Taylor steps, which round differently, it must agree to 1e-12
    for dense_max_dim, same in ((dynamics.DENSE_MAX_DIM, np.array_equal),
                                (0, partial(np.allclose, rtol=0, atol=1e-12))):
        monkeypatch.setattr(dynamics, "DENSE_MAX_DIM", dense_max_dim)
        assert same(propagate_schedule(space, schedule), chained)
        rows = propagate_schedule(space, schedule, [0.0, 1.5, 3.0, 4.0, 5.5])
        assert same(rows[2], at_boundary)
        assert same(rows[4], at_end)
        assert np.allclose(rows[4], chained, rtol=0, atol=1e-12)
        # a time up to 1e-12 past a segment end is taken at that end, and its row written
        late = propagate_schedule(space, schedule, [0.0, 1.5, 3.0 + 5e-13, 4.0, 5.5 + 5e-13])
        assert np.array_equal(late, rows)
        for bad in ([0.0, 5.6], [1.0, 0.5], [-0.1], [], [math.nan], [0.0, math.nan, 1.0]):
            with pytest.raises(ValueError):
                propagate_schedule(space, schedule, bad)


@st.composite
def schedule_cases(draw):
    n_atoms = draw(st.integers(1, 4))
    params = SystemParams(n_atoms=n_atoms, g=1.0, n_max=draw(st.integers(0, 3)),
                          kappa=draw(st.floats(0.0, 2.0)), gamma=draw(st.floats(0.0, 1.0)))
    drive = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    durations = st.one_of(st.just(0.0), st.floats(0.0, 40.0))
    segments = draw(st.lists(
        st.builds(lambda rabi, d: Pulse(tuple(rabi), d),
                  st.lists(drive, min_size=n_atoms, max_size=n_atoms), durations),
        min_size=1, max_size=3))
    schedule = Schedule(tuple(segments))
    ends = np.cumsum([seg.duration for seg in segments]).tolist()
    span = min(schedule.total_duration, ends[-1])
    times = sorted(draw(st.lists(st.one_of(st.floats(0.0, span), st.sampled_from([0.0] + ends)),
                                 min_size=1, max_size=6)))
    return build_space(params), params, schedule, [min(t, span) for t in times]


def humped_one_atom_case():
    # ||t A||_1 = 9.81 per segment: one sub-step each, whose terms reach 2.3e3 times the
    # state before they cancel, on the Taylor steps
    params = SystemParams(n_atoms=1, g=1.0, kappa=1.91, gamma=2.2e-16, n_max=0)
    pulse = Pulse((0.44652043378647976 + 0.7255356647775302j,), 23.026581809564505)
    schedule = Schedule((pulse, pulse))
    return build_space(params), params, schedule, [0.0, pulse.duration, schedule.total_duration]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(schedule_cases())
@example(humped_one_atom_case())
def test_propagate_schedule_matches_dense_expm_chain(case):
    space, params, schedule, times = case
    expected_rows = schedule_states_dense(space, params, schedule, times)
    expected_final = schedule_states_dense(space, params, schedule, [schedule.total_duration])[0]
    # as configured (dense up to dim 64), then on the Taylor steps at every dim
    for dense_max_dim in (dynamics.DENSE_MAX_DIM, 0):
        with patch.object(dynamics, "DENSE_MAX_DIM", dense_max_dim):
            rows = propagate_schedule(space, schedule, times)
            final = propagate_schedule(space, schedule)
        assert np.allclose(rows, expected_rows, rtol=0, atol=1e-12)
        assert np.allclose(final, expected_final, rtol=0, atol=1e-12)


def two_segment_three_atom_case():
    params = SystemParams(n_atoms=3, g=1.0, kappa=1.0, gamma=1e-3, n_max=3)
    schedule = Schedule((Pulse((0.05, -0.05, 0.05), 17.3), Pulse.off(3, 4.1)))
    return build_space(params), params, schedule, [0.0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(schedule_cases())
@example(two_segment_three_atom_case())  # 17.3 + 4.1 - 17.3 is not 4.1
def test_rows_at_segment_ends_hold_the_final_state_and_the_sampler_path(case):
    space, _, schedule, _ = case
    ends = np.cumsum([seg.duration for seg in schedule.segments])
    # on the Taylor steps at every dim, then as configured (dense up to dim 64), whose
    # rows the sampler plan's no-jump path must match
    for dense_max_dim in (0, dynamics.DENSE_MAX_DIM):
        with patch.object(dynamics, "DENSE_MAX_DIM", dense_max_dim):
            rows = propagate_schedule(space, schedule, ends)
            final = propagate_schedule(space, schedule)
        assert rows[-1].tobytes() == final.tobytes()
    if space.dim <= dynamics.DENSE_MAX_DIM:
        starts = dynamics._sampler_plan(space, schedule).starts
        for k, row in enumerate(rows[:-1]):
            assert np.array_equal(row, starts[k + 1])


def test_propagate_schedule_leaves_the_global_rng_alone(monkeypatch):
    # ||t A||_1 is about 294 over the first segment: a step plan chosen from estimated
    # matrix-power norms (onenormest) would draw from numpy's global RNG
    monkeypatch.setattr(dynamics, "DENSE_MAX_DIM", 0)  # Taylor steps at dim 16
    space, params = two_atom_setup()
    schedule = Schedule((Pulse((0.05, -0.05), 45.2), Pulse.off(2, 10)))
    saved = np.random.get_state()
    try:
        results = []
        for seed in (0, 1):
            np.random.seed(seed)
            before = np.random.get_state()
            final = propagate_schedule(space, schedule)
            rows = propagate_schedule(space, schedule, [0.0, 20.0, 45.2, 55.2])
            after = np.random.get_state()
            assert before[0] == after[0] and before[2:] == after[2:]
            assert np.array_equal(before[1], after[1])
            results.append((final.tobytes(), rows.tobytes()))
        assert results[0] == results[1]
    finally:
        np.random.set_state(saved)


@st.composite
def long_taylor_cases(draw):
    # dim 96-256 (above DENSE_MAX_DIM) with steps of ||t A||_1 from 64 to 1000: past
    # 63.4 (condition 3.13 of Al-Mohy & Higham), the step still plans from the exact norm
    n_atoms = draw(st.integers(5, 6))
    params = SystemParams(n_atoms=n_atoms, g=1.0, n_max=draw(st.integers(7 - n_atoms, 3)),
                          kappa=draw(st.floats(0.0, 2.0)), gamma=draw(st.floats(0.0, 1.0)))
    space = build_space(params)
    generator, _ = dynamics._taylor_stepper(space)
    drive = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        rabi = tuple(draw(st.lists(drive, min_size=n_atoms, max_size=n_atoms)))
        norm = generator(Pulse(rabi, 1.0))[3]  # ||A||_1 of the shifted -i H_cond
        segments.append(Pulse(rabi, draw(st.floats(64.0, 1000.0)) / norm))
    schedule = Schedule(tuple(segments))
    ends = np.cumsum([seg.duration for seg in segments]).tolist()
    times = sorted(draw(st.lists(st.one_of(st.floats(0.0, ends[-1]), st.sampled_from(ends)),
                                 min_size=1, max_size=4)))
    return space, params, schedule, times


class CountingProducts:
    """Stands in for the Taylor step's sparse A and counts its products A @ b."""

    def __init__(self, a):
        self.a, self.count = a, 0

    def __matmul__(self, b):
        self.count += 1
        return self.a @ b


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(long_taylor_cases())
def test_long_krylov_steps_match_the_dense_expm_chain(case):
    space, params, schedule, times = case
    assert space.dim > dynamics.DENSE_MAX_DIM
    steps = []  # (products, ||t A||_1) per step
    taylor_stepper = dynamics._taylor_stepper

    def counting_stepper(space):
        generator, advance = taylor_stepper(space)

        def counted(gen, psi, t):
            a, shifted, mu, norm = gen
            products = CountingProducts(shifted)
            out = advance((a, products, mu, norm), psi, t)
            steps.append((products.count, t * norm))
            return out

        return generator, counted

    with patch.object(dynamics, "_taylor_stepper", counting_stepper):
        rows = propagate_schedule(space, schedule, times)
        final = propagate_schedule(space, schedule)
    expected = schedule_states_dense(space, params, schedule, times + [schedule.total_duration])
    assert np.allclose(rows, expected[:-1], rtol=0, atol=1e-12)
    assert np.allclose(final, expected[-1], rtol=0, atol=1e-12)
    # ceil(||t A||_1 / theta_55) sub-steps of at most 55 terms, theta_55 = 9.9 (table 3.1
    # of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011))
    assert steps and all(n <= 55 * math.ceil(x / 9.9) for n, x in steps), steps


def test_krylov_step_of_a_zero_hamiltonian_keeps_the_state_bytes(monkeypatch):
    # N = 1, n_max = 0, no loss, lasers off: H_cond = 0, and exp(0) is the identity
    monkeypatch.setattr(dynamics, "DENSE_MAX_DIM", 0)
    space = build_space(SystemParams(n_atoms=1, kappa=0.0, gamma=0.0, n_max=0))
    schedule = Schedule((Pulse.off(1, 7.5),))
    assert propagate_schedule(space, schedule).tobytes() == space.ground_state().tobytes()
    generator, advance = dynamics._taylor_stepper(space)
    psi = np.array([-0.0 + 0.6j, 0.8 - 0.0j])
    assert advance(generator(schedule.segments[0]), psi, 7.5).tobytes() == psi.tobytes()


def test_krylov_steps_leave_scipy_sparse_linalg_unloaded():
    code = ("import sys\n"
            "from dfs_cavity import Pulse, Schedule, SystemParams, build_space, propagate_schedule\n"
            "space = build_space(SystemParams(n_atoms=5, kappa=1.0, gamma=1e-3, n_max=3))\n"
            "propagate_schedule(space, Schedule((Pulse((0.05, -0.05) * 2 + (0.05,), 30.0),)))\n"
            "print('loaded' if 'scipy.sparse.linalg' in sys.modules else 'absent')\n")
    package_root = str(Path(dynamics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "absent"


def test_krylov_schedule_forms_no_dense_matrix():
    # dim 2048: one dense complex dim x dim matrix takes 64 MiB, the bound is an eighth of it
    space = build_space(SystemParams(n_atoms=9, kappa=1.0, gamma=1e-3, n_max=3))
    schedule = Schedule((Pulse(tuple(0.05 * (-1) ** i for i in range(9)), 0.5),))
    propagate_schedule(space, schedule)  # warms the cached sigma_i positions
    tracemalloc.start()
    try:
        propagate_schedule(space, schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < space.dim ** 2 * 16 / 8


def test_trapped_state_is_stable():
    space, params = two_atom_setup()
    h = conditional_hamiltonian(space)
    psi = singlet_state(space)
    for t in (0.5, 4.0, 10.0 / params.kappa):
        evolved = propagate_conditional(h, psi, t)
        assert np.linalg.norm(evolved - psi) < 1e-12
        assert no_photon_probability(h, psi, t) == pytest.approx(1.0, abs=1e-12)


def test_excited_pair_state_decays_out():
    # |0 s> couples to the lossy one-photon rung and bleeds away entirely
    space, params = two_atom_setup()
    h = conditional_hamiltonian(space)
    assert no_photon_probability(h, pair_vector(space, 0, "s"), 40.0) < 1e-12


def test_one_photon_state_decays_out():
    space, params = two_atom_setup()
    h = conditional_hamiltonian(space)
    assert no_photon_probability(h, space.basis_state(1, 0), 40.0) < 1e-12


def test_antisymmetric_state_decays_at_twice_gamma():
    space, params = two_atom_setup(gamma=3e-3)
    h = conditional_hamiltonian(space)
    psi = singlet_state(space)
    for t in (1.0, 10.0, 50.0):
        assert no_photon_probability(h, psi, t) == pytest.approx(
            np.exp(-2 * params.gamma * t), rel=1e-10)


def test_propagation_matches_adaptive_integrator():
    # independent route: black-box adaptive integration of the state ODE
    space, params = two_atom_setup(gamma=2e-3)
    h = conditional_hamiltonian(space, Pulse((0.1, -0.1), 1.0))
    psi0 = space.ground_state()
    t_end = 12.0

    def rhs(_t, y):
        return (-1j * (h @ y.view(complex))).view(float)

    sol = solve_ivp(rhs, (0.0, t_end), psi0.astype(complex).view(float).copy(),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    assert sol.success
    via_ode = sol.y[:, -1].copy().view(complex)
    via_expm = propagate_conditional(h, psi0, t_end)
    assert np.max(np.abs(via_expm - via_ode)) < 1e-8


def test_no_photon_probability_requires_normalized_input():
    space, params = two_atom_setup()
    h = conditional_hamiltonian(space)
    with pytest.raises(ValueError):
        no_photon_probability(h, 0.7 * space.ground_state(), 1.0)


def test_no_photon_probability_monotone():
    space, params = two_atom_setup(gamma=1e-3)
    h = conditional_hamiltonian(space, Pulse((0.12, -0.05 + 0.02j), 1.0))
    rng = np.random.default_rng(21)
    states = [space.ground_state(), singlet_state(space)]
    for _ in range(3):
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        states.append(psi / np.linalg.norm(psi))
    grid = np.linspace(0.0, 30.0, 100)
    for psi in states:
        values = [no_photon_probability(h, psi, t) for t in grid]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)


def test_conditional_state_rotates_inside_trapped_pair():
    space, params = two_atom_setup()
    omega1 = 0.02
    model = build_slow_model(params, omega1, -omega1)
    wm = abs(model.omega_minus)
    h = conditional_hamiltonian(space, Pulse((omega1, -omega1), 1.0))

    quarter = np.pi / (4 * wm)
    psi = conditional_state(h, space.ground_state(), quarter)
    target = (pair_vector(space, 0, "g") - 1j * pair_vector(space, 0, "a")) / np.sqrt(2.0)
    assert abs(np.vdot(target, psi)) ** 2 > 0.99
    # equal weights on the two trapped states within 1%
    pop_g = abs(np.vdot(pair_vector(space, 0, "g"), psi)) ** 2
    pop_a = abs(np.vdot(pair_vector(space, 0, "a"), psi)) ** 2
    assert pop_g == pytest.approx(0.5, abs=0.01)
    assert pop_a == pytest.approx(0.5, abs=0.01)

    full = np.pi / wm  # a full rotation returns minus the ground state
    psi = conditional_state(h, space.ground_state(), full)
    overlap = np.vdot(space.ground_state(), psi)
    assert overlap.real < -0.99 and abs(overlap) > 0.995


def test_conditional_state_rejects_vanished_state():
    space, params = two_atom_setup()
    h = conditional_hamiltonian(space)
    with pytest.raises(ValueError):
        # the symmetric state has completely leaked out by t ~ 1500/g
        conditional_state(h, pair_vector(space, 0, "s"), 1500.0)


def test_next_jump_returns_the_survivor_when_the_norm_never_reaches_the_threshold():
    # a Hermitian generator keeps ||psi||^2 = 1, so the threshold 0.5 is never crossed
    h = np.array([[0.0, 0.3], [0.3, 1.0]], dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    lam, v, v_inv, delta = _eigensystem(h)
    assert np.isfinite(delta)
    exact = expm(-1j * 1.0 * h) @ psi
    # a stand-in for the cached full-duration propagator, so the test sees which product
    # is returned: a step to t_max = 1 inside a segment of duration 2 forms the
    # exponential, a full-segment step (duration 1) applies the stand-in and forms none
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    _, advance = dynamics._dense_stepper(None)  # the advance does not read the space
    for eig in ((lam, v, v_inv, delta), (lam, v, v_inv, np.inf)):
        tau, state = _next_jump(partial(advance, (h, u, 2.0)), eig, psi, 0.5, 1.0)
        assert tau is None and state.tobytes() == exact.tobytes()
        with patch.object(dynamics, "expm", wraps=expm) as formed:
            tau, state = _next_jump(partial(advance, (h, u, 1.0)), eig, psi, 0.5, 1.0)
        assert tau is None and state.tobytes() == (u @ psi).tobytes()
        assert formed.call_count == 0


def test_next_jump_raises_when_the_bisection_does_not_converge():
    # delta = inf sends every probe to the exponential, and a stand-in exponential whose
    # norm stays 2e-10 above r at every midpoint and is below r only at t_max leaves every
    # halving undecided by more than the tolerance
    h = np.diag([1.0, 0.0]).astype(complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    lam, v, v_inv, _ = _eigensystem(h)
    r, t_max = 0.5, 1.0

    def stand_in(a):
        t = (1j * a[0, 0]).real  # a = -1j t h
        return math.sqrt(r + 2e-10 if t < t_max else r - 1e-3) * np.eye(2, dtype=complex)

    _, advance = dynamics._dense_stepper(None)
    step = partial(advance, (h, None, 2 * t_max))  # t_max is not the full segment
    with patch.object(dynamics, "expm", side_effect=stand_in) as exact:
        with pytest.raises(ArithmeticError):
            _next_jump(step, (lam, v, v_inv, np.inf), psi, r, t_max)
    assert exact.call_count == 201  # t_max, then one per halving


def assert_same_trajectory(a, b):
    assert a.jumps == b.jumps
    assert a.final_state.tobytes() == b.final_state.tobytes()


rates = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
drives = st.builds(lambda amp, phase: amp * np.exp(1j * phase),
                   st.floats(0.0, 1.0), st.floats(-np.pi, np.pi))


@st.composite
def jump_scenarios(draw):
    n_atoms = draw(st.integers(1, 5))
    params = SystemParams(n_atoms, g=1.0, kappa=draw(rates), gamma=draw(rates),
                          n_max=draw(st.integers(1, 3)))
    segments = draw(st.lists(st.builds(Pulse, st.tuples(*[drives] * n_atoms),
                                       st.floats(0.5, 10.0)), min_size=1, max_size=3))
    return build_space(params), Schedule(tuple(segments)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(jump_scenarios())
def test_eigen_probe_search_matches_the_exponential_search(scenario):
    # every eigen-probe (the one at t_max, the bracket's and the bisection's) is checked
    # against the exponential applied to the state its own search started from
    space, schedule, seed = scenario
    context, misses = {}, []

    def with_context(step, eig, psi, r, t):
        context.update(step=step, psi=psi, delta=eig[3])
        try:
            return _next_jump(step, eig, psi, r, t)
        finally:
            context.clear()

    def probe(lam, v, coeffs, t):
        out = eigen_probe(lam, v, coeffs, t)
        exact = context["step"](context["psi"], t)
        miss = abs(np.vdot(out, out).real - np.vdot(exact, exact).real)
        if not miss <= context["delta"] / 10:
            misses.append((miss, context["delta"]))
        return out

    eigen_probe = dynamics._eigen_probe
    with patch.object(dynamics, "_next_jump", with_context), \
            patch.object(dynamics, "_eigen_probe", probe):
        fast = sample_trajectory(space, schedule, seed)
    reference = sample_trajectory_expm(space, schedule, seed)
    assert_same_trajectory(fast, reference)
    assert not misses


def test_ill_conditioned_segment_probes_with_the_exponential():
    # kappa = 2 g puts the one-atom cavity block at its exceptional point, where the
    # two eigenvectors coalesce: cond_1(V) ~ 1e8 widens the margin in which a probe is
    # recomputed with the exponential, and the result stays the exponential search's
    space = build_space(SystemParams(1, g=1.0, kappa=2.0, gamma=0.0, n_max=1))
    schedule = Schedule((Pulse.off(1, 5.0),))
    (_, _, eig), = dynamics._sampler_plan(space, schedule).segments
    assert 1e-6 <= eig[3] < np.inf
    excited = space.basis_state(0, 1)
    jumped = 0
    for seed in range(200):
        fast = sample_trajectory(space, schedule, seed, excited)
        reference = sample_trajectory_expm(space, schedule, seed, excited)
        assert_same_trajectory(fast, reference)
        jumped += bool(fast.jumps)
    assert jumped > 0
    # a well-conditioned generator's margin stays far inside the tolerance
    assert _eigensystem(conditional_hamiltonian(two_atom_setup()[0]))[3] < \
        dynamics.NORM_BISECTION_TOL / 10


def test_singular_eigenvectors_probe_with_the_exponential():
    # an eigenvector matrix that cannot be inverted leaves delta = inf, so no probe
    # brackets the search and every probe of it is recomputed with the exponential
    space, _ = two_atom_setup(gamma=2e-3)
    schedule = Schedule((Pulse((0.1, -0.07j), 8.0),))
    with patch.object(np.linalg, "inv", side_effect=np.linalg.LinAlgError):
        (_, _, eig), = dynamics._sampler_plan(space, schedule).segments
    assert eig[3] == np.inf
    counts = []

    def search(step, eig, psi, r, t_max):
        # every step, whether it forms expm or applies the cached full-segment propagator,
        # is the exponential
        exact = Mock(wraps=step)
        with patch.object(dynamics, "_eigen_probe", wraps=dynamics._eigen_probe) as probe:
            out = _next_jump(exact, eig, psi, r, t_max)
        counts.append((probe.call_count, exact.call_count))
        return out

    symmetric = pair_vector(space, 0, "s")
    for seed in range(5):
        with patch.object(dynamics, "_next_jump", search):
            fast = sample_trajectory(space, schedule, seed, symmetric)
        reference = sample_trajectory_expm(space, schedule, seed, symmetric)
        assert_same_trajectory(fast, reference)
    assert counts and all(probes == exact > 0 for probes, exact in counts)


def thresholds(first, draw):
    """A threshold draw that returns the values in ``first``, then falls back to ``draw``."""
    pending = list(reversed(first))
    return lambda rng: pending.pop() if pending else draw(rng)


def compare_with_thresholds(space, schedule, seed, first, initial_state=None):
    with patch.object(dynamics, "_draw_threshold",
                      thresholds(first, dynamics._draw_threshold)):
        fast = sample_trajectory(space, schedule, seed, initial_state)
    with patch.object(oracles, "draw_threshold", thresholds(first, oracles.draw_threshold)):
        reference = sample_trajectory_expm(space, schedule, seed, initial_state)
    assert_same_trajectory(fast, reference)
    return reference


def path_end_norms(space, schedule):
    """Squared norm of the no-jump path at each segment end, by dense exponentials."""
    psi, ends = space.ground_state(), []
    for seg in schedule.segments:
        if seg.duration > 0:
            psi = expm(-1j * seg.duration * conditional_hamiltonian(space, seg)) @ psi
        ends.append(np.vdot(psi, psi).real)
    return ends


def test_first_jump_after_a_zero_duration_segment_matches_the_exponential_sampler():
    # trajectories from the ground state start at the first segment whose path norm falls
    # to the threshold; zero-duration segments neither propagate nor jump
    space, _ = two_atom_setup(gamma=0.05)
    schedule = Schedule((Pulse.off(2, 0.0), Pulse((0.3, 0.1j), 3.0), Pulse.off(2, 0.0),
                         Pulse((0.2, 0.3), 3.0), Pulse.off(2, 2.0)))
    starts = (0.0, 0.0, 3.0, 3.0, 6.0)
    ends = path_end_norms(space, schedule)
    assert ends[0] == 1.0 and ends[1] == ends[2] > ends[3] > ends[4]
    first_jump_segments = set()
    for seed in range(100):
        fast = sample_trajectory(space, schedule, seed)
        reference = sample_trajectory_expm(space, schedule, seed)
        assert_same_trajectory(fast, reference)
        if reference.jumps:
            first_jump_segments.add(3 if reference.jumps[0][0] > 3.0 else 1)
    assert first_jump_segments == {1, 3}
    for k in (1, 3, 4):
        r = 0.5 * (ends[k - 1] + ends[k])
        reference = compare_with_thresholds(space, schedule, k, [r])
        assert starts[k] < reference.jumps[0][0] <= starts[k] + schedule.segments[k].duration


@pytest.mark.parametrize("segment", [0, 1, 2])
def test_threshold_at_a_segment_end_norm_matches_the_exponential_sampler(segment):
    # r equal to the path's norm at a segment end: the jump search's root sits exactly
    # at its t_max, and the last segment's end is the schedule's t_max
    space, _ = two_atom_setup(gamma=2e-3)
    schedule = Schedule((Pulse((0.1, -0.07j), 6.0), Pulse((0.08, 0.1), 6.0),
                         Pulse.off(2, 4.0)))
    ends = path_end_norms(space, schedule)
    assert ends[0] > ends[1] > ends[2]
    assert dynamics._sampler_plan(space, schedule).end_norms == tuple(ends)
    for seed in range(3):
        reference = compare_with_thresholds(space, schedule, seed, [ends[segment]])
        assert reference.jumps
        start = 6.0 * segment
        assert start < reference.jumps[0][0] <= start + schedule.segments[segment].duration


def test_threshold_at_the_post_jump_remainder_norm_matches_the_exponential_sampler():
    # after a jump the remainder of the segment survives only if its norm exceeds the new
    # threshold; a threshold equal to that norm puts the next jump at the segment end
    space, _ = two_atom_setup()  # one channel, so the jump is the cavity's
    duration = 20.0
    schedule = Schedule((Pulse((0.3, -0.2), duration),))
    h = conditional_hamiltonian(space, schedule.segments[0])
    r1 = 0.9
    tau, psi_at = bisect_jump_expm(h, space.ground_state(), r1, duration)
    emitted = jump_operators(space)[0][1] @ psi_at
    psi = emitted / np.linalg.norm(emitted)
    remainder = expm(-1j * (duration - tau) * h) @ psi
    r2 = np.vdot(remainder, remainder).real
    assert 0 < r2 < 1
    reference = compare_with_thresholds(space, schedule, 3, [r1, r2])
    assert len(reference.jumps) >= 2
    assert reference.jumps[0][0] == tau
    assert reference.jumps[1][0] == pytest.approx(duration, abs=1e-6)
    # a threshold just inside the tolerance below that norm lets the remainder survive
    reference = compare_with_thresholds(space, schedule, 3,
                                        [r1, r2 - 0.5 * dynamics.NORM_BISECTION_TOL])
    assert [t for t, _ in reference.jumps] == [tau]


def test_segment_entered_after_a_jump_uses_the_cached_propagator():
    # seed 4 jumps twice in the pulse and survives the lasers-off segment, which it enters
    # with a jumped state: the cached full-duration propagator answers there, no expm
    space, _ = two_atom_setup()
    schedule = Schedule((Pulse((0.3, -0.2), 10.0), Pulse.off(2, 10.0)))
    step_off, duration_off, _ = dynamics._sampler_plan(space, schedule).segments[1]
    calls = []

    def search(step, eig, psi, r, t_max):
        with patch.object(dynamics, "expm", wraps=expm) as exact:
            out = _next_jump(step, eig, psi, r, t_max)
        if step is step_off:
            calls.append((t_max == duration_off, exact.call_count, out[0]))
        return out

    with patch.object(dynamics, "_next_jump", search):
        fast = sample_trajectory(space, schedule, 4)
    assert fast.jumps and all(t <= 10.0 for t, _ in fast.jumps)
    assert calls == [(True, 0, None)]
    assert_same_trajectory(fast, sample_trajectory_expm(space, schedule, 4))


def test_eigen_bracket_sides_are_verified_or_infinite():
    # a verified side holds the exponential's norm beyond the tolerance on its side of r;
    # a side that no probe verified stays infinite, so the bisection probes there
    space, _ = two_atom_setup(gamma=2e-3)
    h = conditional_hamiltonian(space, Pulse((0.1, -0.07j), 8.0))
    lam, v, v_inv, delta = _eigensystem(h)
    psi = pair_vector(space, 0, "s")
    coeffs = v_inv @ psi
    s = dynamics.NORM_BISECTION_TOL + 3 * delta
    t_max = 8.0

    def excess(t, r):
        x = expm(-1j * t * h) @ psi
        return np.vdot(x, x).real - r

    at_t_max = excess(t_max, 0.0)
    end = dynamics._eigen_probe(lam, v, coeffs, t_max)
    n_end = np.vdot(end, end).real
    for r in (0.9, 0.5, 0.1, 0.01, at_t_max):
        a, b = dynamics._eigen_bracket(lam, v, coeffs, 1.0, n_end, r, t_max, s)
        assert 0 < a < b
        assert excess(a, r) > dynamics.NORM_BISECTION_TOL
        if r == at_t_max:
            assert b == np.inf
        else:
            assert b <= t_max and excess(b, r) < -dynamics.NORM_BISECTION_TOL
            assert b - a < 1e-6
    assert dynamics._eigen_bracket(lam, v, coeffs, 1.0, n_end, 0.5, t_max, np.inf) == \
        (-np.inf, np.inf)


def test_sampler_plan_channel_list():
    schedule = Schedule((Pulse((0.1, -0.1), 2.0),))
    space, params = two_atom_setup(gamma=1e-3)
    assert dynamics._sampler_plan(space, schedule).channels[0] == ("cavity", "atom_1", "atom_2")
    lossless = build_space(SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=3))
    assert dynamics._sampler_plan(lossless, schedule).channels[0] == ("cavity",)


def test_sampler_plan_checks_the_dense_budget_before_building(monkeypatch):
    space, _ = two_atom_setup(gamma=1e-3)
    schedule = Schedule((Pulse((0.1, -0.1), 2.0), Pulse.off(2, 1.0)))
    dynamics._sampler_plan.cache_clear()
    monkeypatch.setattr(hilbert, "DENSE_BUDGET_BYTES", 1 << 10)  # one dim-16 matrix: 4 KiB
    with patch.object(dynamics, "conditional_hamiltonian") as build:
        with pytest.raises(DeskScaleError, match="sampler plan"):
            sample_trajectory(space, schedule, 0)
    assert build.call_count == 0
    monkeypatch.undo()
    assert sample_trajectory(space, schedule, 0).final_state.shape == (space.dim,)


@pytest.mark.parametrize("n_segments", [1, 3])
def test_sampler_stays_within_the_bytes_it_checks(n_segments):
    # dim 256, one dense matrix 1 MiB: each segment's build and a jump search's
    # exponential hold EXPM_PEAK_MATRICES on top of the held matrices
    space = build_space(SystemParams(n_atoms=6, kappa=1.0, gamma=0.05, n_max=3))
    rabi = tuple(0.3 * (-1) ** i for i in range(6))
    schedule = Schedule(tuple(Pulse(rabi, 12.0) if k % 2 == 0 else Pulse.off(6, 5.0)
                              for k in range(n_segments)))
    checked = {}
    peaks = {}
    with patch.object(dynamics, "check_budget",
                      lambda what, n_bytes: checked.setdefault(what, n_bytes)):
        for what, call in (("a sampler plan", partial(dynamics._sampler_plan, space, schedule)),
                           ("a trajectory ensemble", partial(run_ensemble, space, schedule, 1, 2))):
            dynamics._sampler_plan.cache_clear()
            tracemalloc.start()
            try:
                result = call()
                _, peaks[what] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    assert result.jump_records  # the jump searches ran
    # the channel tables and state vectors, O(N dim) bytes, are not counted: about
    # 120 KiB here
    assert all(peaks[what] <= checked[what] + (1 << 18) for what in peaks), (peaks, checked)


def test_cached_arrays_are_read_only():
    space, _ = two_atom_setup(gamma=1e-3)
    schedule = Schedule((Pulse((0.1, -0.1), 2.0),))
    plan = dynamics._sampler_plan(space, schedule)
    (step, _, eig), = plan.segments
    h, u, _ = step.args[0]  # the segment's dense step holds H_cond and its propagator
    labels, tables = plan.channels
    channels = jump_operators(space)
    assert labels == tuple(name for name, _ in channels)
    assert len(tables) == len(channels)
    assert all(np.array_equal(_scatter(space, table), op)
               for table, (_, op) in zip(tables, channels))
    cached = [atomic_lowering(space, 1), cavity_annihilation(space),
              *hilbert.lowering_entries(space), dfs_basis(space).vectors,
              h, u, *eig[:3], *plan.starts, plan.psi0, *(a for table in tables for a in table)]
    for a in cached:
        with pytest.raises(ValueError):
            a[1] *= -1


def test_norm_decay_balances_jump_weights():
    # -d/dt ||psi||^2 must equal the summed emission weights at every step
    space, params = two_atom_setup(gamma=2e-3)
    h = conditional_hamiltonian(space, Pulse((0.1, -0.07j), 1.0))
    ops = [op for _, op in jump_operators(space)]
    rng = np.random.default_rng(4)
    psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi0 /= np.linalg.norm(psi0)
    eps = 1e-4
    for t0 in (0.3, 2.0, 7.5):
        plus = propagate_conditional(h, psi0, t0 + eps)
        minus = propagate_conditional(h, psi0, t0 - eps)
        slope = (np.vdot(plus, plus).real - np.vdot(minus, minus).real) / (2 * eps)
        here = propagate_conditional(h, psi0, t0)
        weights = sum(np.vdot(op @ here, op @ here).real for op in ops)
        assert -slope == pytest.approx(weights, rel=1e-6)


def test_trajectory_ground_state_never_jumps():
    space, params = two_atom_setup(gamma=1e-3)
    schedule = Schedule((Pulse.off(2, 25.0),))
    for seed in range(5):
        traj = sample_trajectory(space, schedule, seed)
        assert traj.jumps == ()
        assert np.allclose(traj.final_state, space.ground_state())


def test_trajectory_single_photon_always_jumps_once():
    space, params = two_atom_setup()
    schedule = Schedule((Pulse.off(2, 60.0),))
    one_photon = space.basis_state(1, 0)
    for seed in range(8):
        traj = sample_trajectory(space, schedule, seed,
                                 initial_state=one_photon)
        assert traj.jumps
        assert len(traj.jumps) == 1
        assert traj.jumps[0][1] == "cavity"
        assert 0 < traj.jumps[0][0] < 60.0
        # lands on the ground state up to the accumulated global phase
        assert abs(np.vdot(space.ground_state(), traj.final_state)) == pytest.approx(1.0)


def test_trajectory_deterministic_for_fixed_seed():
    space, params = two_atom_setup(gamma=1e-3)
    model = build_slow_model(params, 0.1, -0.1)
    schedule = Schedule((Pulse((0.1, -0.1), entangling_pulse_duration(model)),))
    a = sample_trajectory(space, schedule, 1234)
    b = sample_trajectory(space, schedule, 1234)
    assert a.jumps == b.jumps
    assert np.array_equal(a.final_state, b.final_state)
    c = sample_trajectory(space, schedule, 1235)
    assert (a.jumps != c.jumps) or not np.array_equal(a.final_state, c.final_state)


def test_trajectory_jump_times_increase():
    space, params = two_atom_setup(gamma=5e-3)
    schedule = Schedule((Pulse((0.2, -0.2), 40.0), Pulse.off(2, 10.0)))
    found_multi = False
    for seed in range(30):
        traj = sample_trajectory(space, schedule, seed)
        times = [t for t, _ in traj.jumps]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(0 < t <= 50.0 for t in times)
        found_multi = found_multi or len(times) >= 2
    assert found_multi  # the scenario is lossy enough to see repeat jumps


def test_run_ensemble_trapped_start():
    space, params = two_atom_setup()
    schedule = Schedule((Pulse.off(2, 10.0),))
    result = run_ensemble(space, schedule, 64, seed=9)
    assert result.p0_estimate == 1.0
    assert result.rho_perp is None
    assert result.jump_records == ()
    assert abs(np.vdot(space.ground_state(), result.no_jump_state)) ** 2 == pytest.approx(1.0)


@pytest.mark.parametrize("n_atoms, gamma, n_samples", [(2, 0.0, 100), (2, 1e-3, 100),
                                                       (3, 1e-3, 30)])
def test_ensemble_survivors_share_the_no_jump_state(n_atoms, gamma, n_samples):
    params = SystemParams(n_atoms=n_atoms, g=1.0, kappa=1.0, gamma=gamma, n_max=3)
    space = build_space(params)
    rabi = tuple(0.1 * (-1) ** i for i in range(n_atoms))
    schedule = Schedule((Pulse(rabi, 20.0), Pulse.off(n_atoms, 10.0)))
    sampled = []

    def recording(*args):
        sampled.append(sample_trajectory(*args))
        return sampled[-1]

    with patch.object(dynamics, "sample_trajectory", recording):
        result = run_ensemble(space, schedule, n_samples, seed=5)
    assert len(sampled) == n_samples
    survivors = [traj for traj in sampled if not traj.jumps]
    assert 0 < len(survivors) < n_samples
    psi0 = result.no_jump_state
    assert psi0.tobytes() == dynamics._sampler_plan(space, schedule).psi0.tobytes()
    assert all(traj.final_state.tobytes() == psi0.tobytes() for traj in survivors)
    # rho_perp is a density matrix: Hermitian, unit trace, positive semidefinite
    rho_perp = result.rho_perp
    assert np.array_equal(rho_perp, rho_perp.conj().T)
    assert abs(np.trace(rho_perp) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho_perp).min() >= -1e-10
    # p0 |psi0><psi0| + (1 - p0) rho_perp is the average over every trajectory
    p0 = result.p0_estimate
    assert p0 == len(survivors) / n_samples
    mixture = p0 * np.outer(psi0, psi0.conj()) + (1.0 - p0) * result.rho_perp
    average = sum(np.outer(traj.final_state, traj.final_state.conj())
                  for traj in sampled) / n_samples
    assert np.max(np.abs(mixture - average)) < 1e-14


def test_ensemble_hands_out_copies_of_the_cached_no_jump_state():
    space, _ = two_atom_setup(gamma=1e-3)
    schedule = Schedule((Pulse((0.1, -0.1), 20.0), Pulse.off(2, 10.0)))
    cached = dynamics._sampler_plan(space, schedule).psi0
    survivors = []

    def recording(*args):
        traj = sample_trajectory(*args)
        if not traj.jumps:
            survivors.append(traj)
        return traj

    with patch.object(dynamics, "sample_trajectory", recording):
        first = run_ensemble(space, schedule, 50, seed=3)
    assert survivors
    for state in [first.no_jump_state] + [traj.final_state for traj in survivors]:
        assert state.flags.writeable and not np.shares_memory(state, cached)
        state[:] = np.nan
    second = run_ensemble(space, schedule, 50, seed=3)
    assert second.no_jump_state.tobytes() == cached.tobytes()
    assert second.p0_estimate == first.p0_estimate
    assert second.jump_records == first.jump_records
    assert second.rho_perp.tobytes() == first.rho_perp.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**128),
       indices=st.lists(st.integers(0, 10**5) | st.integers(2**32, 2**64 - 1),
                        min_size=1, max_size=8))
@example(seed=0, indices=[0, 2**32 - 1, 2**32])  # the spawn key's word boundary
@example(seed=2**128, indices=[10**5])  # a five-word seed
def test_child_pcg64_states_are_numpys_spawned_children(seed, indices):
    # pins the batch against numpy's own SeedSequence and PCG64: a change to either
    # stream (NEP 19 forbids one) fails here
    limbs = dynamics._child_pcg64_states(seed, np.array(indices, dtype=np.uint64))
    assert limbs.dtype == np.uint64 and limbs.shape == (len(indices), 4)
    for i, (s_hi, s_lo, i_hi, i_lo) in zip(indices, limbs.tolist()):
        state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state["state"]
        assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (state["state"], state["inc"])


@pytest.mark.parametrize("n_atoms, gamma, duration, n_samples, seed", [
    (2, 0.0, "auto", 600, 1926512726),  # the ensemble benchmark's config
    (4, 1e-3, 30.0, 260, 2**64 + 17),
])
def test_ensemble_has_the_bytes_of_the_spawned_reference_loop(n_atoms, gamma, duration,
                                                               n_samples, seed):
    params = SystemParams(n_atoms=n_atoms, g=1.0, kappa=1.0, gamma=gamma, n_max=3)
    space = build_space(params)
    rabi = tuple(0.05 * (-1) ** i for i in range(n_atoms))
    if duration == "auto":
        duration = entangling_pulse_duration(build_slow_model(params, *rabi))
    schedule = Schedule((Pulse(rabi, duration), Pulse.off(n_atoms, 10.0)))
    result = run_ensemble(space, schedule, n_samples, seed)
    reference = oracles.run_ensemble_spawned(space, schedule, n_samples, seed)
    assert reference.jump_records and reference.no_jump_state is not None
    assert result.jump_records == reference.jump_records
    assert result.p0_estimate == reference.p0_estimate
    assert result.no_jump_state.tobytes() == reference.no_jump_state.tobytes()
    assert result.rho_perp.tobytes() == reference.rho_perp.tobytes()


def test_ensemble_seeded_block_by_block_has_the_reference_bytes(monkeypatch):
    # one ENSEMBLE_CHUNK per seeding block: 600 trajectories take three blocks
    monkeypatch.setattr(dynamics, "SEED_BLOCK_CHUNKS", 1)
    space, _ = two_atom_setup(gamma=1e-3)
    schedule = Schedule((Pulse((0.3, -0.2), 10.0), Pulse.off(2, 5.0)))
    result = run_ensemble(space, schedule, 600, seed=11)
    reference = oracles.run_ensemble_spawned(space, schedule, 600, seed=11)
    assert {i // dynamics.ENSEMBLE_CHUNK for i, _, _ in reference.jump_records} == {0, 1, 2}
    assert result.jump_records == reference.jump_records
    assert result.p0_estimate == reference.p0_estimate
    assert result.rho_perp.tobytes() == reference.rho_perp.tobytes()


def test_ensemble_seeding_memory_does_not_grow_with_the_sample_count(monkeypatch):
    # lasers off on the ground state: no trajectory jumps, so what an ensemble allocates
    # past its cached plan is its seeding, one block of children's PCG64 states at a time
    monkeypatch.setattr(dynamics, "SEED_BLOCK_CHUNKS", 1)
    space, _ = two_atom_setup(gamma=1e-3)
    schedule = Schedule((Pulse.off(2, 5.0),))
    run_ensemble(space, schedule, 1, seed=2)  # builds the cached plan
    peaks = []
    for n_samples in (1_000, 10_000):
        tracemalloc.start()
        try:
            result = run_ensemble(space, schedule, n_samples, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.p0_estimate == 1.0 and not result.jump_records
        peaks.append(peak)
    # seeded in one batch, the 9 000 more children took about 2.3 MB more
    assert peaks[1] <= peaks[0] + (1 << 16), peaks


def test_run_ensemble_checks_the_no_jump_state_before_sampling():
    params = SystemParams(n_atoms=1, g=1.0, kappa=1.0, gamma=1.0, n_max=3)
    space = build_space(params)
    schedule = Schedule((Pulse((1.0,), 5000.0),))
    with patch.object(dynamics, "sample_trajectory") as sampler:
        with pytest.raises(ArithmeticError):
            run_ensemble(space, schedule, 10, seed=1)
    sampler.assert_not_called()


def test_no_jump_state_is_the_normalized_schedule_propagation():
    space, params = two_atom_setup(gamma=1e-3)
    schedule = Schedule((Pulse((0.1, -0.1), 20.0), Pulse.off(2, 10.0)))
    psi0 = run_ensemble(space, schedule, 1, seed=1).no_jump_state
    assert np.linalg.norm(psi0) == pytest.approx(1.0, abs=1e-14)
    psi = propagate_schedule(space, schedule)
    assert np.max(np.abs(psi0 - psi / np.linalg.norm(psi))) < 1e-12
    wrong = Schedule((Pulse.off(3, 1.0),))  # conditional_hamiltonian rejects it first
    with pytest.raises(ValueError):
        run_ensemble(space, wrong, 1, seed=1)
    with pytest.raises(ValueError):
        propagate_schedule(space, wrong)
    with pytest.raises(ValueError):
        propagate_schedule(build_space(SystemParams(n_atoms=5)), Schedule((Pulse.off(4, 1.0),)))
    with pytest.raises(ValueError):
        sample_trajectory(space, wrong, 1)


def test_master_equation_preserves_trace_and_trapped_states():
    space, params = two_atom_setup(gamma=1e-3)
    schedule = Schedule((Pulse((0.1, -0.1), 6.0),))
    rho0 = np.outer(space.ground_state(), space.ground_state())
    for t in (3.0, 6.0):
        rho = master_equation_evolve(space, params, schedule, rho0, t)
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10

    lossless_space, lossless = two_atom_setup(gamma=0.0)
    a = singlet_state(lossless_space)
    rho_a = np.outer(a, a.conj())
    rho = master_equation_evolve(lossless_space, lossless,
                                 Schedule((Pulse.off(2, 8.0),)), rho_a)
    assert np.max(np.abs(rho - rho_a)) < 1e-10


def test_master_equation_input_validation():
    space, params = two_atom_setup()
    schedule = Schedule((Pulse.off(2, 1.0),))
    bad = np.eye(space.dim, dtype=complex)  # trace != 1
    with pytest.raises(ValueError):
        master_equation_evolve(space, params, schedule, bad)
    rho0 = np.outer(space.ground_state(), space.ground_state())
    with pytest.raises(ValueError):
        master_equation_evolve(space, params, schedule, rho0, t=2.0)


def test_trajectories_average_to_master_equation():
    # unraveling equivalence on a modest ensemble, all channels active
    space, params = two_atom_setup(gamma=2e-3)
    model = build_slow_model(params, 0.1, -0.1)
    duration = entangling_pulse_duration(model)
    schedule = Schedule((Pulse((0.1, -0.1), duration),))
    n = 2000
    children = np.random.SeedSequence(2024).spawn(n)
    outers = np.empty((n, space.dim, space.dim), dtype=complex)
    survived = 0
    for k, child in enumerate(children):
        traj = sample_trajectory(space, schedule, child)
        outers[k] = np.outer(traj.final_state, traj.final_state.conj())
        survived += not traj.jumps
    rho_mc = outers.mean(axis=0)
    rho_me = master_equation_evolve(space, params, schedule,
                                    np.outer(space.ground_state(), space.ground_state()))
    stderr_re = outers.real.std(axis=0, ddof=1) / np.sqrt(n)
    stderr_im = outers.imag.std(axis=0, ddof=1) / np.sqrt(n)
    diff = rho_mc - rho_me
    assert np.all(np.abs(diff.real) <= 5.0 * stderr_re + 1e-9)
    assert np.all(np.abs(diff.imag) <= 5.0 * stderr_im + 1e-9)
    # raw survival must track the exact no-emission probability
    h = conditional_hamiltonian(space, schedule.segments[0])
    p0_exact = no_photon_probability(h, space.ground_state(), duration)
    binom = np.sqrt(p0_exact * (1 - p0_exact) / n)
    assert abs(survived / n - p0_exact) < 4.0 * binom


def test_three_atom_trajectories_average_to_master_equation():
    # several atomic channels and the eigen-probe search at dim 32
    params = SystemParams(n_atoms=3, g=1.0, kappa=1.0, gamma=2e-3, n_max=3)
    space = build_space(params)
    schedule = Schedule((Pulse((0.1, -0.1, 0.05j), 15.0),))
    n = 2000
    children = np.random.SeedSequence(2026).spawn(n)
    outers = np.empty((n, space.dim, space.dim), dtype=complex)
    for k, child in enumerate(children):
        psi = sample_trajectory(space, schedule, child).final_state
        outers[k] = np.outer(psi, psi.conj())
    rho_me = master_equation_evolve(space, params, schedule,
                                    np.outer(space.ground_state(), space.ground_state()))
    stderr_re = outers.real.std(axis=0, ddof=1) / np.sqrt(n)
    stderr_im = outers.imag.std(axis=0, ddof=1) / np.sqrt(n)
    diff = outers.mean(axis=0) - rho_me
    assert np.all(np.abs(diff.real) <= 5.0 * stderr_re + 1e-9)
    assert np.all(np.abs(diff.imag) <= 5.0 * stderr_im + 1e-9)


@pytest.mark.parametrize("n_atoms, n_samples", [(4, 1500), (5, 600)])
def test_first_jumps_follow_the_waiting_time_distribution(n_atoms, n_samples):
    # beyond the Lindblad oracle's reach (dim 32): from the ground state the first jump
    # has the CDF F(t) = 1 - ||U(t) psi0||^2, and channel k takes the share
    # int_0^T ||L_k U(s) psi0||^2 ds of the first jumps (Dalibard, Castin & Molmer, PRL 68,
    # 580 (1992)).  Bounds fixed before the run: the 99.9 % KS value 1.95 / sqrt(n) and a
    # binomial |z| <= 3.3 per channel.  N = 5 (dim 128) takes the Taylor steps here.
    space = build_space(SystemParams(n_atoms=n_atoms, kappa=1.0, gamma=0.05, n_max=3))
    rabi = tuple(0.05 * (-1) ** i for i in range(n_atoms))
    schedule = Schedule((Pulse(rabi, 15.0),))
    times = np.linspace(0.0, 15.0, 601)
    states = propagate_schedule(space, schedule, times)
    cdf = 1.0 - np.linalg.norm(states, axis=1) ** 2
    first = {}
    for idx, t, channel in run_ensemble(space, schedule, n_samples, seed=1).jump_records:
        first.setdefault(idx, (t, channel))
    jump_times = np.sort([t for t, _ in first.values()])
    model = np.interp(jump_times, times, cdf)
    ranks = np.arange(1, jump_times.size + 1) / n_samples
    ks = max(np.abs(ranks - model).max(), np.abs(ranks - 1.0 / n_samples - model).max(),
             abs(jump_times.size / n_samples - cdf[-1]))
    assert ks <= 1.95 / np.sqrt(n_samples), ks
    shares = {}
    for label, op in jump_operators(space):
        shares[label] = np.trapezoid(np.linalg.norm(states @ op.T, axis=1) ** 2, times)
        count = sum(channel == label for _, channel in first.values())
        z = (count - n_samples * shares[label]) / np.sqrt(
            n_samples * shares[label] * (1.0 - shares[label]))
        assert abs(z) <= 3.3, (label, z)
    # the shares exhaust the jump probability: d||psi||^2/dt = -sum_k ||L_k psi||^2
    assert sum(shares.values()) == pytest.approx(cdf[-1], rel=1e-5)


def test_zeno_confinement_regression():
    # population outside the trapped pair stays bounded by the drive scale;
    # the 1.5 prefactor is a frozen regression value (measured max 0.81)
    cases = [((0.05, -0.05), "ground"), ((0.03, -0.03), "ground"),
             ((0.05, 0.0), "ground"), ((0.02, 0.05), "ground"),
             ((0.05, -0.05), "singlet")]
    space, params = two_atom_setup()
    proj = dfs_projector(space)
    from scipy.linalg import expm
    for rabi, start in cases:
        wp = abs(rabi[0] + rabi[1]) / (2 * np.sqrt(2.0))
        wm = abs(rabi[0] - rabi[1]) / (2 * np.sqrt(2.0))
        scale = 4.0 * (wp ** 2 + wm ** 2) / params.g ** 2
        duration = np.pi / (2 * wm)
        h = conditional_hamiltonian(space, Pulse(rabi, duration))
        steps = 300
        u = expm(-1j * (duration / steps) * h)
        psi = space.ground_state() if start == "ground" else singlet_state(space)
        worst = 0.0
        for _ in range(steps):
            psi = u @ psi
            norm_sq = np.vdot(psi, psi).real
            outside = 1.0 - np.vdot(psi, proj @ psi).real / norm_sq
            worst = max(worst, outside)
        assert worst < 1.5 * scale
        assert worst < 10.0 * scale


def test_truncation_convergence():
    results = {}
    for n_max in (3, 5):
        space, params = two_atom_setup(n_max=n_max)
        model = build_slow_model(params, 0.1, -0.1)
        duration = entangling_pulse_duration(model)
        h = conditional_hamiltonian(space, Pulse((0.1, -0.1), duration))
        results[n_max] = no_photon_probability(h, space.ground_state(), duration)
    assert abs(results[3] - results[5]) < 1e-6


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(())
    with pytest.raises(ValueError):
        Schedule((Pulse((0.1,), 1.0), Pulse((0.1, 0.2), 1.0)))
    sched = Schedule((Pulse((0.1, 0.2), 1.5), Pulse.off(2, 2.5)))
    assert sched.total_duration == pytest.approx(4.0)
    assert all(seg.n_atoms == 2 for seg in sched.segments)
