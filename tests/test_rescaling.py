"""Power-of-two rescaling: 2g, 2kappa, 2gamma and 2 Omega_i with every duration halved.

Scaling by two only moves a binary exponent, so doubling every rate doubles
each entry of H_cond exactly, and halving every duration leaves each product
t H_cond, each Taylor sub-step count and each jump search's norms as they
were.  So the no-jump evolution keeps its bytes at any N, dense (up to
DENSE_MAX_DIM) and Taylor (above), and the sampler draws the same jumps at
exactly half the times.  No oracle is needed, only a second run: this is a
byte check where the dense oracles no longer reach.  Rates, drives and
durations are 0 or at least 1e-6, so no product falls into the subnormal
range, where halving rounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfs_cavity import Pulse, Schedule, SystemParams, build_space, propagate_schedule, run_ensemble
from dfs_cavity.dynamics import DENSE_MAX_DIM


def zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi), st.floats(-hi, -lo))


def doubled(params, schedule):
    """The same run at twice every rate and half every duration."""
    fast = SystemParams(n_atoms=params.n_atoms, g=2 * params.g, kappa=2 * params.kappa,
                        gamma=2 * params.gamma, n_max=params.n_max)
    segments = tuple(Pulse(tuple(2 * r for r in seg.rabi), seg.duration / 2)
                     for seg in schedule.segments)
    return fast, Schedule(segments)


@st.composite
def rescaling_cases(draw, n_atoms, n_max, rates, drive, durations):
    kappa, gamma = rates
    params = SystemParams(n_atoms=n_atoms, g=draw(st.floats(0.25, 2.0)), kappa=draw(kappa),
                          gamma=draw(gamma), n_max=draw(n_max))
    pulses = draw(st.lists(st.builds(lambda rabi, d: Pulse(tuple(rabi), d),
                                     st.lists(drive, min_size=n_atoms, max_size=n_atoms),
                                     durations), min_size=1, max_size=2))
    # a lasers-off tail, as a config's settle key appends
    return params, Schedule((*pulses, Pulse.off(n_atoms, draw(durations))))


def assert_same_schedule_bytes(params, schedule):
    fast, halved = doubled(params, schedule)
    space, fast_space = build_space(params), build_space(fast)
    ends = np.cumsum([0.0] + [seg.duration for seg in schedule.segments])
    times = np.unique(np.concatenate((ends, 0.3 * ends[-1:], 0.8 * ends[-1:])))
    rows = propagate_schedule(space, schedule, times)
    assert propagate_schedule(fast_space, halved, times / 2).tobytes() == rows.tobytes()
    assert propagate_schedule(fast_space, halved).tobytes() == rows[-1].tobytes()


@pytest.mark.parametrize("n_atoms", range(2, 9))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_doubled_rates_over_halved_durations_keep_the_schedule_bytes(n_atoms, data):
    # dim 4 to 1024: both sides of DENSE_MAX_DIM are stepped
    rates = (st.just(0.0) | st.floats(1e-6, 2.0), st.just(0.0) | st.floats(1e-6, 1.0))
    drive = st.builds(complex, zero_or(1e-6, 1.0), zero_or(1e-6, 1.0))
    durations = st.just(0.0) | st.floats(1e-6, 40.0)
    assert_same_schedule_bytes(*data.draw(rescaling_cases(n_atoms, st.integers(0, 3), rates,
                                                          drive, durations)))


def test_doubled_rates_over_halved_durations_keep_the_ten_atom_schedule_bytes():
    params = SystemParams(n_atoms=10, g=1.0, kappa=1.0, gamma=1e-3, n_max=1)  # dim 2048
    assert build_space(params).dim > DENSE_MAX_DIM
    assert_same_schedule_bytes(params, Schedule((Pulse((0.05, -0.05) * 5, 7.5),
                                                 Pulse.off(10, 2.5))))


@pytest.mark.parametrize("n_atoms", [2, 3, 4])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_doubled_rates_over_halved_durations_keep_the_ensemble(n_atoms, data, seed):
    # rates, drives and durations at which samples emit
    rates = (st.floats(0.25, 2.0), st.floats(0.005, 0.1))
    drive = st.builds(complex, st.floats(0.1, 1.0), zero_or(1e-6, 1.0))
    params, schedule = data.draw(rescaling_cases(n_atoms, st.integers(1, 3), rates, drive,
                                                 st.floats(10.0, 40.0)))
    fast, halved = doubled(params, schedule)
    slow_run = run_ensemble(build_space(params), schedule, 50, seed)
    fast_run = run_ensemble(build_space(fast), halved, 50, seed)
    assert slow_run.jump_records
    assert fast_run.p0_estimate == slow_run.p0_estimate
    assert fast_run.no_jump_state.tobytes() == slow_run.no_jump_state.tobytes()
    assert fast_run.jump_records == tuple((i, t / 2, chan) for i, t, chan in slow_run.jump_records)
