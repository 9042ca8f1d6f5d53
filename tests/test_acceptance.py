"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import time

import numpy as np
from scipy.linalg import null_space

from dfs_cavity import (Pulse, Schedule, SystemParams, build_slow_model, build_space,
                        conditional_hamiltonian, dfs_basis, dfs_dimension,
                        entangling_pulse_duration, p0_closed_form, propagate_conditional,
                        sample_trajectory)
from dfs_cavity.cli import (DEFAULT_GAMMA_LIST, DEFAULT_OMEGA1_MAX, DEFAULT_OMEGA1_MIN,
                            DEFAULT_OMEGA1_POINTS, _sweep_curve)
from oracles import (basis_projector, collective_lowering, effective_hamiltonian,
                     embed_vacuum, four_atom_effective_matrix, four_atom_trapped_states,
                     integrate_pair_amplitudes, master_equation_evolve, no_photon_probability,
                     pair_ladder_matrix, pair_vector, two_atom_pair_basis)

# Frozen reference for criterion 7 (omega1 = -omega2 = 0.02, kappa = g,
# gamma = 0, full-rotation pulse): no-emission probability from a DOP853
# integration of the pair-basis amplitude equations at rtol 1e-12.
CRITERION7_P0 = 0.968066820138


def report(num, label, ok):
    print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_criterion_01_subspace_dimension_matches_kernel_rank():
    # CPU time of this process, so a loaded machine does not fail the bound
    start = time.process_time()
    ok = True
    for n_atoms in range(1, 9):
        space = build_space(SystemParams(n_atoms=n_atoms, n_max=0))
        kernel_dim = null_space(collective_lowering(space)).shape[1]
        expected = math.comb(n_atoms, n_atoms // 2)
        ok = ok and kernel_dim == expected == dfs_dimension(n_atoms)
    elapsed = time.process_time() - start
    ok = ok and elapsed < 5.0
    report(1, "trapped-subspace dimension, N = 1..8", ok)


def test_criterion_02_four_atom_basis_span():
    space = build_space(SystemParams(n_atoms=4, n_max=1))
    basis = dfs_basis(space)
    oracle = np.array([embed_vacuum(space, v)
                       for v in four_atom_trapped_states().values()])
    p_oracle = oracle.T @ oracle.conj()
    distance = np.linalg.norm(basis_projector(basis) - p_oracle)
    report(2, "four-atom basis spans the trapped sextet",
           len(basis) == 6 and distance < 1e-9)


def test_criterion_03_trapped_states_keep_unit_survival():
    ok = True
    for n_atoms in (2, 3, 4):
        params = SystemParams(n_atoms=n_atoms, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
        space = build_space(params)
        h = conditional_hamiltonian(space)
        horizon = 10.0 / params.kappa
        for vec in dfs_basis(space).vectors:
            ok = ok and abs(no_photon_probability(h, vec, horizon) - 1.0) < 1e-9
    report(3, "trapped states survive undisturbed, N = 2..4", ok)


def test_criterion_04_pair_basis_form_of_the_generator():
    ok = True
    for omega1, omega2, g, kappa, gamma in [
            (0.05 * np.exp(0.4j), 0.02 - 0.03j, 0.8, 1.1, 3e-3),
            (0.1, -0.1, 1.0, 1.0, 0.0)]:
        params = SystemParams(n_atoms=2, g=g, kappa=kappa, gamma=gamma, n_max=3)
        space = build_space(params)
        h = conditional_hamiltonian(space, Pulse((omega1, omega2), 1.0))
        w = two_atom_pair_basis(space)
        expected = pair_ladder_matrix(3, g, kappa, gamma, omega1, omega2)
        ok = ok and np.max(np.abs(w.conj().T @ h @ w - expected)) < 1e-12
    report(4, "two-atom generator matches the explicit pair-basis ladder", ok)


def test_criterion_05_closed_form_against_ode_integration():
    start = time.monotonic()
    worst = 0.0
    for omega1 in (0.01, 0.03, 0.1):
        for gamma in (0.0, 1e-4, 1e-3):
            params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, n_max=3)
            model = build_slow_model(params, omega1, -omega1)
            duration = entangling_pulse_duration(model)
            c = integrate_pair_amplitudes(params, omega1, -omega1, duration)
            trapped = abs(c[0, 0]) ** 2 + abs(c[0, 1]) ** 2
            rel = abs(trapped - p0_closed_form(model, duration)) / trapped
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(5, f"closed form vs ODE integration (worst rel {worst:.4f})",
           worst < 0.02 and elapsed < 30.0)


def test_criterion_06_success_curves():
    grid = np.geomspace(DEFAULT_OMEGA1_MIN, DEFAULT_OMEGA1_MAX, DEFAULT_OMEGA1_POINTS)
    curves = {}
    for gamma in DEFAULT_GAMMA_LIST:
        rows = _sweep_curve(gamma, 1.0, 3, 0.0, grid)
        curves[gamma] = np.array([[r[3], r[5]] for r in rows])  # p0_numeric, fidelity
    lossless = curves[0.0][:, 0]
    monotone = bool(np.all(np.diff(lossless) < 0) and lossless[0] > 0.998)
    unique_peaks = True
    for gamma in DEFAULT_GAMMA_LIST[1:]:
        vals = curves[gamma][:, 0]
        peaks = [i for i in range(1, len(vals) - 1)
                 if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        unique_peaks = unique_peaks and len(peaks) == 1 and vals.argmax() not in (
            0, len(vals) - 1)
    fidelity_ok = all(bool(np.all(c[:, 1] > 0.99)) for c in curves.values())
    report(6, "success curves: lossless monotone, lossy single optimum, fidelity > 0.99",
           monotone and unique_peaks and fidelity_ok)


def test_criterion_07_entangled_state_preparation():
    params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=3)
    space = build_space(params)
    model = build_slow_model(params, 0.02, -0.02)
    duration = entangling_pulse_duration(model)
    h = conditional_hamiltonian(space, Pulse((0.02, -0.02), duration))
    psi = propagate_conditional(h, space.ground_state(), duration)
    p0 = np.vdot(psi, psi).real
    overlap = abs(np.vdot(pair_vector(space, 0, "a"), psi / np.sqrt(p0))) ** 2
    # the frozen target must itself still be reproducible by the oracle
    c = integrate_pair_amplitudes(params, 0.02, -0.02, duration, rtol=1e-12, atol=1e-14)
    oracle_p0 = float(np.sum(np.abs(c) ** 2))
    ok = (abs(oracle_p0 - CRITERION7_P0) < 1e-8
          and abs(p0 - CRITERION7_P0) / CRITERION7_P0 < 0.01
          and overlap > 0.999)
    report(7, f"full-rotation pulse (p0 {p0:.6f}, overlap {overlap:.6f})", ok)


def test_criterion_08_trajectories_against_master_equation():
    start = time.monotonic()
    params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=3)
    space = build_space(params)
    omega1 = 0.05
    model = build_slow_model(params, omega1, -omega1)
    duration = entangling_pulse_duration(model)
    schedule = Schedule((Pulse((omega1, -omega1), duration), Pulse.off(2, 10.0)))
    p_cf = p0_closed_form(model, duration)

    n = 10_000
    children = np.random.SeedSequence(20250810).spawn(n)
    outers = np.empty((n, space.dim, space.dim), dtype=complex)
    survived = 0
    for k, child in enumerate(children):
        traj = sample_trajectory(space, schedule, child)
        outers[k] = np.outer(traj.final_state, traj.final_state.conj())
        survived += not traj.jumps
    fraction = survived / n
    sigma = np.sqrt(p_cf * (1.0 - p_cf) / n)
    fraction_ok = abs(fraction - p_cf) < 3.0 * sigma

    rho_mc = outers.mean(axis=0)
    rho0 = np.outer(space.ground_state(), space.ground_state())
    rho_me = master_equation_evolve(space, params, schedule, rho0)
    stderr_re = outers.real.std(axis=0, ddof=1) / np.sqrt(n)
    stderr_im = outers.imag.std(axis=0, ddof=1) / np.sqrt(n)
    diff = rho_mc - rho_me
    # absolute floor: entries fed only by rare late jumps carry true values
    # ~4e-7, far below the ~1e-2 sampling resolution of this ensemble size,
    # and their sample-based stderr collapses to zero when none are drawn
    atol = 1e-6
    entries_ok = bool(np.all(np.abs(diff.real) <= 5.0 * stderr_re + atol)
                      and np.all(np.abs(diff.imag) <= 5.0 * stderr_im + atol))
    elapsed = time.monotonic() - start
    report(8, f"trajectory ensemble vs Lindblad evolution "
              f"(fraction {fraction:.4f} vs {p_cf:.4f}, {elapsed:.0f}s)",
           fraction_ok and entries_ok and elapsed < 120.0)


def test_criterion_09_projected_drive_identities():
    params2 = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
    space2 = build_space(params2)
    omega1, omega2 = 0.07 * np.exp(0.2j), -0.03 + 0.01j
    h2 = effective_hamiltonian(space2, Pulse((omega1, omega2), 1.0), params2)
    g0, a0 = pair_vector(space2, 0, "g"), pair_vector(space2, 0, "a")
    block = (omega1 - omega2) / (2.0 * np.sqrt(2.0)) * np.outer(g0, a0.conj())
    ok = np.max(np.abs(h2 - (block + block.conj().T))) < 1e-12

    params4 = SystemParams(n_atoms=4, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
    space4 = build_space(params4)
    rabi = (0.04, -0.02 + 0.03j, 0.05j, 0.01)
    h4 = effective_hamiltonian(space4, Pulse(rabi, 1.0), params4)
    ok = ok and np.max(np.abs(h4 - four_atom_effective_matrix(space4, rabi))) < 1e-12
    report(9, "projected drive matches the explicit two- and four-atom forms", ok)


def test_criterion_10_truncation_robustness():
    values = {}
    for n_max in (3, 5):
        params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=n_max)
        space = build_space(params)
        model = build_slow_model(params, 0.1, -0.1)
        duration = entangling_pulse_duration(model)
        h = conditional_hamiltonian(space, Pulse((0.1, -0.1), duration))
        values[n_max] = no_photon_probability(h, space.ground_state(), duration)
    delta = abs(values[3] - values[5])
    report(10, f"survival probability stable under deeper truncation ({delta:.2e})",
           delta < 1e-6)
