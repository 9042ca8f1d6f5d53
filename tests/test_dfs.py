import csv
import json
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, null_space

from dfs_cavity import (Pulse, SystemParams, build_space, conditional_hamiltonian, dfs,
                        dfs_basis, dfs_dimension, dicke_degeneracy, export_basis,
                        generating_states, laser_hamiltonian)
from oracles import (basis_projector, collective_lowering, dfs_projector,
                     effective_hamiltonian, embed_vacuum, four_atom_effective_matrix,
                     four_atom_trapped_states, greedy_pairing_basis, pair_vector,
                     singlet_product, tableau_pairings)


def space_of(n_atoms, n_max=1, **rates):
    return build_space(SystemParams(n_atoms=n_atoms, n_max=n_max, **rates))


def atomic_collective_lowering(n_atoms):
    """J_minus restricted to the cavity-vacuum sector (n_max = 0 space)."""
    return collective_lowering(space_of(n_atoms, n_max=0))


@pytest.mark.parametrize("n_atoms, dim", [(2, 2), (4, 6), (6, 20)])
def test_dimension_examples(n_atoms, dim):
    assert dfs_dimension(n_atoms) == dim


def test_dimension_matches_kernel_rank():
    for n_atoms in range(1, 7):
        kernel = null_space(atomic_collective_lowering(n_atoms))
        assert kernel.shape[1] == dfs_dimension(n_atoms)


def test_dicke_degeneracy_examples():
    assert dicke_degeneracy(4, 1) == 3
    assert dicke_degeneracy(4, 0) == 2
    assert dicke_degeneracy(2, 1) == 1
    assert dicke_degeneracy(5, 2.5) == 1
    assert dicke_degeneracy(5, 1.5) == 4


def test_dicke_degeneracy_validation():
    with pytest.raises(ValueError):
        dicke_degeneracy(4, 0.5)  # wrong parity
    with pytest.raises(ValueError):
        dicke_degeneracy(4, 3)  # l > N/2
    with pytest.raises(ValueError):
        dicke_degeneracy(4, -1)


def test_dicke_degeneracies_sum_to_dimension():
    for n_atoms in range(1, 9):
        total = sum(dicke_degeneracy(n_atoms, n_atoms / 2 - n)
                    for n in range(n_atoms // 2 + 1))
        assert total == dfs_dimension(n_atoms)


def test_generating_states_counts():
    assert generating_states(4, 1).shape[1] == 3
    assert generating_states(2, 1).shape[1] == 1
    assert generating_states(3, 1).shape[1] == 2
    assert generating_states(4, 2).shape[1] == 2
    with pytest.raises(ValueError):
        generating_states(4, 3)


@pytest.mark.parametrize("n_atoms, n_pairs", [(n_atoms, n_pairs) for n_atoms in range(1, 13)
                                              for n_pairs in range(n_atoms // 2 + 1)])
def test_generating_states_have_the_bytes_of_the_loop_products(n_atoms, n_pairs):
    gens = generating_states(n_atoms, n_pairs)
    loop = np.array([singlet_product(n_atoms, pairs)
                     for pairs in tableau_pairings(n_atoms, n_pairs)]).T
    assert gens.shape == loop.shape and gens.dtype == loop.dtype
    assert gens.tobytes() == loop.tobytes()


def test_generating_states_are_trapped():
    for n_atoms, n_pairs in [(2, 1), (3, 1), (4, 2), (5, 2)]:
        jm = atomic_collective_lowering(n_atoms)
        for vec in generating_states(n_atoms, n_pairs).T:
            assert np.linalg.norm(jm @ vec) < 1e-12


def test_generating_states_span_rank():
    # one independent generator per trapped state, in every sector
    for n_atoms in range(1, 12):
        for n_pairs in range(n_atoms // 2 + 1):
            gens = generating_states(n_atoms, n_pairs)
            assert (gens.shape[1] == np.linalg.matrix_rank(gens, tol=1e-10)
                    == dicke_degeneracy(n_atoms, n_atoms / 2 - n_pairs))


def test_dfs_basis_matches_greedy_pairing_oracle():
    # the basis is a Householder QR per sector and the oracle Gram-Schmidt, so they agree
    # to rounding: at most 4.4e-16 apart at N <= 8
    for n_atoms in range(1, 9):
        basis = dfs_basis(space_of(n_atoms, n_max=1))
        oracle = greedy_pairing_basis(n_atoms)
        np.testing.assert_allclose(basis.vectors[:, : basis.space.n_configs], oracle,
                                   rtol=0, atol=1e-14)
        # dfs_basis.csv would print a -0.0 amplitude as -0
        parts = basis.vectors.view(float)
        assert not np.signbit(parts[parts == 0]).any()


def test_dfs_basis_two_atoms():
    space = space_of(2, n_max=3)
    basis = dfs_basis(space)
    assert len(basis) == 2
    assert np.allclose(basis.vectors[0], space.ground_state())
    singlet = (space.basis_state(0, 0b10) - space.basis_state(0, 0b01)) / np.sqrt(2.0)
    assert np.allclose(basis.vectors[1], singlet)
    assert basis.excitations == (0, 1)
    assert basis.dicke_l == (1.0, 0.0)


def test_dfs_basis_single_atom():
    space = space_of(1, n_max=2)
    basis = dfs_basis(space)
    assert len(basis) == 1
    assert np.allclose(basis.vectors[0], space.ground_state())


def test_dfs_basis_four_atoms_spans_trapped_sextet():
    space = space_of(4, n_max=1)
    basis = dfs_basis(space)
    assert len(basis) == 6
    assert basis.sector_counts() == {0: 1, 1: 3, 2: 2}
    oracle = np.array([embed_vacuum(space, v)
                       for v in four_atom_trapped_states().values()])
    p_oracle = oracle.T @ oracle.conj()
    assert np.linalg.norm(basis_projector(basis) - p_oracle) < 1e-10


def test_dfs_basis_properties():
    for n_atoms in range(1, 7):
        space = space_of(n_atoms, n_max=1)
        basis = dfs_basis(space)
        assert len(basis) == dfs_dimension(n_atoms)
        gram = basis.vectors @ basis.vectors.conj().T
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10
        jm = collective_lowering(space)
        for vec in basis.vectors:
            assert np.linalg.norm(jm @ vec) < 1e-10
            # support only on the cavity-vacuum block
            assert np.linalg.norm(vec[space.n_configs:]) == 0.0


def test_projector_identities():
    space = space_of(4, n_max=1)
    p = dfs_projector(space)
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    assert np.trace(p).real == pytest.approx(6.0, abs=1e-10)


def test_projected_drive_equals_projected_conditional_when_lossless():
    params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
    space = build_space(params)
    p = dfs_projector(space)
    pulse = Pulse((0.1, 0.04j), 1.0)
    h_cond = conditional_hamiltonian(space, pulse)
    h_laser = laser_hamiltonian(space, pulse)
    assert np.max(np.abs(p @ h_cond @ p - p @ h_laser @ p)) < 1e-14


def test_effective_hamiltonian_two_atoms():
    params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
    space = build_space(params)
    omega1, omega2 = 0.05 * np.exp(0.7j), -0.03
    h_eff = effective_hamiltonian(space, Pulse((omega1, omega2), 1.0), params)
    g0, a0 = pair_vector(space, 0, "g"), pair_vector(space, 0, "a")
    wm = (omega1 - omega2) / (2 * np.sqrt(2.0))
    expected = wm * np.outer(g0, a0.conj())
    expected = expected + expected.conj().T
    assert np.max(np.abs(h_eff - expected)) < 1e-12
    assert np.max(np.abs(h_eff - h_eff.conj().T)) < 1e-12

    # equal drives leave the trapped pair untouched
    h_zero = effective_hamiltonian(space, Pulse((0.1, 0.1), 1.0), params)
    assert np.max(np.abs(h_zero)) < 1e-14

    # opposite real drives give the g<->a element omega1 / sqrt(2)
    h_op = effective_hamiltonian(space, Pulse((0.1, -0.1), 1.0), params)
    assert np.vdot(g0, h_op @ a0) == pytest.approx(0.1 / np.sqrt(2.0), abs=1e-14)


def test_effective_hamiltonian_four_atoms():
    params = SystemParams(n_atoms=4, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
    space = build_space(params)
    rabi = (0.04 * np.exp(0.3j), -0.02, 0.01j, 0.03)
    h_eff = effective_hamiltonian(space, Pulse(rabi, 1.0), params)
    expected = four_atom_effective_matrix(space, rabi)
    assert np.max(np.abs(h_eff - expected)) < 1e-12

    h_same = effective_hamiltonian(space, Pulse((0.1, 0.1, 0.1, 0.1), 1.0), params)
    assert np.max(np.abs(h_same)) < 1e-14


def test_trapped_states_are_stationary():
    # lossless atoms: conditional evolution leaves every basis vector alone
    for n_atoms in (2, 3, 4):
        params = SystemParams(n_atoms=n_atoms, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
        space = build_space(params)
        h = conditional_hamiltonian(space)
        basis = dfs_basis(space)
        for vec in basis.vectors:
            assert np.linalg.norm(h @ vec) < 1e-12


def test_trapped_states_decay_only_by_spontaneous_emission():
    params = SystemParams(n_atoms=4, g=1.0, kappa=1.0, gamma=2e-3, n_max=1)
    space = build_space(params)
    h = conditional_hamiltonian(space)
    basis = dfs_basis(space)
    t = 3.0
    u = expm(-1j * t * h)
    for vec, n_exc in zip(basis.vectors, basis.excitations):
        norm_sq = np.linalg.norm(u @ vec) ** 2
        assert norm_sq == pytest.approx(np.exp(-2 * params.gamma * n_exc * t), rel=1e-10)


def test_export_basis_roundtrip(tmp_path):
    space = space_of(4, n_max=1)
    basis = dfs_basis(space)
    csv_path = tmp_path / "basis.csv"
    sidecar_path = tmp_path / "basis.json"
    export_basis(basis, csv_path, sidecar_path)
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    rebuilt = np.zeros_like(basis.vectors)
    for row in rows:
        rebuilt[int(row["vector_index"]), int(row["flat_basis_index"])] = (
            float(row["re_amplitude"]) + 1j * float(row["im_amplitude"]))
    assert np.max(np.abs(rebuilt - basis.vectors)) < 1e-15
    sidecar = json.loads(sidecar_path.read_text())
    assert sidecar["dfs_dimension"] == 6
    assert sidecar["sector_counts"] == {"0": 1, "1": 3, "2": 2}
    assert [s["excitation"] for s in sidecar["sectors"]] == [0, 1, 1, 1, 2, 2]


def traced_peak(call, *args):
    """Traced peak in bytes of call(*args) under tracemalloc, and its result."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_export_basis_writes_one_vector_at_a_time(tmp_path):
    # the N = 9, n_max = 3 basis: 126 vectors of 2048 amplitudes, 4.1 MB; as Python
    # objects all at once about 10 MB, one vector at a time about 0.1 MB
    basis = dfs_basis(space_of(9, n_max=3))
    peak, _ = traced_peak(export_basis, basis, tmp_path / "basis.csv", tmp_path / "basis.json")
    assert peak < 1 << 20


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 11), st.sampled_from([0, 1, 3]))
@example(1, 0)
@example(11, 3)
def test_basis_build_stays_within_the_bytes_it_checks(n_atoms, n_max):
    space = space_of(n_atoms, n_max=n_max)
    checked = []
    with patch.object(dfs, "check_budget", lambda what, n_bytes: checked.append(n_bytes)):
        peak, basis = traced_peak(dfs_basis.__wrapped__, space)  # not the cached basis
    assert len(checked) == 1 and len(basis) == dfs_dimension(n_atoms)
    assert peak <= checked[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example(1, 0, 0)
@example(8, 3, 0)
def test_populations_read_the_trapped_component(n_atoms, n_max, seed):
    space = space_of(n_atoms, n_max=n_max)
    basis = dfs_basis(space)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    norm2 = np.vdot(psi, psi).real
    pops = basis.populations(psi)
    assert len(pops) == len(basis) and all(type(p) is float for p in pops)
    assert all(0.0 <= p <= norm2 for p in pops)
    projected = dfs_projector(space) @ psi
    assert abs(sum(pops) - np.vdot(projected, projected).real) <= 1e-14 * norm2
    # a normalized state inside the trapped subspace is read whole
    coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    trapped = (coeffs / np.linalg.norm(coeffs)) @ basis.vectors
    assert abs(sum(basis.populations(trapped)) - 1.0) <= 1e-14
