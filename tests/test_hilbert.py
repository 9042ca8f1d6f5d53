import tracemalloc
from functools import partial

import numpy as np
import pytest

from dfs_cavity import (DeskScaleError, SystemParams, atomic_lowering, build_space,
                        cavity_annihilation, conditional_hamiltonian, dfs_basis,
                        photon_loss_density)
from oracles import basis_labels, collective_lowering, config_string, expectation


def space_of(n_atoms, n_max):
    return build_space(SystemParams(n_atoms=n_atoms, n_max=n_max))


@pytest.mark.parametrize("n_atoms, n_max, dim", [(2, 3, 16), (4, 2, 48), (1, 0, 2)])
def test_dimensions(n_atoms, n_max, dim):
    assert space_of(n_atoms, n_max).dim == dim


def test_desk_scale_guard():
    # no cap on N or dim: each allocation checks its own bytes against the 2 GiB budget
    with pytest.raises(DeskScaleError, match="sigma_i entry table"):
        build_space(SystemParams(n_atoms=23, n_max=0))  # its entry table: 2.3 GB
    build_space(SystemParams(n_atoms=22, n_max=0))  # 1.1 GB, built only when used
    space = build_space(SystemParams(n_atoms=12, n_max=15))  # dim 65536
    small = space_of(10, 3)  # dim 4096
    with pytest.raises(DeskScaleError):
        conditional_hamiltonian(space)  # 68.7 GB, scattered from a 50 MB entry table
    for build in (partial(atomic_lowering, space, 1), partial(cavity_annihilation, space),
                  # one dense dim-4096 operator fits, N + 1 = 11 of them (2.8 GB) do not
                  partial(photon_loss_density, small, small.ground_state()),
                  partial(dfs_basis, space_of(13, 9))):  # 2.25 GB for the basis alone
        tracemalloc.start()
        try:
            with pytest.raises(DeskScaleError):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_atoms=0)
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, n_max=-1)
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, g=0.0)
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, gamma=-0.1)


@pytest.mark.parametrize("field", ["g", "kappa", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_reject_non_finite_rates(field, value):
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, **{field: value})


def test_flat_index_roundtrip():
    space = space_of(3, 2)
    seen = set()
    for flat in range(space.dim):
        n, bits = basis_labels(space, flat)
        assert space.flat_index(n, bits) == flat
        seen.add((n, bits))
    assert len(seen) == space.dim
    with pytest.raises(ValueError):
        space.flat_index(3, 0)
    with pytest.raises(ValueError):
        basis_labels(space, space.dim)


def test_config_string_reads_atom_one_first():
    space = space_of(3, 0)
    # atom 1 excited only -> bit 2 of the config integer
    assert config_string(space, 0b100) == "100"
    assert space.atom_bit(1) == 2 and space.atom_bit(3) == 0


def test_atomic_lowering_single_atom():
    space = space_of(1, 0)
    s = atomic_lowering(space, 1)
    excited = space.basis_state(0, 1)
    ground = space.basis_state(0, 0)
    assert np.allclose(s @ excited, ground)
    assert np.allclose(s @ ground, 0.0)
    assert np.allclose(s @ s, 0.0)  # sigma^2 = 0


def test_atomic_lowering_projector():
    space = space_of(2, 1)
    for i in (1, 2):
        s = atomic_lowering(space, i)
        proj = s.conj().T @ s
        assert np.allclose(proj, np.diag(np.diag(proj)))
        for flat in range(space.dim):
            _, bits = basis_labels(space, flat)
            expected = 1.0 if bits >> space.atom_bit(i) & 1 else 0.0
            assert proj[flat, flat] == pytest.approx(expected)


def test_atomic_lowering_index_errors():
    space = space_of(2, 0)
    with pytest.raises(ValueError):
        atomic_lowering(space, 0)
    with pytest.raises(ValueError):
        atomic_lowering(space, 3)


def test_cavity_ladder():
    space = space_of(1, 3)
    b = cavity_annihilation(space)
    ground_bits = 0
    assert np.allclose(b @ space.basis_state(2, ground_bits),
                       np.sqrt(2.0) * space.basis_state(1, ground_bits))
    assert np.allclose(b @ space.basis_state(0, 1), 0.0)
    number = b.conj().T @ b
    for n in range(space.n_max + 1):
        state = space.basis_state(n, 0)
        assert expectation(number, state) == pytest.approx(n)


def test_cavity_commutator_below_cutoff():
    space = space_of(1, 4)
    b = cavity_annihilation(space)
    comm = b @ b.conj().T - b.conj().T @ b
    # identity except on the n = n_max rows, where truncation bites
    for flat in range(space.dim):
        n, _ = basis_labels(space, flat)
        row = comm[flat]
        if n < space.n_max:
            expected = np.zeros(space.dim)
            expected[flat] = 1.0
            assert np.allclose(row, expected)


def test_distinct_atom_operators_commute():
    space = space_of(3, 1)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            si, sj = atomic_lowering(space, i), atomic_lowering(space, j)
            assert np.array_equal(si @ sj - sj @ si, np.zeros_like(si))
            sjd = sj.conj().T
            assert np.array_equal(si @ sjd - sjd @ si, np.zeros_like(si))


def test_collective_lowering_two_atoms():
    space = space_of(2, 1)
    jm = collective_lowering(space)
    ground = space.ground_state()
    assert np.allclose(jm @ ground, 0.0)
    singlet = (space.basis_state(0, 0b10) - space.basis_state(0, 0b01)) / np.sqrt(2.0)
    assert np.allclose(jm @ singlet, 0.0)
    triplet = (space.basis_state(0, 0b10) + space.basis_state(0, 0b01)) / np.sqrt(2.0)
    assert np.allclose(jm @ triplet, np.sqrt(2.0) * ground)


def test_collective_lowering_drops_one_excitation():
    space = space_of(3, 1)
    jm = collective_lowering(space)
    for col in range(space.dim):
        n_col, bits_col = basis_labels(space, col)
        for row in range(space.dim):
            if jm[row, col] == 0:
                continue
            n_row, bits_row = basis_labels(space, row)
            assert n_row == n_col
            assert bin(bits_row).count("1") == bin(bits_col).count("1") - 1


def test_expectation():
    space = space_of(1, 2)
    b = cavity_annihilation(space)
    number = b.conj().T @ b
    assert expectation(number, space.basis_state(0, 0)) == pytest.approx(0.0)
    assert expectation(number, space.basis_state(1, 0)) == pytest.approx(1.0)
    vec = 2.0 * space.basis_state(1, 0)  # unnormalized on purpose
    assert expectation(np.eye(space.dim), vec) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        expectation(np.eye(3), space.basis_state(0, 0))
