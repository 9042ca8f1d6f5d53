import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from dfs_cavity import (Pulse, SystemParams, atomic_lowering, build_space,
                        cavity_annihilation, conditional_hamiltonian, laser_hamiltonian,
                        photon_loss_density)
from dfs_cavity.dynamics import _taylor_stepper
from dfs_cavity.hamiltonians import _channel_entries, _scatter
from oracles import (atomic_lowering_loops, cavity_annihilation_loops,
                     conditional_hamiltonian_products, jump_operators,
                     laser_hamiltonian_products, pair_ladder_matrix, pair_vector,
                     two_atom_ode_rhs, two_atom_pair_basis)


@pytest.fixture
def two_atom():
    params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=3)
    return build_space(params), params


def test_pulse_validation():
    with pytest.raises(ValueError):
        Pulse((), 1.0)
    with pytest.raises(ValueError):
        Pulse((0.1,), -1.0)
    off = Pulse.off(3, 2.0)
    assert off.rabi == (0.0,) * 3 and off.n_atoms == 3 and off.duration == 2.0
    assert Pulse((0.1 + 0.2j,), 1.0).rabi == (0.1 + 0.2j,)


@pytest.mark.parametrize("rabi, duration", [
    ((float("nan"), 0.1), 1.0), ((0.1, complex(0.0, float("inf"))), 1.0),
    ((0.1, 0.1), float("nan")), ((0.1, 0.1), float("inf"))])
def test_pulse_rejects_non_finite_values(rabi, duration):
    with pytest.raises(ValueError):
        Pulse(rabi, duration)


def test_laser_zero(two_atom):
    space, _ = two_atom
    h = laser_hamiltonian(space, Pulse.off(2, 1.0))
    assert np.array_equal(h, np.zeros_like(h))


def test_laser_single_atom_rabi():
    space = build_space(SystemParams(n_atoms=1, n_max=1))
    omega = 0.3
    h = laser_hamiltonian(space, Pulse((omega,), 1.0))
    for n in (0, 1):
        g_idx = space.flat_index(n, 0)
        e_idx = space.flat_index(n, 1)
        assert h[g_idx, e_idx] == pytest.approx(omega / 2)
        assert h[e_idx, g_idx] == pytest.approx(omega / 2)
    assert np.count_nonzero(h) == 4


def test_laser_couples_trapped_pair(two_atom):
    # with opposite drives the g<->a element is the antisymmetric combination
    space, _ = two_atom
    omega = 0.08
    h = laser_hamiltonian(space, Pulse((omega, -omega), 1.0))
    g0 = pair_vector(space, 0, "g")
    a0 = pair_vector(space, 0, "a")
    wm = 2 * omega / (2 * np.sqrt(2.0))
    assert np.vdot(g0, h @ a0) == pytest.approx(wm, abs=1e-14)


def test_laser_length_mismatch(two_atom):
    space, _ = two_atom
    with pytest.raises(ValueError):
        laser_hamiltonian(space, Pulse((0.1,), 1.0))
    with pytest.raises(ValueError):
        conditional_hamiltonian(space, Pulse((0.1,), 1.0))
    with pytest.raises(ValueError):
        conditional_hamiltonian(space, Pulse.off(3, 1.0))


def test_hermitian_when_lossless():
    params = SystemParams(n_atoms=2, g=1.0, kappa=0.0, gamma=0.0, n_max=2)
    space = build_space(params)
    h = conditional_hamiltonian(space)
    assert np.max(np.abs(h - h.conj().T)) < 1e-15


def test_anti_hermitian_part_exact():
    params = SystemParams(n_atoms=2, g=1.3, kappa=0.7, gamma=0.02, n_max=2)
    space = build_space(params)
    h = conditional_hamiltonian(space, Pulse((0.05, 0.02j), 1.0))
    damping = (h - h.conj().T) / (-2.0j)
    b = cavity_annihilation(space)
    expected = params.kappa * (b.conj().T @ b)
    for i in (1, 2):
        s = atomic_lowering(space, i)
        expected = expected + params.gamma * (s.conj().T @ s)
    assert np.max(np.abs(damping - expected)) < 1e-15
    assert np.linalg.eigvalsh(damping).min() >= -1e-12


def test_cavity_ladder_elements(two_atom):
    space, params = two_atom
    h = conditional_hamiltonian(space)
    s0 = pair_vector(space, 0, "s")
    g1 = pair_vector(space, 1, "g")
    # raising side carries -i sqrt(2) g, lowering side +i sqrt(2) g
    assert np.vdot(g1, h @ s0) == pytest.approx(-1j * np.sqrt(2.0) * params.g, abs=1e-14)
    assert np.vdot(s0, h @ g1) == pytest.approx(+1j * np.sqrt(2.0) * params.g, abs=1e-14)


def test_kappa_diagonal(two_atom):
    space, params = two_atom
    h = conditional_hamiltonian(space)
    for x in "gase":
        v1 = pair_vector(space, 1, x)
        v2 = pair_vector(space, 2, x)
        assert np.vdot(v1, h @ v1) == pytest.approx(-1j * params.kappa, abs=1e-14)
        assert np.vdot(v2, h @ v2) == pytest.approx(-2j * params.kappa, abs=1e-14)


def test_pair_basis_matches_explicit_ladder():
    # full entry-by-entry identity, complex drives and both decay rates on
    params = SystemParams(n_atoms=2, g=0.8, kappa=1.1, gamma=3e-3, n_max=3)
    space = build_space(params)
    omega1, omega2 = 0.05 * np.exp(0.4j), 0.02 - 0.03j
    h = conditional_hamiltonian(space, Pulse((omega1, omega2), 1.0))
    w = two_atom_pair_basis(space)
    h_pair = w.conj().T @ h @ w
    expected = pair_ladder_matrix(3, params.g, params.kappa, params.gamma, omega1, omega2)
    assert np.max(np.abs(h_pair - expected)) < 1e-12


def test_photon_loss_density(two_atom):
    space, params = two_atom
    assert photon_loss_density(space, space.ground_state()) == pytest.approx(0.0)
    one_photon = space.basis_state(1, 0)
    assert photon_loss_density(space, one_photon) == pytest.approx(2 * params.kappa)
    gamma_params = SystemParams(n_atoms=2, g=1.0, kappa=0.4, gamma=0.01, n_max=3)
    both_excited = space.basis_state(0, 0b11)
    assert photon_loss_density(build_space(gamma_params), both_excited) == pytest.approx(
        4 * gamma_params.gamma)
    with pytest.raises(ValueError):
        photon_loss_density(space, 0.5 * space.ground_state())


def test_photon_loss_density_equals_norm_decay():
    params = SystemParams(n_atoms=2, g=1.0, kappa=0.9, gamma=4e-3, n_max=3)
    space = build_space(params)
    rng = np.random.default_rng(7)
    h = conditional_hamiltonian(space, Pulse((0.1, 0.05j), 1.0))
    for _ in range(5):
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi /= np.linalg.norm(psi)
        direct = photon_loss_density(space, psi)
        from_h = -np.vdot(psi, (h - h.conj().T) @ psi).imag
        assert direct == pytest.approx(from_h, rel=1e-12)


def test_two_atom_ode_rhs_examples():
    params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.02, n_max=3)
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = 1.0  # ground state is stationary without drive
    assert np.array_equal(two_atom_ode_rhs(c, params, 0.0, 0.0), np.zeros_like(c))

    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = 1.0  # antisymmetric state decays at gamma only
    out = two_atom_ode_rhs(c, params, 0.0, 0.0)
    expected = np.zeros_like(c)
    expected[0, 1] = -params.gamma
    assert np.allclose(out, expected, atol=1e-15)

    lossless = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=3)
    c = np.zeros((4, 4), dtype=complex)
    c[0, 2] = 1.0  # symmetric state feeds the one-photon ground amplitude
    out = two_atom_ode_rhs(c, lossless, 0.0, 0.0)
    expected = np.zeros_like(c)
    expected[1, 0] = -np.sqrt(2.0) * lossless.g
    assert np.allclose(out, expected, atol=1e-15)


def test_two_atom_ode_rhs_matches_hamiltonian():
    params = SystemParams(n_atoms=2, g=1.2, kappa=0.9, gamma=5e-3, n_max=3)
    space = build_space(params)
    omega1, omega2 = 0.04 + 0.01j, -0.06
    wp = (omega1 + omega2) / (2 * np.sqrt(2.0))
    wm = (omega1 - omega2) / (2 * np.sqrt(2.0))
    h = conditional_hamiltonian(space, Pulse((omega1, omega2), 1.0))
    w = two_atom_pair_basis(space)
    h_pair = w.conj().T @ h @ w
    rng = np.random.default_rng(11)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out = two_atom_ode_rhs(c, params, wp, wm)
    expected = (-1j * h_pair @ c.reshape(-1)).reshape(4, 4)
    assert np.max(np.abs(out - expected)) < 1e-13


def test_two_atom_ode_rhs_rejects_other_sizes():
    params = SystemParams(n_atoms=3, n_max=1)
    with pytest.raises(ValueError):
        two_atom_ode_rhs(np.zeros((2, 4), complex), params, 0.0, 0.0)
    params2 = SystemParams(n_atoms=2, n_max=3)
    with pytest.raises(ValueError):
        two_atom_ode_rhs(np.zeros((2, 4), complex), params2, 0.0, 0.0)


def assert_operators_match_oracle(params, pulse):
    """Every operator function gives the same bytes as the loop/product oracle."""
    space = build_space(params)
    expected = conditional_hamiltonian_products(space, params, pulse)
    assert conditional_hamiltonian(space, pulse).tobytes() == expected.tobytes()
    # the Taylor steps' sparse -i H_cond, built from the entry table without a dense matrix
    generator, _ = _taylor_stepper(space)
    a, *_ = generator(Pulse.off(params.n_atoms, 1.0) if pulse is None else pulse)
    ref = csr_array(-1j * expected)
    for got, want in ((a.indptr, ref.indptr), (a.indices, ref.indices), (a.data, ref.data)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if pulse is not None:
        assert (laser_hamiltonian(space, pulse).tobytes()
                == laser_hamiltonian_products(space, pulse).tobytes())
    for i in range(1, params.n_atoms + 1):
        assert atomic_lowering(space, i).tobytes() == atomic_lowering_loops(space, i).tobytes()
    assert cavity_annihilation(space).tobytes() == cavity_annihilation_loops(space).tobytes()
    # the jump channels' entry tables, scattered onto zeros
    labels, tables = _channel_entries(space)
    expected_jumps = jump_operators(space)
    assert list(labels) == [name for name, _ in expected_jumps]
    assert ([_scatter(space, table).tobytes() for table in tables]
            == [op.tobytes() for _, op in expected_jumps])


rates = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
signed_zeros = st.sampled_from([0.0, -0.0])
parts = st.floats(-1e3, 1e3)
zero_drives = st.builds(complex, signed_zeros, signed_zeros)
# signed-zero parts pin how the drive's zeros land, e.g. complex(-0.0, 0.3)
drives = st.one_of(st.just(0j), zero_drives, st.builds(complex, signed_zeros, parts),
                   st.builds(complex, parts, signed_zeros),
                   st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))


@st.composite
def lone_drive_pulses(draw, n_atoms):
    """Pulses in which every atom but one has a (signed) zero drive."""
    rabi = draw(st.lists(zero_drives, min_size=n_atoms, max_size=n_atoms))
    rabi[draw(st.integers(0, n_atoms - 1))] = draw(drives)
    return Pulse(tuple(rabi), 1.0)


@st.composite
def operator_cases(draw):
    n_atoms = draw(st.integers(1, 6))
    params = SystemParams(n_atoms=n_atoms, n_max=draw(st.integers(0, 3)),
                          g=draw(st.floats(0.0, 1e3, exclude_min=True)),
                          kappa=draw(rates), gamma=draw(rates))
    pulse = draw(st.one_of(st.none(), st.just(Pulse.off(n_atoms, 1.0)),
                           st.lists(drives, min_size=n_atoms, max_size=n_atoms).map(
                               lambda rabi: Pulse(tuple(rabi), 1.0)),
                           lone_drive_pulses(n_atoms)))
    return params, pulse


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(operator_cases())
def test_operators_bit_identical_to_loop_and_product_oracle(case):
    assert_operators_match_oracle(*case)


def test_operators_bit_identical_to_oracle_at_seven_atoms():
    params = SystemParams(n_atoms=7, g=0.9, kappa=0.7, gamma=0.37, n_max=3)
    rabi = (0.05, -0.05j, 0.0, 0.03 - 0.02j, -0.07, 1e-9 + 0.1j, -0.0 - 0.2j)
    assert_operators_match_oracle(params, Pulse(rabi, 1.0))


@pytest.mark.parametrize("pulse", [None, Pulse((0.05, -0.02j), 1.0)])
def test_conditional_hamiltonian_returns_a_fresh_writeable_array(pulse):
    space = build_space(SystemParams(n_atoms=2, g=1.0, kappa=0.8, gamma=1e-3, n_max=3))
    h = conditional_hamiltonian(space, pulse)
    expected = h.tobytes()
    h[...] = 7.0  # the caller owns the array and may write into it
    again = conditional_hamiltonian(space, pulse)
    assert again.flags.writeable and again is not h
    assert again.tobytes() == expected


@pytest.mark.parametrize("n_max", [0, 1, 3])
@pytest.mark.parametrize("kappa, gamma", [(1.0, 0.0), (0.5, 1e-3), (0.0, 0.7)])
def test_scaled_drive_on_the_undriven_generator_has_the_bytes_of_a_driven_pulse(
        n_max, kappa, gamma):
    # the sweep stacks h0 + omega1 * drive for the pulse (omega1, -omega1)
    space = build_space(SystemParams(n_atoms=2, g=1.0, kappa=kappa, gamma=gamma, n_max=n_max))
    h0 = conditional_hamiltonian(space)
    drive = laser_hamiltonian(space, Pulse((1.0, -1.0), 0.0))
    omegas = np.geomspace(1e-3, 0.3, 7).tolist() + [1e-300, 0.1 + 1e-17, 2.0, 1e3]
    stack = h0 + np.array(omegas)[:, None, None] * drive
    for omega1, h in zip(omegas, stack):
        expected = conditional_hamiltonian(space, Pulse((omega1, -omega1), 5.0))
        assert h.tobytes() == expected.tobytes(), omega1
