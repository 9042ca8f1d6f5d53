import numpy as np
import pytest

from dfs_cavity import (OverdampedError, SlowModel, SystemParams, build_slow_model,
                        effective_rates, entangling_pulse_duration, omega_pm, p0_closed_form,
                        zeno_timescale_check, Pulse)
from oracles import (expm_taylor, final_dfs_state, integrate_pair_amplitudes, slow_amplitudes,
                     slow_eigenvalues, slow_matrix, slow_propagator)

# Pre-registered reference for omega1 = -omega2 = 0.1, kappa = g, gamma = 0
# at t = pi / (2 |W-|): frozen from a DOP853 integration of the pair-basis
# amplitude equations (rtol 1e-12, Fock truncation converged at n_max = 5).
FROZEN_T_SIMPLE = 22.214414690791831
FROZEN_TRAPPED_POPULATION_ODE = 0.860490194623
FROZEN_CLOSED_FORM = 0.851505193456


def model_for(omega1, kappa=1.0, gamma=0.0):
    params = SystemParams(n_atoms=2, g=1.0, kappa=kappa, gamma=gamma, n_max=3)
    return build_slow_model(params, omega1, -omega1)


def test_omega_pm():
    wp, wm = omega_pm(0.3, 0.3)
    assert wp == pytest.approx(0.3 / np.sqrt(2.0)) and wm == 0.0
    wp, wm = omega_pm(0.3, -0.3)
    assert wp == 0.0 and wm == pytest.approx(0.3 / np.sqrt(2.0))
    wp, wm = omega_pm(2.0, 1.0)
    assert wp == pytest.approx(3.0 / (2.0 * np.sqrt(2.0)))
    assert wm == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)))


def test_effective_rates():
    params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0)
    wp, wm = omega_pm(0.1, -0.1)
    k1, k2 = effective_rates(params, wp, wm)
    assert k1 == 0.0
    assert k2 == pytest.approx(3.0 * abs(wm) ** 2 / 2.0)
    k1, k2 = effective_rates(params, wm, 0.0)
    assert k1 == pytest.approx(abs(wm) ** 2 / 2.0) and k2 == 0.0
    gamma_params = SystemParams(n_atoms=2, g=2.0, kappa=0.5, gamma=1e-3)
    k1, k2 = effective_rates(gamma_params, 0.1, 0.2)
    assert k1 == pytest.approx(0.01 * 0.5 / 8.0)
    assert k2 == pytest.approx(0.04 * (8.0 + 0.25) / (8.0 * 0.5) + 1e-3)
    with pytest.raises(ValueError):
        effective_rates(SystemParams(n_atoms=2, kappa=0.0), 0.1, 0.1)


def test_slow_model_eigenvalue_identities():
    model = SlowModel(0.002, 0.007, 0.05 * np.exp(0.3j))
    l1, l2 = slow_eigenvalues(model)
    assert l1 + l2 == pytest.approx(model.k1 + model.k2, abs=1e-15)
    assert l1 * l2 == pytest.approx(model.k1 * model.k2 + abs(model.omega_minus) ** 2,
                                    abs=1e-15)
    assert np.allclose(np.sort_complex(np.linalg.eigvals(slow_matrix(model))),
                       np.sort_complex(np.array([l1, l2])))


def test_slow_propagator_identity_at_zero():
    model = model_for(0.1)
    assert np.allclose(slow_propagator(model, 0.0), np.eye(2))


def test_slow_propagator_matches_taylor_series():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k1, k2 = rng.uniform(0, 0.4, size=2)
        wm = rng.uniform(0.01, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        model = SlowModel(k1, k2, wm)
        t = rng.uniform(0.0, 1.0) / max(1.0, np.linalg.norm(slow_matrix(model), 2))
        assert np.max(np.abs(slow_propagator(model, t)
                             - expm_taylor(slow_matrix(model), t))) < 1e-10


def test_slow_propagator_pure_rotation():
    wm = 0.08 * np.exp(0.5j)
    model = SlowModel(0.0, 0.0, wm)
    t = 7.3
    u = slow_propagator(model, t)
    phase = wm / abs(wm)
    st = abs(wm) * t
    expected = np.array([[np.cos(st), -1j * phase * np.sin(st)],
                         [-1j * np.conj(phase) * np.sin(st), np.cos(st)]])
    assert np.max(np.abs(u - expected)) < 1e-12


def test_slow_propagator_confluent_limit():
    # k1 = k2 with |W-| = |k1 - k2|/2 = 0 collapses both eigenvalues
    model = SlowModel(0.01, 0.01, 0.0)
    u = slow_propagator(model, 5.0)
    assert np.allclose(u, np.exp(-0.05) * np.eye(2))


def test_slow_propagator_derivative():
    model = model_for(0.08, gamma=1e-4)
    t, eps = 9.0, 1e-5
    deriv = (slow_propagator(model, t + eps) - slow_propagator(model, t - eps)) / (2 * eps)
    expected = -slow_matrix(model) @ slow_propagator(model, t)
    assert np.max(np.abs(deriv - expected)) / np.max(np.abs(expected)) < 1e-6


def test_slow_amplitudes_initial_condition():
    c_g, c_a = slow_amplitudes(model_for(0.1), 0.0)
    assert c_g == 1.0 and c_a == 0.0


def test_slow_amplitudes_match_propagator():
    for omega1, gamma, t in [(0.1, 0.0, 22.2), (0.03, 1e-3, 80.0), (0.2, 1e-4, 5.0)]:
        model = model_for(omega1, gamma=gamma)
        col = slow_propagator(model, t) @ np.array([1.0, 0.0])
        c_g, c_a = slow_amplitudes(model, t)
        assert abs(c_g - col[0]) < 1e-12
        assert abs(c_a - col[1]) < 1e-12


def test_slow_amplitudes_against_brute_force_integration():
    # pre-registered oracle: the closed form must track the black-box ODE
    # integration of the full amplitude system within 2% in this regime
    model = model_for(0.1)
    c_g, c_a = slow_amplitudes(model, FROZEN_T_SIMPLE)
    closed = abs(c_g) ** 2 + abs(c_a) ** 2
    assert closed == pytest.approx(FROZEN_CLOSED_FORM, abs=1e-9)
    assert closed == pytest.approx(p0_closed_form(model, FROZEN_T_SIMPLE), abs=1e-12)
    params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=5)
    c = integrate_pair_amplitudes(params, 0.1, -0.1, FROZEN_T_SIMPLE, rtol=1e-11)
    trapped = abs(c[0, 0]) ** 2 + abs(c[0, 1]) ** 2
    assert trapped == pytest.approx(FROZEN_TRAPPED_POPULATION_ODE, abs=1e-6)
    assert abs(closed - trapped) / trapped < 0.02


def test_final_dfs_state():
    model = model_for(0.1)
    assert np.allclose(final_dfs_state(model, 0.0), [1.0, 0.0])
    # balanced decay at a quarter rotation lands exactly on the
    # antisymmetric state, up to the drive phase
    wm = 0.05 * np.exp(0.3j)
    balanced = SlowModel(1e-3, 1e-3, wm)
    state = final_dfs_state(balanced, np.pi / (2 * abs(wm)))
    assert abs(state[0]) < 1e-12
    assert state[1] == pytest.approx(-1j * np.conj(wm) / abs(wm), abs=1e-12)


def test_final_dfs_state_matches_lossless_rotation():
    # in the weak-drive limit the pulse is a plain two-level rotation
    for omega1 in (0.02, 0.05):
        model = model_for(omega1)
        wm = model.omega_minus
        for frac in (0.3, 0.7, 1.0):
            t = frac * entangling_pulse_duration(model)
            target = np.array([np.cos(abs(wm) * t),
                               -1j * np.conj(wm) / abs(wm) * np.sin(abs(wm) * t)])
            overlap = abs(np.vdot(target, final_dfs_state(model, t)))
            assert overlap > 0.999


def test_p0_closed_form():
    lossless = SlowModel(0.0, 0.0, 0.1)
    for t in (0.0, 3.0, 47.0):
        assert p0_closed_form(lossless, t) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(30):
        model = SlowModel(rng.uniform(0, 0.02), rng.uniform(0, 0.02),
                          rng.uniform(0.001, 0.1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        t = rng.uniform(0.0, 60.0)
        c_g, c_a = slow_amplitudes(model, t)
        assert p0_closed_form(model, t) == pytest.approx(
            abs(c_g) ** 2 + abs(c_a) ** 2, abs=1e-12)


def test_p0_grows_as_drive_weakens():
    values = []
    for omega1 in np.geomspace(0.3, 1e-4, 25):
        model = model_for(omega1)
        values.append(p0_closed_form(model, entangling_pulse_duration(model)))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.999


def test_entangling_pulse_duration():
    wm = 0.05
    balanced = SlowModel(2e-3, 2e-3, wm)
    assert entangling_pulse_duration(balanced) == pytest.approx(np.pi / (2 * wm))
    model = model_for(0.1)
    t = entangling_pulse_duration(model)
    assert abs(t - np.pi / (2 * abs(model.omega_minus))) < 0.05 * t
    # the rotation really peaks there: nudging T either way loses overlap
    eps = 1e-4 * t
    peak = abs(final_dfs_state(model, t)[1])
    assert peak > abs(final_dfs_state(model, t - eps)[1])
    assert peak > abs(final_dfs_state(model, t + eps)[1])


def test_entangling_pulse_duration_overdamped():
    with pytest.raises(OverdampedError):
        entangling_pulse_duration(SlowModel(0.3, 0.0, 0.01))


def test_success_rate_has_unique_interior_maximum():
    # with spontaneous emission there is an optimal drive strength; below
    # omega1 ~ gamma * sqrt(2) the slow model is overdamped, so the grid
    # starts just above that
    for gamma in (1e-5, 1e-4, 1e-3):
        values = []
        for omega1 in np.geomspace(1e-3, 0.3, 40):
            model = model_for(omega1, gamma=gamma)
            values.append(p0_closed_form(model, entangling_pulse_duration(model)))
        values = np.array(values)
        peaks = [i for i in range(1, len(values) - 1)
                 if values[i] > values[i - 1] and values[i] > values[i + 1]]
        assert len(peaks) == 1
        assert values[peaks[0]] > values[0] and values[peaks[0]] > values[-1]


def test_closed_form_tracks_ode_in_the_weak_drive_regime():
    for omega1, gamma in [(0.03, 0.0), (0.03, 1e-3), (0.05, 1e-4)]:
        params = SystemParams(n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, n_max=3)
        model = build_slow_model(params, omega1, -omega1)
        t = entangling_pulse_duration(model)
        c = integrate_pair_amplitudes(params, omega1, -omega1, t)
        trapped = abs(c[0, 0]) ** 2 + abs(c[0, 1]) ** 2
        assert abs(trapped - p0_closed_form(model, t)) / trapped < 0.02


def test_zeno_timescale_check():
    params = SystemParams(n_atoms=1, g=1.0, kappa=1.0, gamma=1e-4)
    report = zeno_timescale_check(params, Pulse((0.01,), 1.0))
    assert report.passed
    assert report.drive_ratio == pytest.approx(0.01)
    assert report.spontaneous_ratio == pytest.approx(0.01)
    assert not zeno_timescale_check(params, Pulse((0.5,), 1.0)).passed
    assert not zeno_timescale_check(params, Pulse((1e-4,), 1.0)).passed  # gamma ~ drive
    strong_gamma = SystemParams(n_atoms=1, g=1.0, kappa=1.0, gamma=0.01)
    report = zeno_timescale_check(strong_gamma, Pulse((0.01,), 1.0))
    assert not report.passed and report.spontaneous_ratio == pytest.approx(1.0)
