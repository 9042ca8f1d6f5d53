import csv
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from scipy.linalg import expm

import dfs_cavity
from dfs_cavity import SystemParams, build_space, cli, dfs_basis, dynamics, Pulse
from dfs_cavity.cli import SWEEP_CHUNK, main
from oracles import effective_hamiltonian, embed_vacuum, four_atom_state, sweep_point

OMEGA_MINUS_002 = 0.02 / np.sqrt(2.0)  # antisymmetric combination for 0.02, -0.02
PACKAGE_ROOT = str(Path(dfs_cavity.__file__).resolve().parents[1])


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_python(*args, **env):
    """Run `python *args` in a fresh interpreter with the package importable."""
    child_env = dict(os.environ, **env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, *args], env=child_env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def load_state(payload_path):
    payload = json.loads(payload_path.read_text())
    return payload, np.array([re + 1j * im for re, im in payload["final_state_re_im"]])


def test_basis_two_atoms(tmp_path, capsys):
    cfg = write_config(tmp_path, "n_atoms = 2\nn_max = 3\n")
    assert main(["basis", "--config", cfg, "--out", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / "dfs_basis.json").read_text())
    assert sidecar["dfs_dimension"] == 2
    assert "trapped-subspace dimension: 2" in capsys.readouterr().out


def test_basis_four_atoms_sectors(tmp_path, capsys):
    cfg = write_config(tmp_path, "n_atoms = 4\nn_max = 1\n")
    assert main(["basis", "--config", cfg, "--out", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / "dfs_basis.json").read_text())
    assert sidecar["dfs_dimension"] == 6
    assert sidecar["sector_counts"] == {"0": 1, "1": 3, "2": 2}
    out = capsys.readouterr().out
    assert "dimension: 6" in out


def test_basis_five_atoms(tmp_path):
    cfg = write_config(tmp_path, "n_atoms = 5\nn_max = 0\n")
    assert main(["basis", "--config", cfg, "--out", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / "dfs_basis.json").read_text())
    assert sidecar["dfs_dimension"] == 10


def test_desk_scale_guard_exit_code(tmp_path):
    # the N = 15 trapped basis, 6435 vectors of length 32768, would take 3.4 GB
    cfg = write_config(tmp_path, "n_atoms = 15\nn_max = 0\n")
    # a guard abort removes the topmost directory the run made and keeps one that
    # existed before, with its files
    for out in (tmp_path, tmp_path / "out", tmp_path / "a" / "b"):
        code, peak = run_traced(["basis", "--config", cfg, "--out", str(out)])
        assert code == 3 and peak < 1 << 20
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]
    assert Path(cfg).read_text() == "n_atoms = 15\nn_max = 0\n"


def test_pulse_whose_trapped_basis_is_over_the_budget_exits_before_allocating(tmp_path):
    # N = 13 at n_max = 9 (dim 81920): its 1716 trapped vectors alone would take 2.25 GB
    rabi = ", ".join(["0.05", "-0.05"] * 6 + ["0.05"])
    cfg = write_config(tmp_path, f"n_atoms = 13\nn_max = 9\nrabi = {rabi}\nduration = 1\n")
    code, peak = run_traced(["pulse", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3 and peak < 1 << 20
    assert not (tmp_path / "out").exists()


def run_traced(args):
    """main(args) under tracemalloc: (exit code, traced peak in bytes)."""
    tracemalloc.start()
    try:
        code = main(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


def test_trajectories_over_the_dense_budget_exit_before_allocating(tmp_path):
    # N = 11 holds dense matrices of dim 8192, 1 GiB each
    rabi = ", ".join(["0.05", "-0.05"] * 5 + ["0.05"])
    cfg = write_config(tmp_path, f"n_atoms = 11\nrabi = {rabi}\nduration = 1\nsamples = 1\n")
    code, peak = run_traced(["trajectories", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3 and peak < 1 << 20
    assert not (tmp_path / "ensemble.json").exists()


def test_sweep_over_the_dense_budget_exits_before_allocating(tmp_path):
    # n_max = 2000 gives dim 8004: one stacked chunk of 40 points alone would take 38 GiB
    cfg = write_config(tmp_path, "n_atoms = 2\nn_max = 2000\n")
    code, peak = run_traced(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3 and peak < 1 << 20
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_grid_over_the_budget_exits_before_allocating(tmp_path, capsys):
    # 10^15 grid points: np.geomspace alone would take 7.11 PiB
    cfg = write_config(tmp_path, "n_atoms = 2\nomega1_points = 1000000000000000\n")
    out = tmp_path / "out"
    code, peak = run_traced(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 3 and peak < 1 << 20
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("numerical guard:") == 1 and "Traceback" not in err


def test_evolve_rows_over_the_budget_exit_before_allocating(tmp_path):
    # 10 000 000 rows of dim 4096 would take 610 GiB
    rabi = ", ".join(["0.05", "-0.05"] * 5)
    cfg = write_config(tmp_path, (f"n_atoms = 10\nn_max = 3\nrabi = {rabi}\nduration = 1\n"
                                  "evolve_points = 10000000\n"))
    out = tmp_path / "out"
    code, peak = run_traced(["evolve", "--config", cfg, "--out", str(out)])
    assert code == 3 and peak < 1 << 20
    assert not out.exists()


def test_config_errors_exit_code(tmp_path):
    missing = write_config(tmp_path, "kappa = 1.0\n", name="missing.ini")
    assert main(["basis", "--config", missing, "--out", str(tmp_path)]) == 2
    assert main(["basis", "--config", str(tmp_path / "nope.ini")]) == 2
    mismatch = write_config(tmp_path, "n_atoms = 2\nmode = sweep\n", name="mode.ini")
    assert main(["basis", "--config", mismatch, "--out", str(tmp_path)]) == 2
    bad_rabi = write_config(tmp_path, "n_atoms = 2\nrabi = 0.1\nduration = 1\n",
                            name="rabi.ini")
    assert main(["pulse", "--config", bad_rabi, "--out", str(tmp_path)]) == 2
    bad_eta = write_config(tmp_path, "n_atoms = 2\neta = 1.5\n", name="eta.ini")
    assert main(["basis", "--config", bad_eta, "--out", str(tmp_path)]) == 2
    three_atom_sweep = write_config(tmp_path, "n_atoms = 3\n", name="three.ini")
    assert main(["sweep", "--config", three_atom_sweep, "--out", str(tmp_path)]) == 2
    no_gammas = write_config(tmp_path, "n_atoms = 2\ngamma_list =\n", name="gammas.ini")
    assert main(["sweep", "--config", no_gammas, "--out", str(tmp_path)]) == 2
    closed_cavity = write_config(tmp_path, "n_atoms = 2\nkappa = 0\nrabi = 0.02, -0.02\n"
                                 "duration = auto\n", name="closed.ini")
    assert main(["pulse", "--config", closed_cavity, "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--config", closed_cavity, "--out", str(tmp_path)]) == 2
    traj = "n_atoms = 2\nrabi = 0.05, -0.05\nduration = 1\nsamples = 5\n"
    negative_seed = write_config(tmp_path, traj + "seed = -1\n", name="seed.ini")
    assert main(["trajectories", "--config", negative_seed, "--out", str(tmp_path)]) == 2
    plain = write_config(tmp_path, traj, name="plain.ini")
    assert main(["trajectories", "--config", plain, "--out", str(tmp_path),
                 "--seed", "-1"]) == 2
    negative_settle = write_config(tmp_path, traj + "settle = -1\n", name="settle.ini")
    assert main(["pulse", "--config", negative_settle, "--out", str(tmp_path)]) == 2
    # unknown keys: misspelt ones would otherwise run other physics, and g is fixed to 1
    for name, mode, text in [("gama", "trajectories", traj + "gama = 0.5\n"),
                             ("sampels", "trajectories", traj + "sampels = 20\n"),
                             ("g", "basis", "n_atoms = 2\ng = 2\n")]:
        path = write_config(tmp_path, text, name=f"{name}.ini")
        assert main([mode, "--config", path, "--out", str(tmp_path)]) == 2, name
    pulse = "n_atoms = 2\nrabi = 0.05, -0.05\nduration = 1\n"
    for name, text in [("nan_kappa", pulse + "kappa = nan\n"),
                       # a value is read as it stands: no % interpolation
                       ("percent", pulse + "kappa = 1%\n"),
                       ("interpolated", pulse + "kappa = 0.5\ngamma = %(kappa)s\n"),
                       # a key set twice, in one section or in two
                       ("twice", pulse + "kappa = 0.5\nkappa = 0.7\n"),
                       ("two_sections", pulse + "[other]\nkappa = 0.5\n[third]\nkappa = 0.7\n"),
                       ("default", pulse + "[DEFAULT]\nkappa = 0.5\n[other]\nkappa = 0.7\n"),
                       # an explicit [run] header is a section like any other
                       ("run_twice", "[run]\n" + pulse + "[run]\nkappa = 0.5\n"),
                       ("run_and_sim", "[run]\n" + pulse + "kappa = 0.5\n[sim]\nkappa = 0.7\n"),
                       ("inf_duration", pulse.replace("duration = 1", "duration = inf")),
                       ("nan_rabi", pulse.replace("0.05, -0.05", "nan, -0.05"))]:
        path = write_config(tmp_path, text, name=f"{name}.ini")
        assert main(["pulse", "--config", path, "--out", str(tmp_path)]) == 2, name
    for name, text in [("nan_gamma_list", "n_atoms = 2\ngamma_list = nan\n"),
                       ("nan_omega1_min", "n_atoms = 2\nomega1_min = nan\n")]:
        path = write_config(tmp_path, text, name=f"{name}.ini")
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2, name


@pytest.mark.parametrize("header", ["[run]\n", "# a comment\n\n[run]\n", "[sim]\n"])
def test_a_leading_section_header_is_optional(tmp_path, header):
    text = "n_atoms = 2\nkappa = 0.5\nrabi = 0.05, -0.05\nduration = 3\nsettle = 1\n"
    bare = write_config(tmp_path, text, name="bare.ini")
    headed = write_config(tmp_path, header + text, name="headed.ini")
    assert cli.load_config(headed, "pulse") == cli.load_config(bare, "pulse")
    assert main(["basis", "--config", headed, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "dfs_basis.csv").is_file()


TRAJ = "n_atoms = 2\nrabi = 0.05, -0.05\nduration = 1\n"
THREE_ATOMS_AUTO = "n_atoms = 3\nrabi = 0.05, -0.05, 0.05\nduration = auto\n"
MODES = ("basis", "evolve", "pulse", "sweep", "trajectories")
# a value of each accepted key but mode that every mode accepts
VALID_VALUES = {
    "n_atoms": "2", "kappa": "1.0", "gamma": "0.001", "n_max": "1", "seed": "3", "eta": "0.5",
    "settle": "2", "samples": "20", "jump_log": "yes", "evolve_points": "5",
    "rabi": "0.1, -0.1", "duration": "20", "omega1_list": "0.03, 0.08", "omega1_min": "0.01",
    "omega1_max": "0.1", "omega1_points": "3", "gamma_list": "0, 0.001",
}
# malformed and non-finite values of each accepted key: a config error in every mode,
# whether or not the mode uses the key
BAD_VALUES = {
    "mode": ["other"], "n_atoms": ["two", "2.5"], "kappa": ["1%", "nan"],
    "gamma": ["abc", "inf"], "n_max": ["3.0"], "seed": ["one"], "eta": ["x", "-inf"],
    "settle": ["", "nan"], "samples": ["1e3"], "jump_log": ["maybe"],
    "evolve_points": ["many"], "rabi": ["0.1, -0.1,", "nan, -0.1"],
    "duration": ["automatic", "inf"], "omega1_list": ["0.03; 0.08", "0.03, nan"],
    "omega1_min": ["small", "nan"], "omega1_max": ["big", "inf"], "omega1_points": ["4.5"],
    "gamma_list": ["0, 1e-3x", "nan, 1"],
}


def every_key(mode, /, **changed):
    """A config that sets every accepted key, to VALID_VALUES unless changed."""
    values = {**VALID_VALUES, "mode": mode, **changed}
    return "".join(f"{key} = {values[key]}\n" for key in cli.CONFIG_KEYS)


BAD_KEY_CASES = [(key, bad, mode) for key in cli.CONFIG_KEYS for bad in BAD_VALUES[key]
                 for mode in MODES]


@pytest.mark.parametrize("mode, text, flags, code", [
    ("pulse", THREE_ATOMS_AUTO, [], 2),
    ("evolve", THREE_ATOMS_AUTO, [], 2),
    ("trajectories", THREE_ATOMS_AUTO, [], 2),
    ("evolve", TRAJ + "evolve_points = 1\n", [], 2),
    ("trajectories", TRAJ + "samples = 0\n", [], 2),
    ("trajectories", TRAJ, ["--samples", "0"], 2),
    ("trajectories", TRAJ, ["--seed", "-1"], 2),
    # an override replaces the file's value, which must still parse
    ("trajectories", TRAJ + "seed = one\n", ["--seed", "3"], 2),
    # equal drives leave the slow model overdamped: no full rotation, a guard error
    ("pulse", "n_atoms = 2\nrabi = 0.05, 0.05\nduration = auto\n", [], 3),
    *[(mode, every_key(mode, **{key: bad}), [], 2) for key, bad, mode in BAD_KEY_CASES],
], ids=["auto-n3-pulse", "auto-n3-evolve", "auto-n3-trajectories", "evolve-points-1",
        "samples-0", "samples-flag-0", "seed-flag-minus-1", "malformed-seed-under-flag",
        "overdamped-auto", *[f"{key}={bad}-{mode}" for key, bad, mode in BAD_KEY_CASES]])
def test_config_errors_exit_before_any_output_or_space(tmp_path, monkeypatch, mode, text,
                                                       flags, code):
    def no_space(params):
        raise AssertionError("a Hilbert space was built for an invalid run")

    monkeypatch.setattr(cli, "build_space", no_space)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, text)
    assert main([mode, "--config", cfg, "--out", str(out), *flags]) == code
    assert not out.exists()


def test_pulse_auto_duration_prepares_entangled_state(tmp_path):
    cfg = write_config(tmp_path, (
        "n_atoms = 2\nkappa = 1.0\ngamma = 0.0\nn_max = 3\n"
        "rabi = 0.02, -0.02\nduration = auto\n"))
    assert main(["pulse", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload, _state = load_state(tmp_path / "pulse.json")
    # frozen references: DOP853 integration of the amplitude equations
    assert payload["pulse_duration_g"] == pytest.approx(111.828378040362, abs=1e-9)
    assert payload["p0"] == pytest.approx(0.968066820138, abs=1e-8)
    overlaps = {o["vector_index"]: o["population"] for o in payload["dfs_overlaps"]}
    assert overlaps[1] > 0.999
    assert payload["dfs_population"] > 0.999
    assert payload["zeno_check"]["passed"] is True


def test_pulse_quarter_rotation_equal_weights(tmp_path):
    quarter = np.pi / (4.0 * OMEGA_MINUS_002)
    cfg = write_config(tmp_path, (
        "n_atoms = 2\nkappa = 1.0\ngamma = 0.0\nn_max = 3\n"
        f"rabi = 0.02, -0.02\nduration = {float(quarter):.17g}\n"))
    assert main(["pulse", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload, _ = load_state(tmp_path / "pulse.json")
    overlaps = {o["vector_index"]: o["population"] for o in payload["dfs_overlaps"]}
    assert overlaps[0] == pytest.approx(0.5, abs=0.01)
    assert overlaps[1] == pytest.approx(0.5, abs=0.01)


def test_pulse_four_atoms_confined_to_predicted_block(tmp_path):
    # drive only the first pair: the trapped population must stay inside
    # span{gg, ag, x2}, and the projected dynamics must follow the
    # Zeno-projected generator
    duration = 30.0
    cfg = write_config(tmp_path, (
        "n_atoms = 4\nkappa = 1.0\ngamma = 0.0\nn_max = 2\n"
        f"rabi = 0.03, -0.03, 0, 0\nduration = {duration!r}\n"))
    assert main(["pulse", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload, state = load_state(tmp_path / "pulse.json")
    assert payload["dfs_population"] > 0.995

    params = SystemParams(n_atoms=4, kappa=1.0, gamma=0.0, n_max=2)
    space = build_space(params)
    for untouched in ("ga", "aa"):
        ref = embed_vacuum(space, four_atom_state(untouched[0], untouched[1]))
        assert abs(np.vdot(ref, state)) ** 2 < 1e-3
    h_eff = effective_hamiltonian(space, Pulse((0.03, -0.03, 0.0, 0.0), duration), params)
    predicted = expm(-1j * duration * h_eff) @ space.ground_state()
    assert abs(np.vdot(predicted, state)) ** 2 > 0.99


def test_sweep_small_grid(tmp_path):
    cfg = write_config(tmp_path, (
        "n_atoms = 2\nkappa = 1.0\nn_max = 3\neta = 0.0\n"
        "omega1_list = 0.02, 0.05, 0.1\n"
        "gamma_list = 0, 0.0001\n"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    with (tmp_path / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert list(rows[0]) == ["omega1_over_g", "gamma_over_g", "T_g", "p0_numeric",
                             "p0_analytic", "fidelity_conditional",
                             "fidelity_no_detection"]
    for row in rows:
        p_num, p_ana = float(row["p0_numeric"]), float(row["p0_analytic"])
        assert abs(p_num - p_ana) / p_num < 0.02
        assert float(row["fidelity_conditional"]) > 0.99
        # eta = 0: the no-detection fidelity picks up a factor p0
        assert float(row["fidelity_no_detection"]) == pytest.approx(
            float(row["fidelity_conditional"]) * p_num, rel=1e-12)
    lossless = [float(r["p0_numeric"]) for r in rows if float(r["gamma_over_g"]) == 0.0]
    assert lossless == sorted(lossless, reverse=True)  # weaker drive survives better
    meta = json.loads((tmp_path / "sweep.json").read_text())
    assert meta["grid_source"] == "config"


@pytest.mark.parametrize("grid", ["omega1_list = 0.004, 0.03, 0.2",
                                  "omega1_min = 0.002\nomega1_max = 0.25\nomega1_points = 5",
                                  # one full stacked chunk and a partial one
                                  "omega1_min = 0.002\nomega1_max = 0.25\n"
                                  f"omega1_points = {SWEEP_CHUNK + 3}"])
@pytest.mark.parametrize("kappa", [0.5, 1.0])
@pytest.mark.parametrize("n_max", [1, 3])
def test_sweep_bytes_match_the_point_by_point_oracle(tmp_path, grid, kappa, n_max):
    cfg = write_config(tmp_path, f"n_atoms = 2\nkappa = {kappa}\nn_max = {n_max}\neta = 0.5\n"
                                 f"gamma_list = 0, 1e-3\n{grid}\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    grid = json.loads((tmp_path / "sweep.json").read_text())["omega1_grid"]
    rows = [sweep_point(omega1, gamma, kappa, n_max, 0.5)
            for gamma in (0.0, 1e-3) for omega1 in grid]
    lines = ["omega1_over_g,gamma_over_g,T_g,p0_numeric,p0_analytic,"
             "fidelity_conditional,fidelity_no_detection"]
    lines += [",".join(f"{x:.17g}" for x in row) for row in rows]
    assert (tmp_path / "sweep.csv").read_bytes() == "".join(
        line + "\r\n" for line in lines).encode()


def test_trajectories_reports_detection_conditioned_fidelity(tmp_path):
    cfg = write_config(tmp_path, (
        "n_atoms = 2\nkappa = 1.0\ngamma = 0.0\nn_max = 3\n"
        "rabi = 0.05, -0.05\nduration = auto\nsettle = 10.0\n"
        "samples = 300\nseed = 7\neta = 0.5\njump_log = true\n"))
    assert main(["trajectories", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "ensemble.json").read_text())
    assert payload["n_samples"] == 300
    assert 0.85 < payload["p0_estimate"] <= 1.0
    p0 = payload["p0_estimate"]
    assert payload["multiplier"] == pytest.approx(p0 / (1 - 0.5 * (1 - p0)))
    assert payload["fidelity_conditional"] > 0.99
    assert 0.0 < payload["fidelity"] <= 1.0
    with (tmp_path / "jumps.csv").open() as fh:
        jump_rows = list(csv.DictReader(fh))
    assert len({r["trajectory_id"] for r in jump_rows}) <= payload["n_jumped"]
    for row in jump_rows:
        assert row["channel"] == "cavity"


TWO_ATOMS_DRIVEN = ("n_atoms = 2\nkappa = 1.0\ngamma = 0.002\nn_max = 3\nrabi = 0.1, -0.1\n"
                    "duration = auto\nsettle = 10\nsamples = 300\n")


@pytest.mark.parametrize("text, eta", [
    (TWO_ATOMS_DRIVEN, 0.0), (TWO_ATOMS_DRIVEN, 0.5), (TWO_ATOMS_DRIVEN, 1.0),
    # lasers off: every sample survives, so the run has no rho_perp
    ("n_atoms = 2\nkappa = 1.0\nn_max = 3\nrabi = 0, 0\nduration = 5\nsamples = 50\n", 0.7),
    ("n_atoms = 3\nkappa = 1.0\ngamma = 0.001\nn_max = 3\nrabi = 0.1, -0.1, 0.05j\n"
     "duration = 15\nsettle = 5\nsamples = 100\nseed = 11\n", 0.5),
], ids=["eta0", "eta0.5", "eta1", "lasers-off", "three-atoms"])
def test_trajectories_outputs_match_the_undetected_state_of_the_samples(tmp_path, text, eta):
    sample_trajectory = dynamics.sample_trajectory
    sampled = []

    def recording(space, *args):
        sampled.append((space, sample_trajectory(space, *args)))
        return sampled[-1][1]

    cfg = write_config(tmp_path, text + f"eta = {eta}\n")
    with patch.object(dynamics, "sample_trajectory", recording):
        assert main(["trajectories", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "ensemble.json").read_text())
    space = sampled[0][0]
    trajectories = [traj for _, traj in sampled]
    assert len(trajectories) == payload["n_samples"]
    survivors = [traj for traj in trajectories if not traj.jumps]
    p0 = len(survivors) / len(trajectories)
    assert payload["p0_estimate"] == p0
    assert payload["multiplier"] == pytest.approx(p0 / (1.0 - eta * (1.0 - p0)), abs=1e-12)
    if space.params.n_atoms != 2:
        assert payload["fidelity_conditional"] is None and payload["fidelity"] is None
        return
    # no photon detected: a survivor weighs 1, an emitter goes unseen with 1 - eta
    rho = sum((1.0 - eta if traj.jumps else 1.0)
              * np.outer(traj.final_state, traj.final_state.conj()) for traj in trajectories)
    rho /= np.trace(rho).real
    target = dfs_basis(space).vectors[1]
    assert payload["fidelity"] == pytest.approx(np.vdot(target, rho @ target).real, abs=1e-12)
    assert payload["fidelity_conditional"] == pytest.approx(
        abs(np.vdot(target, survivors[0].final_state)) ** 2, abs=1e-12)


def test_sweep_agreement_wherever_weak_driving_holds(tmp_path):
    # rows inside the weak-driving window must match the closed form to 2%;
    # the 0.2 row sits outside the window and carries no such promise
    cfg = write_config(tmp_path, (
        "n_atoms = 2\nkappa = 1.0\nn_max = 3\n"
        "omega1_list = 0.05, 0.1, 0.2\ngamma_list = 0\n"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    with (tmp_path / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        rel = abs(float(row["p0_numeric"]) - float(row["p0_analytic"])) / float(
            row["p0_numeric"])
        if float(row["omega1_over_g"]) <= 0.1:
            assert rel < 0.02
        assert float(row["fidelity_conditional"]) > 0.99


def test_outputs_byte_identical_for_same_config_and_seed(tmp_path):
    text = ("n_atoms = 2\nkappa = 1.0\nn_max = 3\n"
            "omega1_list = 0.03, 0.08\ngamma_list = 0, 0.001\n")
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()

    traj_text = ("n_atoms = 2\nkappa = 1.0\ngamma = 0.001\nn_max = 3\n"
                 "rabi = 0.1, -0.1\nduration = 20.0\nsamples = 120\nseed = 3\n"
                 "jump_log = true\n")
    traj_cfg = write_config(tmp_path, traj_text, name="traj.ini")
    t1, t2, t3 = tmp_path / "t1", tmp_path / "t2", tmp_path / "t3"
    assert main(["trajectories", "--config", traj_cfg, "--out", str(t1)]) == 0
    assert main(["trajectories", "--config", traj_cfg, "--out", str(t2)]) == 0
    assert (t1 / "ensemble.json").read_bytes() == (t2 / "ensemble.json").read_bytes()
    assert (t1 / "jumps.csv").read_bytes() == (t2 / "jumps.csv").read_bytes()
    assert main(["trajectories", "--config", traj_cfg, "--out", str(t3),
                 "--seed", "4"]) == 0
    assert (t1 / "ensemble.json").read_bytes() != (t3 / "ensemble.json").read_bytes()

    # 300 samples span two ENSEMBLE_CHUNK partial sums
    chunked_cfg = write_config(tmp_path, traj_text.replace("samples = 120", "samples = 300"),
                               name="chunked.ini")
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["trajectories", "--config", chunked_cfg, "--out", str(c1)]) == 0
    assert main(["trajectories", "--config", chunked_cfg, "--out", str(c2)]) == 0
    for name in ("ensemble.json", "jumps.csv"):
        assert (c1 / name).read_bytes() == (c2 / name).read_bytes()
    assert len((c1 / "jumps.csv").read_text().splitlines()) > 1


def test_cli_bytes_independent_of_blas_threads(tmp_path):
    # pulse/evolve: N=4 (dim 64) runs the dense exponential, N=5 (dim 128) the Taylor
    # steps; trajectories: N=2, 4, 5 and 6 search jump times with eigen-probes, N=5 is
    # the first dim at which a dense exponential chain was seen to change its bytes, and
    # the N=6 run emits from an atom, so its jumps gather from an atomic channel table; the
    # N=11 trapped basis factors a sector of 132 generators with one Householder QR
    rabi = ("0.049+0.008j", "-0.048+0.012j", "0.05-0.003j", "-0.047-0.015j", "0.046+0.019j",
            "-0.045+0.01j")
    cfgs = []
    for n in (4, 5):
        text = (f"n_atoms = {n}\nkappa = 1.0\nn_max = 3\nduration = 30\nevolve_points = 100\n"
                f"rabi = {', '.join(rabi[:n])}\n")
        cfgs.append((n, write_config(tmp_path, text, name=f"pulse{n}.ini"),
                     write_config(tmp_path, text + "settle = 5\n", name=f"evolve{n}.ini")))
    traj_cfgs = [(n, write_config(tmp_path, (
        f"n_atoms = {n}\nkappa = 1.0\ngamma = 0.001\nn_max = 3\nduration = 30\nsettle = 5\n"
        f"rabi = {', '.join(rabi[:n])}\nsamples = {samples}\nseed = 7\njump_log = true\n"),
        name=f"traj{n}.ini")) for n, samples in ((2, 200), (4, 200), (5, 200), (6, 20))]
    outputs = {}
    for threads in ("1", "2"):
        code = ("import hashlib; from dfs_cavity import SystemParams, build_space, dfs_basis"
                "; from dfs_cavity.cli import main")
        for n, pulse_cfg, evolve_cfg in cfgs:
            out = str(tmp_path / f"threads{threads}" / f"n{n}")
            code += (f"; assert main(['pulse', '--config', {pulse_cfg!r}, '--out', {out!r}]) == 0"
                     f"; assert main(['evolve', '--config', {evolve_cfg!r}, '--out', {out!r}]) == 0")
        for n, traj_cfg in traj_cfgs:
            out = str(tmp_path / f"threads{threads}" / f"traj{n}")
            code += f"; assert main(['trajectories', '--config', {traj_cfg!r}, '--out', {out!r}]) == 0"
        code += ("; print(hashlib.sha256(dfs_basis(build_space(SystemParams(11, n_max=0)))"
                 ".vectors.tobytes()).hexdigest())")
        stdout = run_python("-c", code, OPENBLAS_NUM_THREADS=threads)
        base = tmp_path / f"threads{threads}"
        outputs[threads] = {(n, name): (base / f"n{n}" / name).read_bytes()
                            for n, _, _ in cfgs
                            for name in ("pulse.json", "evolve.csv", "evolve.json")}
        outputs[threads][11, "dfs_basis"] = stdout.splitlines()[-1]
        outputs[threads].update({(n, name): (base / f"traj{n}" / name).read_bytes()
                                 for n, _ in traj_cfgs for name in ("ensemble.json", "jumps.csv")})
    assert outputs["1"] == outputs["2"]
    assert all(outputs["1"][n, "jumps.csv"].count(b"\n") > 1 for n, _ in traj_cfgs)
    assert b",atom_" in outputs["1"][6, "jumps.csv"]


def test_p0_sum_has_the_same_bytes_on_one_and_two_blas_threads():
    # a vector as long as the N=12 state (dim 16 384), on which np.vdot's sum, split over
    # the threads, differs in its last bit between 1 and 2 threads
    code = ("import numpy as np; from dfs_cavity.cli import _squared_norm"
            "; z = np.random.default_rng(0).standard_normal((2, 16384))"
            "; print(_squared_norm((z[0] + 1j * z[1]) / 200).hex())")
    sums = {threads: run_python("-c", code, OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2")}
    assert sums["1"] == sums["2"]


def test_sweep_and_trajectories_do_not_load_sparse_linalg(tmp_path):
    # the package never imports scipy.sparse.linalg, and scipy.sparse only on a sparse step
    sweep = write_config(tmp_path, "n_atoms = 2\nomega1_list = 0.05\ngamma_list = 0\n",
                         name="sweep.ini")
    traj = write_config(tmp_path, ("n_atoms = 2\ngamma = 0.01\nrabi = 0.1, -0.1\n"
                                   "duration = 20\nsettle = 5\nsamples = 20\n"), name="traj.ini")
    loaded = run_python(
        "-c", "import sys; from dfs_cavity.cli import main; "
        f"assert main(['sweep', '--config', {sweep!r}, '--out', {str(tmp_path)!r}]) == 0; "
        f"assert main(['trajectories', '--config', {traj!r}, '--out', {str(tmp_path)!r}]) == 0; "
        "print('loaded' if 'scipy.sparse.linalg' in sys.modules else 'absent')")
    assert loaded.splitlines()[-1] == "absent"


def test_package_import_and_basis_leave_scipy_unloaded(tmp_path):
    # only dynamics imports scipy, and the package exports its names lazily
    cfg = write_config(tmp_path, "n_atoms = 2\n")
    out = run_python("-c", (
        "import sys\n"
        "import dfs_cavity\n"
        "from dfs_cavity.cli import main\n"
        f"assert main(['basis', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        "from dfs_cavity import *\n"  # binds every name, so it loads dynamics and scipy
        "assert all(name in globals() for name in dfs_cavity.__all__)\n"
        "assert dfs_cavity.propagate_schedule is dfs_cavity.dynamics.propagate_schedule\n"
        "assert dfs_cavity.Schedule is dfs_cavity.dynamics.Schedule\n"))
    assert out.splitlines()[-1] == "[]"


def test_stepping_modes_import_scipy_before_the_freeze(tmp_path):
    # main imports dynamics before gc.freeze(), so scipy's import-time objects are frozen
    # and the collector does not see them during the run; gc.get_objects() leaves the
    # frozen ones out.  Importing after the freeze leaves about 900 scipy callables there
    sweep = write_config(tmp_path, "n_atoms = 2\nomega1_list = 0.05\ngamma_list = 0\n",
                         name="sweep.ini")
    pulse = write_config(tmp_path, TRAJ, name="pulse.ini")
    out = run_python("-c", (
        "import gc\n"
        "from dfs_cavity.cli import main\n"
        "counts = []\n"
        f"for mode, cfg in (('sweep', {sweep!r}), ('pulse', {pulse!r})):\n"
        f"    assert main([mode, '--config', cfg, '--out', {str(tmp_path)!r}]) == 0\n"
        "    counts.append(sum(callable(o) and str(getattr(o, '__module__', '')).startswith("
        "'scipy') for o in gc.get_objects()))\n"
        "print(counts)\n"))
    assert out.splitlines()[-1] == "[0, 0]"


CONSOLE_RUNS = {
    "basis": "n_atoms = 4\nn_max = 1\n",
    "evolve": TRAJ + "settle = 2\nevolve_points = 20\n",
    "pulse": TRAJ + "settle = 2\n",
    "sweep": "n_atoms = 2\nomega1_list = 0.03, 0.08\ngamma_list = 0, 0.001\n",
    "trajectories": ("n_atoms = 2\ngamma = 0.01\nrabi = 0.1, -0.1\nduration = 20\n"
                     "settle = 5\nsamples = 40\nseed = 3\njump_log = true\n"),
}


# each mode's own config, then one config that sets every accepted key, in each mode
@pytest.mark.parametrize("mode, text", [*CONSOLE_RUNS.items(),
                                        *((mode, every_key(mode)) for mode in MODES)],
                         ids=[*CONSOLE_RUNS, *(f"{mode}-every-key" for mode in MODES)])
def test_console_run_writes_the_outputs_of_an_in_process_run(tmp_path, capsys, mode, text):
    # main freezes the collector, so the console process leaves its objects to the
    # OS at exit: every output must be whole by then, with no finaliser to flush it
    cfg = write_config(tmp_path, text)
    here, there = tmp_path / "in_process", tmp_path / "console"
    assert main([mode, "--config", cfg, "--out", str(here)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    # block-buffered stdout, as for any console run into a pipe
    stdout = run_python("-m", "dfs_cavity.cli", mode, "--config", cfg, "--out", str(there),
                        PYTHONUNBUFFERED="")
    assert last.startswith("wrote ")
    assert stdout.splitlines()[-1] == last.replace(str(here), str(there))
    names = sorted(p.name for p in here.iterdir())
    assert sorted(p.name for p in there.iterdir()) == names
    for name in names:
        assert (there / name).read_bytes() == (here / name).read_bytes(), name


def test_collector_still_collects_after_an_in_process_main(tmp_path):
    cfg = write_config(tmp_path, "n_atoms = 2\nn_max = 1\n")
    assert main(["basis", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert gc.isenabled()

    class Node:
        pass

    node = Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


def test_evolve_timeseries(tmp_path):
    cfg = write_config(tmp_path, (
        "n_atoms = 2\nkappa = 1.0\ngamma = 0.001\nn_max = 3\n"
        "rabi = 0.1, -0.1\nduration = 10.0\nsettle = 5.0\nevolve_points = 50\n"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    with (tmp_path / "evolve.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    p0 = [float(r["p0"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(p0, p0[1:]))
    assert float(rows[0]["time_g"]) == 0.0 and float(rows[-1]["time_g"]) == 15.0
    payload = json.loads((tmp_path / "evolve.json").read_text())
    assert payload["p0_final"] == pytest.approx(p0[-1])
    pops = [float(r["dfs_population"]) for r in rows]
    assert all(0.9 <= v <= 1.0 + 1e-12 for v in pops)


def test_vanished_state_exits_with_guard_code(tmp_path):
    # the no-emission probability underflows to exactly zero long before t = 5000
    cfg = write_config(tmp_path, "n_atoms = 1\ngamma = 1\nrabi = 1.0\nduration = 5000\n")
    for mode in ("pulse", "evolve", "trajectories"):
        assert main([mode, "--config", cfg, "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "evolve.json").exists()


def test_non_finite_state_exits_with_guard_code(tmp_path, capsys):
    # at Rabi frequencies of 1e20 the exponential overflows to NaN: the guard says so
    # instead of reporting a vanished state, in the propagator and in the sampler plan,
    # and its line is all the abort prints: numpy's overflow warnings are dropped
    cfg = write_config(tmp_path, "n_atoms = 2\nrabi = 1e20, 1e20\nduration = 1\nsamples = 10\n")
    for mode in ("pulse", "evolve", "trajectories"):
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert main([mode, "--config", cfg, "--out", str(tmp_path / mode)]) == 3
        assert shown == []
        assert capsys.readouterr().err == ("numerical guard: conditional state is not finite: "
                                           "the propagation overflowed\n")
        assert not (tmp_path / mode).exists()


def test_a_runaway_taylor_step_exits_with_guard_code(tmp_path):
    # at N=5 (dim 128) pulse and evolve take Taylor steps, whose sub-step count grows with
    # the drive: Rabi frequencies of 1e20 ask for 7.6e20, so the step aborts before its
    # first.  Each run is a child process with a timeout, so a step that runs on fails
    # the test instead of hanging the suite
    cfg = write_config(tmp_path, "n_atoms = 5\nrabi = 1e20, 1e20, 1e20, 1e20, 1e20\n"
                                 "duration = 30\n")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    for mode in ("pulse", "evolve"):
        out = tmp_path / mode
        result = subprocess.run([sys.executable, "-m", "dfs_cavity.cli", mode, "--config", cfg,
                                 "--out", str(out)], env=env, capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 3
        assert result.stderr == ("numerical guard: a Taylor step of 1-norm 7.5e+21 has too many "
                                 "sub-steps\n")
        assert not out.exists()


def test_a_run_that_ends_still_shows_its_warnings(tmp_path, monkeypatch):
    def warn_and_write(cfg, out):
        warnings.warn("overflow encountered", RuntimeWarning)
        (out / "done.txt").write_text("done\n")

    monkeypatch.setitem(cli.COMMANDS, "basis", warn_and_write)
    cfg = write_config(tmp_path, "n_atoms = 2\n")
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        assert main(["basis", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "done.txt").exists()


def test_a_run_that_raises_shows_its_warnings_before_the_error(tmp_path):
    # only a config error or guard abort drops the held warnings: an unhandled error
    # still prints them, to stderr and before it propagates
    cfg = write_config(tmp_path, "n_atoms = 2\n")
    out = run_python("-c", (
        "import sys, warnings\n"
        "from dfs_cavity import cli\n"
        "def warn_and_fail(cfg, out):\n"
        "    warnings.warn('overflow encountered', RuntimeWarning)\n"
        "    raise OSError('disk full')\n"
        "cli.COMMANDS['basis'] = warn_and_fail\n"
        "sys.stderr = sys.stdout\n"
        "try:\n"
        f"    cli.main(['basis', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "except OSError as exc:\n"
        "    print('raised:', exc)\n"))
    lines = out.splitlines()
    assert "RuntimeWarning: overflow encountered" in lines[0]
    assert lines[-1] == "raised: disk full"


@pytest.mark.parametrize("text", [
    # N=2 on the dense steps, the 17.3 + 4.1 split that once rounded apart, and N=5 on
    # the Taylor steps; each grid puts rows inside both segments
    "n_atoms = 2\nrabi = 0.1, -0.1\nduration = 10\nsettle = 5\nevolve_points = 8\n",
    "n_atoms = 3\nrabi = 0.05, -0.05, 0.05\nduration = 17.3\nsettle = 4.1\nevolve_points = 57\n",
    "n_atoms = 5\nrabi = 0.05, -0.05, 0.05, -0.05, 0.05\nduration = 30\nsettle = 5\n"
    "evolve_points = 20\n",
], ids=["dense-n2", "dense-n3", "taylor-n5"])
def test_pulse_and_evolve_report_the_same_final_state(tmp_path, text):
    cfg = write_config(tmp_path, "kappa = 1.0\ngamma = 0.001\nn_max = 3\n" + text)
    for mode in ("pulse", "evolve"):
        assert main([mode, "--config", cfg, "--out", str(tmp_path)]) == 0
    pulse = json.loads((tmp_path / "pulse.json").read_text())
    evolve = json.loads((tmp_path / "evolve.json").read_text())
    assert pulse["p0"] == evolve["p0_final"]
    assert pulse["final_state_re_im"] == evolve["final_state_re_im"]


def test_no_survivor_at_full_detection_efficiency_exits_with_guard_code(tmp_path, capsys):
    # true p0 ~ 6e-19: none of 20 samples survives, and at eta = 1 every emission is
    # detected, so no undetected state is left to report
    text = ("n_atoms = 1\nkappa = 1.0\ngamma = 2.0\nn_max = 1\nrabi = 0.5\n"
            "duration = 1000\nsamples = 20\n")
    empty = write_config(tmp_path, text + "eta = 1.0\n", name="empty.ini")
    assert main(["trajectories", "--config", empty, "--out", str(tmp_path / "a")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: ") and err.count("\n") == 1
    assert not (tmp_path / "a").exists()
    lossy = write_config(tmp_path, text + "eta = 0.9\n", name="lossy.ini")
    assert main(["trajectories", "--config", lossy, "--out", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "b" / "ensemble.json").read_text())["p0_estimate"] == 0.0


def test_samples_override(tmp_path):
    cfg = write_config(tmp_path, (
        "n_atoms = 2\nkappa = 1.0\nn_max = 3\nrabi = 0.05, -0.05\n"
        "duration = 5.0\nsamples = 999\n"))
    assert main(["trajectories", "--config", cfg, "--out", str(tmp_path),
                 "--samples", "50"]) == 0
    payload = json.loads((tmp_path / "ensemble.json").read_text())
    assert payload["n_samples"] == 50
