"""Output checks for every benchmark invocation.

Each `check_<mode>` returns a list of failure messages (empty when the
output is correct).  Physics checks are independent of the recorded
references; `compare` then holds the outputs to the values recorded at
the commit that defined the benchmark, within the tolerances below, and
`file_digests` feeds the byte-identity count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

DETERMINISTIC_RTOL = 1e-8    # deterministic floats against the reference
DETERMINISTIC_ATOL = 1e-12
ENSEMBLE_SIGMAS = 4.0        # stochastic estimates, in binomial standard errors
SWEEP_P0_RTOL = 0.02         # numeric vs closed form, omega1 <= SWEEP_WEAK_DRIVE
SWEEP_WEAK_DRIVE = 0.1
SWEEP_MIN_FIDELITY = 0.99
ORTHO_TOL = 1e-10
SWEEP_STRIDE = 50            # every 50th sweep row is kept in the reference
EVOLVE_STRIDE = 10           # every 10th evolve row


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows: list[dict[str, str]], key: str) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def dicke_degeneracy(n_atoms: int, n: int) -> int:
    """Trapped vectors with n excitations: C(N, n) - C(N, n - 1)."""
    return math.comb(n_atoms, n) - (math.comb(n_atoms, n - 1) if n > 0 else 0)


def p0_closed_form(rabi: float, kappa: float, n_max: int) -> float:
    """Two-atom closed-form survival at the auto pulse length."""
    from dfs_cavity.analytic import build_slow_model, entangling_pulse_duration
    from dfs_cavity.analytic import p0_closed_form as closed_form
    from dfs_cavity.hilbert import SystemParams

    model = build_slow_model(SystemParams(2, 1.0, kappa, 0.0, n_max), rabi, -rabi)
    return closed_form(model, entangling_pulse_duration(model))


def check_trajectories(out: Path, samples: int, p0_expected: float) -> list[str]:
    fails = []
    payload = json.loads((out / "ensemble.json").read_text())
    if payload["n_samples"] != samples:
        fails.append(f"n_samples {payload['n_samples']} != {samples}")
    sigma = math.sqrt(p0_expected * (1.0 - p0_expected) / samples)
    dev = abs(payload["p0_estimate"] - p0_expected)
    if not dev <= ENSEMBLE_SIGMAS * sigma:
        fails.append(f"p0_estimate {payload['p0_estimate']} is {dev / sigma:.1f} sigma "
                     f"from the closed form {p0_expected}")
    rows = _read_csv(out / "jumps.csv")
    ids = {int(r["trajectory_id"]) for r in rows}
    if len(ids) != payload["n_jumped"]:
        fails.append(f"jumps.csv has {len(ids)} trajectories, n_jumped = {payload['n_jumped']}")
    if ids and not (min(ids) >= 0 and max(ids) < samples):
        fails.append("jumps.csv trajectory ids outside the sample range")
    if any(r["channel"] != "cavity" for r in rows):
        fails.append("jumps.csv lists a channel other than the cavity (gamma = 0)")
    if rows and min(_column(rows, "jump_time")) < 0:
        fails.append("negative jump time")
    return fails


def check_sweep(out: Path, expected_rows: int) -> list[str]:
    fails = []
    rows = _read_csv(out / "sweep.csv")
    if len(rows) != expected_rows:
        fails.append(f"sweep.csv has {len(rows)} rows, expected {expected_rows}")
    if not rows:
        return fails
    omega = _column(rows, "omega1_over_g")
    p0_num, p0_ana = _column(rows, "p0_numeric"), _column(rows, "p0_analytic")
    fid = _column(rows, "fidelity_conditional")
    weak = omega <= SWEEP_WEAK_DRIVE
    worst = float(np.max(np.abs(p0_num[weak] / p0_ana[weak] - 1.0))) if weak.any() else 0.0
    if not worst <= SWEEP_P0_RTOL:
        fails.append(f"p0_numeric deviates {worst:.3%} from p0_analytic at omega1 <= "
                     f"{SWEEP_WEAK_DRIVE}")
    if not fid.min() > SWEEP_MIN_FIDELITY:
        fails.append(f"fidelity_conditional {fid.min()} <= {SWEEP_MIN_FIDELITY}")
    if not (np.all(p0_num > 0) and np.all(p0_num <= 1 + 1e-12)):
        fails.append("p0_numeric outside (0, 1]")
    return fails


def _lower(vectors: np.ndarray, n_atoms: int) -> np.ndarray:
    """J_minus = sum_i sigma_i applied to atomic vectors (rows), bitwise."""
    configs = np.arange(1 << n_atoms)
    out = np.zeros_like(vectors)
    for bit in range(n_atoms):
        mask = 1 << bit
        excited = configs[(configs & mask) != 0]
        out[:, excited ^ mask] += vectors[:, excited]
    return out


def check_basis(out: Path, n_atoms: int) -> list[str]:
    fails = []
    sidecar = json.loads((out / "dfs_basis.json").read_text())
    count = math.comb(n_atoms, n_atoms // 2)
    if sidecar["dfs_dimension"] != count:
        return [f"dfs_dimension {sidecar['dfs_dimension']} != {count}"]
    expected = {str(n): dicke_degeneracy(n_atoms, n) for n in range(n_atoms // 2 + 1)}
    if sidecar["sector_counts"] != expected:
        fails.append(f"sector counts {sidecar['sector_counts']} != {expected}")
    dim = sidecar["space_dimension"]
    rows = _read_csv(out / "dfs_basis.csv")
    if len(rows) != count * dim:
        return fails + [f"dfs_basis.csv has {len(rows)} rows, expected {count * dim}"]
    amps = _column(rows, "re_amplitude") + 1j * _column(rows, "im_amplitude")
    vectors = amps.reshape(count, dim)
    gram = vectors.conj() @ vectors.T
    if not np.max(np.abs(gram - np.eye(count))) <= ORTHO_TOL:
        fails.append("basis vectors are not orthonormal")
    atomic = vectors[:, : 1 << n_atoms]
    if np.max(np.abs(vectors[:, 1 << n_atoms:]), initial=0.0) > 0:
        fails.append("basis vectors leave the cavity-vacuum block")
    if not np.max(np.abs(_lower(atomic, n_atoms))) <= ORTHO_TOL:
        fails.append("basis vectors are not annihilated by J_minus")
    popcount = np.array([bin(c).count("1") for c in range(1 << n_atoms)])
    for k, sector in enumerate(sidecar["sectors"]):
        support = np.abs(atomic[k]) > ORTHO_TOL
        if np.any(popcount[support] != sector["excitation"]):
            fails.append(f"vector {k} leaves its excitation sector")
            break
    return fails


def check_pulse(out: Path) -> list[str]:
    payload = json.loads((out / "pulse.json").read_text())
    return [f"{key} = {payload[key]} outside (0, 1]" for key in ("p0", "dfs_population")
            if not 0 < payload[key] <= 1 + 1e-12]


def check_evolve(out: Path, points: int) -> list[str]:
    fails = []
    rows = _read_csv(out / "evolve.csv")
    if len(rows) != points:
        fails.append(f"evolve.csv has {len(rows)} rows, expected {points}")
    p0 = _column(rows, "p0")
    if np.any(np.diff(p0) > 1e-12):
        fails.append("p0 increases along the no-emission evolution")
    if not 0 < p0[-1] <= 1 + 1e-12:
        fails.append(f"final p0 {p0[-1]} outside (0, 1]")
    final = json.loads((out / "evolve.json").read_text())["p0_final"]
    if final != p0[-1]:
        fails.append("evolve.json p0_final differs from the last evolve.csv row")
    return fails


# -- references --------------------------------------------------------------

def summarize(mode: str, out: Path) -> dict:
    """Values of one invocation's outputs that the reference keeps."""
    if mode == "trajectories":
        payload = json.loads((out / "ensemble.json").read_text())
        return {k: payload[k] for k in ("p0_estimate", "n_jumped", "n_samples")}
    if mode == "sweep":
        rows = _read_csv(out / "sweep.csv")[::SWEEP_STRIDE]
        return {k: _column(rows, k).tolist() for k in ("p0_numeric", "fidelity_conditional")}
    if mode == "basis":
        sidecar = json.loads((out / "dfs_basis.json").read_text())
        return {k: sidecar[k] for k in ("dfs_dimension", "sector_counts")}
    if mode == "pulse":
        payload = json.loads((out / "pulse.json").read_text())
        return {k: payload[k] for k in ("p0", "dfs_population")}
    if mode == "evolve":
        rows = _read_csv(out / "evolve.csv")[::EVOLVE_STRIDE]
        return {"p0": _column(rows, "p0").tolist()}
    raise KeyError(mode)


def compare(mode: str, values: dict, ref: dict) -> list[str]:
    """Failures of `values` against the recorded reference `ref`."""
    if mode == "trajectories":
        n, p = ref["n_samples"], ref["p0_estimate"]
        if values["n_samples"] != n:
            return [f"n_samples {values['n_samples']} != reference {n}"]
        # two independent estimates differ by sqrt(2) standard errors
        tol = ENSEMBLE_SIGMAS * math.sqrt(2.0 * max(p * (1.0 - p), 1.0 / n) / n)
        if abs(values["p0_estimate"] - p) > tol:
            return [f"p0_estimate {values['p0_estimate']} vs reference {p} (tol {tol:.2g})"]
        return []
    fails = []
    for key, want in ref.items():
        got = values.get(key)
        if isinstance(want, (dict, int, str)) or want is None:
            if got != want:
                fails.append(f"{key} = {got!r}, reference {want!r}")
            continue
        got_arr, want_arr = np.atleast_1d(got), np.atleast_1d(want)
        if got_arr.shape != want_arr.shape or not np.allclose(
                got_arr, want_arr, rtol=DETERMINISTIC_RTOL, atol=DETERMINISTIC_ATOL):
            fails.append(f"{key} differs from the reference beyond rtol {DETERMINISTIC_RTOL}")
    return fails


def file_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}
