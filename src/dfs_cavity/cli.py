"""Command-line front end: `dfs-cavity-sim <mode> --config <path> [...]`.

Config files are flat `key = value` text (INI syntax; a leading section
header is optional and ignored).  All rates are expressed in units of
the atom-cavity coupling g, which is fixed to 1; durations are in units
of 1/g.  Outputs are plain CSV/JSON written with full double precision
so identical (config, seed) pairs produce byte-identical files.

A key outside CONFIG_KEYS, or one set twice (in one section or in two),
is a config error; a ``%`` in a value is read as it stands.

Exit codes: 0 success, 2 config error, 3 numerical-guard abort (an
allocation over the byte budget of ``hilbert.check_budget`` included).
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import csv
import gc
import json
import shutil
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import (OverdampedError, build_slow_model, entangling_pulse_duration,
                       p0_closed_form, zeno_timescale_check)
from .dfs import dfs_basis, dfs_dimension, dicke_degeneracy, export_basis
from .hamiltonians import Pulse, Schedule, conditional_hamiltonian, laser_hamiltonian
from .hilbert import DeskScaleError, SystemParams, build_space, check_budget

GUARD_ERRORS = (DeskScaleError, OverdampedError, ArithmeticError)
SWEEP_CHUNK = 256  # omega1 points per stacked exponential; bounds the stack at 1 MB
# Bytes a sweep holds per row at its peak, counting the grid as one more row per point:
# a row's tuple and floats take 224 B, the grid, its sweep.json list and the encoder's
# chunks 151 B per point (tracemalloc slope at 20 000-80 000 points, 1 and 4 gammas)
SWEEP_ROW_BYTES = 240


class ConfigError(ValueError):
    """Missing, malformed, or mode-inconsistent configuration."""


def __getattr__(name: str):
    # the commands import dynamics, and with it scipy, when they run; cli.propagate_conditional
    # still resolves, because perfbench/test_perfbench.py reads it
    if name != "propagate_conditional":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .dynamics import propagate_conditional
    return propagate_conditional


def _number(text: str, kind: type = float) -> complex:
    value = kind(text)
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(_number(tok) for tok in text.split(",") if tok.strip())


_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES  # 1/0, true/false, yes/no, on/off
# every key a config may set, in every mode.  read(text) raises ValueError or KeyError on a
# malformed or non-finite value, reported as "<key> must be <must_be>"; None: no default
ConfigKey = namedtuple("ConfigKey", "read must_be default", defaults=(None,))
CONFIG_KEYS = {
    "mode": ConfigKey(str.strip, "a mode name"),
    "n_atoms": ConfigKey(int, "an integer"),
    "kappa": ConfigKey(_number, "a finite number", 1.0),
    "gamma": ConfigKey(_number, "a finite number", 0.0),
    "n_max": ConfigKey(int, "an integer", 3),
    "seed": ConfigKey(int, "an integer", 1),
    "eta": ConfigKey(_number, "a finite number", 0.0),
    "settle": ConfigKey(_number, "a finite number", 0.0),
    "samples": ConfigKey(int, "an integer", 10000),
    "jump_log": ConfigKey(lambda text: _BOOLEANS[text.strip().lower()], "a boolean", False),
    "evolve_points": ConfigKey(int, "an integer", 200),
    "rabi": ConfigKey(lambda text: tuple(_number(tok.strip(), complex) for tok in text.split(",")),
                      "comma-separated finite complex numbers"),
    "duration": ConfigKey(lambda text: text if text == "auto" else _number(text),
                          "a finite number or auto"),
    "omega1_list": ConfigKey(_numbers, "a comma-separated list of finite numbers"),
    "omega1_min": ConfigKey(_number, "a finite number", 1e-3),
    "omega1_max": ConfigKey(_number, "a finite number", 0.3),
    "omega1_points": ConfigKey(int, "an integer", 40),
    "gamma_list": ConfigKey(_numbers, "a comma-separated list of finite numbers",
                            (0.0, 1e-5, 1e-4, 1e-3)),
}


@dataclass
class RunConfig:
    params: SystemParams
    seed: int
    eta: float
    settle: float
    samples: int
    jump_log: bool
    evolve_points: int
    gamma_list: tuple[float, ...]
    schedule: Schedule | None = None  # the pulse and its settle tail; evolve, pulse, trajectories
    omega1_grid: tuple[float, ...] = ()
    grid_source: str = "default"


def _parse_flat(text: str) -> dict[str, str]:
    # values are read as they stand (no % interpolation), and every header, [DEFAULT]
    # included, starts an ordinary section, so a key set in two sections is seen.  Keys
    # before the first header go into an implicit [run] section, which is added only
    # when the first line that is neither blank nor a comment is not a header
    parser = configparser.ConfigParser(interpolation=None, default_section=None)
    lines = (line.strip() for line in text.splitlines())
    first = next((line for line in lines if line and not line.startswith(("#", ";"))), "")
    try:
        parser.read_string(text if first.startswith("[") else "[run]\n" + text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser[section].items():
            if key in flat:
                raise ConfigError(f"key {key!r} is set in two sections")
            flat[key] = value
    return flat


def load_config(path: str | Path, mode: str, seed: int | None = None,
                samples: int | None = None) -> RunConfig:
    """Read a config file, apply the --seed/--samples overrides and check every mode rule.

    Every key in the file is read and checked first, whether or not the
    mode uses it.  The returned run is valid for its mode, so a config error
    (ConfigError) raises before any output or Hilbert space exists.  The
    schedule is built here; ``duration = auto`` (two atoms, kappa > 0) takes
    the slow model's full-rotation length, whose OverdampedError stays a
    guard error.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = _parse_flat(path.read_text())
    unknown = sorted(raw.keys() - CONFIG_KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}; "
                          f"accepted keys: {', '.join(sorted(CONFIG_KEYS))}")
    val = {key: spec.default for key, spec in CONFIG_KEYS.items()}
    for key, text in raw.items():
        try:
            val[key] = CONFIG_KEYS[key].read(text)
        except (ValueError, KeyError):
            raise ConfigError(f"{key} must be {CONFIG_KEYS[key].must_be}, got {text!r}") from None
    if "mode" in raw and val["mode"] != mode:
        raise ConfigError(f"config specifies mode {raw['mode']!r} but {mode!r} was requested")
    if val["n_atoms"] is None:
        raise ConfigError("missing required key 'n_atoms'")
    try:
        params = SystemParams(n_atoms=val["n_atoms"], g=1.0, kappa=val["kappa"],
                              gamma=val["gamma"], n_max=val["n_max"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the --seed/--samples overrides replace the file's values, which must still parse
    cfg = RunConfig(params, seed=val["seed"] if seed is None else seed, eta=val["eta"],
                    settle=val["settle"], samples=val["samples"] if samples is None else samples,
                    jump_log=val["jump_log"], evolve_points=val["evolve_points"],
                    gamma_list=val["gamma_list"])
    if not 0 <= cfg.eta <= 1:
        raise ConfigError(f"eta must lie in [0, 1], got {cfg.eta}")
    if cfg.settle < 0:
        raise ConfigError("settle must be >= 0")
    if mode == "trajectories" and cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    if mode == "trajectories" and cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if mode == "evolve" and cfg.evolve_points < 2:
        raise ConfigError("evolve_points must be >= 2")

    if mode in ("evolve", "pulse", "trajectories"):
        rabi, duration = val["rabi"], val["duration"]
        if rabi is None:
            raise ConfigError(f"mode {mode!r} requires the 'rabi' key")
        if len(rabi) != params.n_atoms:
            raise ConfigError(f"rabi lists {len(rabi)} drives for {params.n_atoms} atoms")
        if duration == "auto":
            if params.n_atoms != 2 or params.kappa == 0:
                raise ConfigError("duration = auto needs two atoms and kappa > 0")
            duration = entangling_pulse_duration(build_slow_model(params, *rabi))
        elif duration is None:
            raise ConfigError("missing required key 'duration'")
        elif duration < 0:
            raise ConfigError("duration must be >= 0")
        segments = [Pulse(rabi, duration)]
        if cfg.settle > 0:
            segments.append(Pulse.off(params.n_atoms, cfg.settle))
        cfg.schedule = Schedule(tuple(segments))

    if mode == "sweep":
        if params.n_atoms != 2 or params.kappa == 0:
            raise ConfigError("sweep needs two atoms and kappa > 0")
        if "gamma_list" in raw:
            if not cfg.gamma_list:
                raise ConfigError("gamma_list is empty")
            if any(gm < 0 for gm in cfg.gamma_list):
                raise ConfigError("gamma_list entries must be >= 0")
        elif "gamma" in raw:
            cfg.gamma_list = (params.gamma,)
        grid = val["omega1_list"]
        lo, hi, pts = val["omega1_min"], val["omega1_max"], val["omega1_points"]
        if grid is None and (lo <= 0 or hi <= lo or pts < 1):
            raise ConfigError("omega1 grid must be positive with max > min")
        n_points = pts if grid is None else len(grid)
        check_budget(f"a sweep of {n_points} omega1 points x {len(cfg.gamma_list)} gammas",
                     SWEEP_ROW_BYTES * n_points * (len(cfg.gamma_list) + 1))
        if grid is None:
            grid = tuple(np.geomspace(lo, hi, pts).tolist())
        keys = {"omega1_list", "omega1_min", "omega1_max", "omega1_points"}
        cfg.grid_source = "config" if keys & raw.keys() else "default"
        if not grid:
            raise ConfigError("sweep grid is empty")
        if any(o <= 0 for o in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("omega1 grid must be strictly increasing and positive")
        cfg.omega1_grid = grid
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    # floats with 17 significant digits, so they read back to the same doubles
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])


def _squared_norm(psi: np.ndarray) -> float:
    # numpy's pairwise sum, whose order does not depend on the BLAS thread count: np.vdot
    # splits its sum over the threads at dim 16 384, and its last digits with it
    return float(np.sum(psi.real * psi.real + psi.imag * psi.imag))


def _state_as_pairs(state: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state]


def cmd_basis(cfg: RunConfig, out: Path) -> None:
    space = build_space(cfg.params)
    basis = dfs_basis(space)
    export_basis(basis, out / "dfs_basis.csv", out / "dfs_basis.json")
    counts = basis.sector_counts()
    print(f"trapped-subspace dimension: {len(basis)} (of {space.dim} total)")
    for n in sorted(counts):
        l = space.n_atoms / 2 - n
        print(f"  excitation n={n} (l={l:g}): {counts[n]} vectors "
              f"(degeneracy {dicke_degeneracy(space.n_atoms, l)})")
    print(f"wrote {out / 'dfs_basis.csv'} and {out / 'dfs_basis.json'}")


def _sweep_curve(gamma: float, kappa: float, n_max: int, eta: float,
                 grid: tuple[float, ...]) -> list[tuple[float, ...]]:
    """One sweep row per omega1 of the grid, at omega2 = -omega1 and this gamma.

    The grid runs in chunks of SWEEP_CHUNK points, each one stacked H_cond
    h0 + omega1 * drive and one propagate_conditional call.  The drive lands
    on sigma_i entries, which hold +0.0 in h0, so every slice has the bytes
    of conditional_hamiltonian(space, Pulse((omega1, -omega1), T)).
    """
    from .dynamics import propagate_conditional

    params = SystemParams(2, 1.0, kappa, gamma, n_max)
    space = build_space(params)
    # h0, the drive and, per chunk, the H_cond stack, its scaled copy and the exponentials
    check_budget("sweep", 16 * (2 + 3 * min(SWEEP_CHUNK, len(grid))) * space.dim * space.dim)
    trapped_g, trapped_a = dfs_basis(space).vectors[:2]  # ground and antisymmetric trapped states
    psi0 = space.ground_state()
    h0 = conditional_hamiltonian(space)
    drive = laser_hamiltonian(space, Pulse((1.0, -1.0), 0.0))
    rows = []
    for start in range(0, len(grid), SWEEP_CHUNK):
        omegas = grid[start:start + SWEEP_CHUNK]
        models = [build_slow_model(params, omega1, -omega1) for omega1 in omegas]
        durations = [entangling_pulse_duration(model) for model in models]
        stack = h0 + np.array(omegas)[:, None, None] * drive
        states = propagate_conditional(stack, psi0, np.array(durations))
        for omega1, model, duration, psi in zip(omegas, models, durations, states):
            c_g = np.vdot(trapped_g, psi)
            c_a = np.vdot(trapped_a, psi)
            # Success probability of the full protocol: no emission during the
            # pulse and the atoms settle into the trapped subspace (the leaked
            # transient amplitude decays right after the pulse ends).
            p0_num = abs(c_g) ** 2 + abs(c_a) ** 2
            p0_ana = p0_closed_form(model, duration)
            fid_cond = abs(c_a) ** 2 / p0_num
            fid_nodet = fid_cond * p0_num / (1.0 - eta * (1.0 - p0_num))
            rows.append((omega1, gamma, duration, p0_num, p0_ana, fid_cond, fid_nodet))
    return rows


def cmd_sweep(cfg: RunConfig, out: Path) -> None:
    rows = [row for gm in cfg.gamma_list
            for row in _sweep_curve(gm, cfg.params.kappa, cfg.params.n_max, cfg.eta,
                                    cfg.omega1_grid)]
    csv_path = out / "sweep.csv"
    _write_csv(csv_path, ["omega1_over_g", "gamma_over_g", "T_g", "p0_numeric", "p0_analytic",
                          "fidelity_conditional", "fidelity_no_detection"], rows)
    meta = {
        "mode": "sweep",
        "kappa_over_g": cfg.params.kappa,
        "n_max": cfg.params.n_max,
        "eta": cfg.eta,
        "omega1_grid": list(cfg.omega1_grid),
        "gamma_list": list(cfg.gamma_list),
        "grid_source": cfg.grid_source,
        "drive": "omega2 = -omega1",
        "p0_numeric_definition": ("squared norm of the trapped-subspace component of the "
                                  "conditionally evolved state at the end of the pulse"),
    }
    _write_json(out / "sweep.json", meta)
    print(f"wrote {len(rows)} grid points to {csv_path}")


def cmd_pulse(cfg: RunConfig, out: Path) -> None:
    from .dynamics import propagate_schedule

    space = build_space(cfg.params)
    basis = dfs_basis(space)
    pulse = cfg.schedule.segments[0]
    psi = propagate_schedule(space, cfg.schedule)
    p0 = _squared_norm(psi)
    psi_hat = psi / np.sqrt(p0)
    overlaps = [float(abs(np.vdot(basis.vectors[k], psi_hat)) ** 2)
                for k in range(len(basis))]
    report = zeno_timescale_check(cfg.params, pulse)
    payload = {
        "mode": "pulse",
        "n_atoms": cfg.params.n_atoms,
        "kappa_over_g": cfg.params.kappa,
        "gamma_over_g": cfg.params.gamma,
        "n_max": cfg.params.n_max,
        "rabi_over_g": [[r.real, r.imag] for r in pulse.rabi],
        "pulse_duration_g": pulse.duration,
        "settle_g": cfg.settle,
        "p0": p0,
        "final_state_re_im": _state_as_pairs(psi_hat),
        "dfs_overlaps": [
            {"vector_index": k, "excitation": basis.excitations[k],
             "dicke_l": basis.dicke_l[k], "population": overlaps[k]}
            for k in range(len(basis))
        ],
        "dfs_population": float(sum(overlaps)),
        "zeno_check": {"drive_ratio": report.drive_ratio,
                       "spontaneous_ratio": report.spontaneous_ratio,
                       "passed": report.passed},
    }
    _write_json(out / "pulse.json", payload)
    print(f"p0 = {p0:.6f}, trapped-subspace population = {sum(overlaps):.6f}")
    print(f"wrote {out / 'pulse.json'}")


def cmd_trajectories(cfg: RunConfig, out: Path) -> None:
    from .dynamics import run_ensemble

    space = build_space(cfg.params)
    result = run_ensemble(space, cfg.schedule, cfg.samples, cfg.seed)
    p0, eta = result.p0_estimate, cfg.eta
    if eta == 1 and p0 == 0:
        raise ArithmeticError("no sample survived, so the no-detection state at eta = 1 is empty")
    # no photon is detected: no emission (weight p0) or an undetected one ((1 - eta)(1 - p0))
    denom = 1.0 - eta * (1.0 - p0)
    payload = {
        "mode": "trajectories",
        "p0_estimate": p0,
        "stderr": result.stderr,
        "n_samples": result.n_samples,
        "seed": result.seed,
        "eta": eta,
        "multiplier": p0 / denom,
        "n_jumped": result.n_samples - round(p0 * result.n_samples),
        "fidelity_conditional": None,
        "fidelity": None,
    }
    if cfg.params.n_atoms == 2:
        basis = dfs_basis(space)
        target = basis.vectors[1]  # antisymmetric trapped state
        psi0 = result.no_jump_state
        rho_perp = result.rho_perp
        if rho_perp is None:
            rho_perp = np.outer(psi0, psi0.conj())
        mixture = (p0 * np.outer(psi0, psi0.conj())
                   + (1.0 - eta) * (1.0 - p0) * rho_perp) / denom
        payload["fidelity_conditional"] = float(abs(np.vdot(target, psi0)) ** 2)
        payload["fidelity"] = float(np.vdot(target, mixture @ target).real)
    _write_json(out / "ensemble.json", payload)
    if cfg.jump_log:
        _write_csv(out / "jumps.csv", ["trajectory_id", "jump_time", "channel"],
                   result.jump_records)
        print(f"wrote {out / 'jumps.csv'} ({len(result.jump_records)} jumps)")
    print(f"p0_estimate = {p0:.6f} +- {result.stderr:.6f} "
          f"({result.n_samples} samples)")
    print(f"wrote {out / 'ensemble.json'}")


def cmd_evolve(cfg: RunConfig, out: Path) -> None:
    from .dynamics import propagate_schedule

    space = build_space(cfg.params)
    check_budget(f"{cfg.evolve_points} state rows and the trapped basis",
                 16 * (cfg.evolve_points + dfs_dimension(space.n_atoms)) * space.dim)
    basis = dfs_basis(space)
    times = np.linspace(0.0, cfg.schedule.total_duration, cfg.evolve_points)
    states = propagate_schedule(space, cfg.schedule, times)
    rows = []
    for t, psi in zip(times, states):
        p0 = _squared_norm(psi)
        amps = basis.vectors @ psi.conj()  # conj(vectors) @ psi conjugated: the same norm
        dfs_pop = float(np.vdot(amps, amps).real / p0) if p0 > 0 else 0.0
        rows.append((float(t), p0, dfs_pop))
    _write_csv(out / "evolve.csv", ["time_g", "p0", "dfs_population"], rows)
    final = states[-1] / np.sqrt(rows[-1][1])  # as pulse normalizes: the same bytes
    _write_json(out / "evolve.json", {
        "mode": "evolve",
        "total_duration_g": cfg.schedule.total_duration,
        "p0_final": rows[-1][1],
        "final_state_re_im": _state_as_pairs(final),
    })
    print(f"wrote {out / 'evolve.csv'} ({len(rows)} samples) and {out / 'evolve.json'}")


COMMANDS = {
    "basis": cmd_basis,
    "evolve": cmd_evolve,
    "pulse": cmd_pulse,
    "sweep": cmd_sweep,
    "trajectories": cmd_trajectories,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the exit code (0, 2 config error, 3 guard abort).

    The mode's imports come first: every mode but ``basis`` imports
    ``dynamics``, and with it scipy, right after argv is parsed, so
    ``basis`` runs on numpy alone.  Then main freezes the collector: every
    object alive at that point, about 40 000 tracked ones from the
    numpy/scipy/package imports, moves to the permanent generation, which
    the collections during the run and at interpreter exit skip.  So a CLI
    process leaves its import-time cycles to the OS instead of freeing them
    one by one (from main's return to exit, about 110 ms -> 25 ms).  An
    import after the freeze would leave scipy's objects to the collector.
    Reference counting still frees a frozen object; an in-process caller
    keeps the collector, but cycles alive when it called main are no longer
    collected.

    A guard abort removes the topmost directory this run made for --out, so
    it leaves no output; a directory that existed before keeps its files.
    The warnings raised while the config is read and the command runs are
    held back: a config error or guard abort drops them, so its one stderr
    line is the error (numpy's overflow warnings precede most
    non-finite-state aborts), and any other end shows them, a run that
    succeeds when it ends and one that raises before its traceback.
    """
    parser = argparse.ArgumentParser(
        prog="dfs-cavity-sim",
        description="Trapped-state (decoherence-free) subspace simulator for "
                    "N two-level atoms in a leaky cavity.")
    parser.add_argument("mode", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--samples", type=int, default=None,
                        help="override the trajectory sample count")
    args = parser.parse_args(argv)
    if args.mode != "basis":
        from . import dynamics  # noqa: F401  (scipy's import-time objects are frozen next)
    gc.freeze()
    out = Path(args.out)
    created = next((p for p in reversed((out, *out.parents)) if not p.exists()), None)
    try:
        with warnings.catch_warnings(record=True) as held:
            cfg = load_config(args.config, args.mode, args.seed, args.samples)
            out.mkdir(parents=True, exist_ok=True)
            COMMANDS[args.mode](cfg, out)
    except ConfigError as exc:
        held.clear()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GUARD_ERRORS as exc:
        held.clear()
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    finally:
        for w in held:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
