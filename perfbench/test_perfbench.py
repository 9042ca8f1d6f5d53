"""Self-tests of the benchmark harness: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(id_, name, parent, t0, t1, **extra):
    return {"id": id_, "name": name, "parent": parent, "t0": t0, "t1": t1, **extra}


SPANS = [
    span(0, "cli.cmd_trajectories", None, 0.0, 10.0),
    span(1, "dynamics.run_ensemble", 0, 1.0, 8.0),
    span(2, "dynamics.sample_trajectory", 1, 2.0, 4.0, jumps=2),
    span(3, "kernel.expm", 2, 2.5, 3.0),
    span(4, "dynamics.sample_trajectory", 1, 5.0, 6.0, jumps=0),
    span(5, "hilbert.collective_lowering", 0, 8.5, 9.5),
    span(6, "hilbert.atomic_lowering", 5, 8.6, 8.9),
    span(7, "kernel.expm", 0, 9.6, 9.8),
]


def test_self_times_subtract_direct_children():
    selfs = tracer.self_times(SPANS)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 1.0 - 0.2)
    assert selfs[1] == pytest.approx(7.0 - 2.0 - 1.0)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[5] == pytest.approx(0.7)


def test_wrapper_cost_is_taken_off_parents():
    cost = 0.1
    selfs = tracer.self_times(SPANS, cost)
    assert selfs[0] == pytest.approx(10.0 - 8.2 - 3 * cost)   # children 1, 5, 7
    assert selfs[1] == pytest.approx(7.0 - 3.0 - 2 * cost)
    assert selfs[3] == pytest.approx(0.5)
    assert tracer.descendants(SPANS) == {0: 7, 1: 3, 2: 1, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0}
    m = tracer.layer_metrics({"spans": SPANS, "cache": {}, "span_cost_s": cost})
    assert m["hilbert.operator_s"] == pytest.approx(1.0 - cost)
    assert m["dynamics.trajectory_s"] == pytest.approx(3.0 - cost)
    assert m["cli.self_s"] == pytest.approx(1.8 - 3 * cost)
    assert 0 < tracer.span_cost() < 1e-4


def test_layer_metrics_on_a_synthetic_tree():
    m = tracer.layer_metrics({"spans": SPANS, "cache": {
        "hilbert.atomic_lowering": {"hits": 0, "misses": 3},
        "dfs.dfs_basis": {"hits": 1, "misses": 1}}})
    # nested hilbert operator spans count as calls but not twice in time
    assert m["hilbert.operator_s"] == pytest.approx(1.0)
    assert m["hilbert.operator_calls"] == 2
    assert m["dynamics.ensemble_self_s"] == pytest.approx(4.0)
    assert m["cli.self_s"] == pytest.approx(1.8)
    assert m["dynamics.trajectory_s"] == pytest.approx(3.0)
    assert (m["dynamics.trajectories"], m["dynamics.jumps"]) == (2, 2)
    assert (m["kernel.expm_calls"], m["kernel.expm_in_trajectories"]) == (2, 1)
    assert m["kernel.expm_s"] == pytest.approx(0.7)
    assert (m["hilbert.operator_cache_misses"], m["dfs.basis_cache_misses"]) == (3, 1)


def test_generator_is_deterministic_with_fixed_work():
    def size(wl):
        keys = ("n_atoms", "n_max", "samples", "omega1_points", "evolve_points", "duration",
                "settle")
        return [(inv.label, inv.mode, [line for line in inv.config.splitlines()
                                       if line.split(" =")[0] in keys])
                for inv in wl.invocations], wl.work_units

    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        sizes = {json.dumps(size(workloads.generate(name, seed))) for seed in range(40)}
        assert len(sizes) == 1
        configs = {workloads.generate(name, seed).invocations[-1].config for seed in range(16)}
        assert len(configs) == 16


def write_ensemble(out: Path, p0: float, samples: int = 5000) -> None:
    n_jumped = samples - round(p0 * samples)
    (out / "ensemble.json").write_text(json.dumps(
        {"p0_estimate": p0, "n_jumped": n_jumped, "n_samples": samples}))
    lines = ["trajectory_id,jump_time,channel"] + [f"{i},1.0,cavity" for i in range(n_jumped)]
    (out / "jumps.csv").write_text("\n".join(lines) + "\n")


def test_checker_rejects_p0_perturbed_by_five_percent(tmp_path):
    p0 = checks.p0_closed_form(workloads.RABI, 1.0, 3)
    write_ensemble(tmp_path, p0)
    assert checks.check_trajectories(tmp_path, 5000, p0) == []
    write_ensemble(tmp_path, p0 * 0.95)
    assert checks.check_trajectories(tmp_path, 5000, p0)

    ref = {"p0": 0.9, "dfs_population": 0.99}
    assert checks.compare("pulse", dict(ref), ref) == []
    assert checks.compare("pulse", {**ref, "p0": 0.9 * 1.05}, ref)
    traj = {"p0_estimate": p0, "n_jumped": 0, "n_samples": 5000}
    assert checks.compare("trajectories", {**traj, "p0_estimate": p0 * 1.05}, traj)


def test_sweep_check_rejects_p0_perturbed_by_five_percent(tmp_path):
    header = ("omega1_over_g,gamma_over_g,T_g,p0_numeric,p0_analytic,"
              "fidelity_conditional,fidelity_no_detection")
    good = [f"{w},0,10,{0.9 * (1 - w)},{0.9 * (1 - w)},0.999,0.99" for w in (0.01, 0.05, 0.2)]
    (tmp_path / "sweep.csv").write_text("\n".join([header] + good) + "\n")
    assert checks.check_sweep(tmp_path, 3) == []
    bad = good[:1] + ["0.05,0,10,0.8977,0.855,0.999,0.99"] + good[2:]
    (tmp_path / "sweep.csv").write_text("\n".join([header] + bad) + "\n")
    assert checks.check_sweep(tmp_path, 3)


def small_workload() -> workloads.Workload:
    """Every CLI mode at toy size."""
    rabi = f"{workloads.RABI}, {-workloads.RABI}"
    return workloads.Workload("toy", (
        workloads.Invocation("trajectories", "trajectories",
                             f"n_atoms = 2\nrabi = {rabi}\nduration = auto\nsettle = 10\n"
                             "samples = 300\njump_log = true\neta = 0.5\nseed = 3\n"),
        workloads.Invocation("sweep", "sweep", "n_atoms = 2\nomega1_points = 5\n"),
        workloads.Invocation("basis", "basis", "n_atoms = 4\nn_max = 0\n"),
        workloads.Invocation("evolve", "evolve", f"n_atoms = 2\nrabi = {rabi}\n"
                             "duration = 20\nevolve_points = 10\n"),
    ), 300)


def test_traced_run_writes_identical_outputs(tmp_path):
    wl = small_workload()
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for inv in wl.invocations:
        (cfg_dir / f"{inv.label}.ini").write_text(inv.config)
    its = []
    for traced in (False, True):
        it_dir = tmp_path / f"traced{int(traced)}"
        it_dir.mkdir()
        it = run.run_iteration(wl, cfg_dir, it_dir, run.child_env(), traced)
        assert it.failures == {}
        for inv in wl.invocations:
            it.digests[inv.label] = checks.file_digests(it_dir / inv.label)
        its.append(it)
    plain, traced = its
    assert plain.digests == traced.digests
    layers = traced.layers
    assert layers["dynamics.trajectories"] == 300
    assert layers["dynamics.jumps"] > 0
    assert layers["kernel.expm_in_trajectories"] > layers["dynamics.jumps"]
    assert layers["dfs.export_calls"] == 1
    assert layers["hamiltonians.h_cond_calls"] > 0
    assert layers["cli.self_s"] > 0


def test_wrappers_keep_cache_info_and_reach_every_import_site():
    script = """
import dfs_cavity.cli as cli, dfs_cavity.dynamics as dyn, dfs_cavity.hilbert as hil
import dfs_cavity.hamiltonians as ham, dfs_cavity.dfs as dfs
from tracer import Tracer
Tracer(".").install()
assert cli.propagate_conditional is dyn.propagate_conditional
assert hasattr(cli.propagate_conditional, "__wrapped__")
assert ham.atomic_lowering is hil.atomic_lowering
assert hil.atomic_lowering.cache_info().misses == 0
assert dfs.dfs_basis.cache_info().maxsize == 32
import scipy.linalg
assert dyn.expm is not scipy.linalg.expm and dyn.expm.__wrapped__ is scipy.linalg.expm
assert hasattr(dyn.sample_trajectory, "__wrapped__")
assert all(hasattr(fn, "__wrapped__") for fn in cli.COMMANDS.values())
space = hil.build_space(hil.SystemParams(2))
hil.atomic_lowering(space, 1); hil.atomic_lowering(space, 1)
info = hil.atomic_lowering.cache_info()
assert (info.hits, info.misses) == (1, 1), info
"""
    env = run.child_env()
    proc = subprocess.run([sys.executable, "-c", script], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_harness_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_dicke_degeneracy_matches_the_trapped_dimension():
    for n_atoms in range(1, 12):
        total = sum(checks.dicke_degeneracy(n_atoms, n) for n in range(n_atoms // 2 + 1))
        assert total == math.comb(n_atoms, n_atoms // 2)


def test_baseline_comparison_holds_every_metric_to_its_bound():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def one_set(scale: float, counts: int) -> dict:
        vals = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
        entry = {}
        for m in spec["end_to_end"]:
            v = [x * scale for x in vals]
            q1, med, q3 = statistics.quantiles(v, n=4)
            entry[m["name"]] = {"median": med, "spread": (q3 - q1) / med}
        layers = {m["name"]: counts for m in spec["per_layer"]}
        return {name: {"end_to_end": entry, "per_layer_seed_1": layers}
                for name in workloads.WORKLOADS}

    _, ok = record.compare_sets([one_set(1.0, 5), one_set(1.02, 5)], spec)
    assert ok
    table, ok = record.compare_sets([one_set(1.0, 5), one_set(1.5, 5)], spec)
    assert not ok and not table["sweep"]["wall_s"]["within_bound"]
    assert table["sweep"]["work_per_s"]["within_bound"]     # higher is better
    table, ok = record.compare_sets([one_set(1.0, 5), one_set(1.0, 6)], spec)
    assert not ok and "dynamics.jumps" in table["ensemble"]["counts_differ"]
