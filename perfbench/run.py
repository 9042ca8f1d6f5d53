"""Benchmark harness: runs the dfs-cavity-sim CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one table

Run from the root of a source checkout; the package is imported from
./src.  Every CLI invocation is a fresh interpreter (as for a user), so
the package's caches start cold each time.  Whole workload iterations
repeat until the next one would overrun --seconds (at least
MIN_ITERATIONS); every output is checked after its iteration, outside
the timed region.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
MIN_ITERATIONS = 3
RUN_LIMIT_S = 150.0          # stop iterating, even below MIN_ITERATIONS, to end within this
INVOCATION_LIMIT_S = 120.0   # an invocation running longer is killed and counts as failed

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "hilbert.operator_s": "s", "hilbert.operator_calls": "count",
    "hilbert.operator_cache_misses": "count",
    "hamiltonians.h_cond_s": "s", "hamiltonians.h_cond_calls": "count",
    "dfs.basis_s": "s", "dfs.basis_cache_misses": "count", "dfs.export_s": "s",
    "dynamics.propagate_s": "s", "dynamics.propagate_calls": "count",
    "kernel.expm_s": "s", "kernel.expm_calls": "count",
    "kernel.s": "s", "kernel.calls": "count",
    "dynamics.trajectory_s": "s", "dynamics.trajectories": "count",
    "dynamics.jumps": "count", "kernel.expm_per_jump": "ratio",
    "dynamics.ensemble_self_s": "s",
    "analytic.s": "s", "analytic.calls": "count",
    "cli.self_s": "s",
    "process.cpu_s": "s", "process.cpu_per_wall": "ratio",
    "trace.overhead_s": "s", "check.outputs_identical": "count",
}


@dataclass
class Iteration:
    """One pass over a workload's invocations."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)  # by invocation label
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    identical: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    """The user's environment, with ./src importable and the CLI's pool off."""
    env = dict(os.environ)
    env.pop("DFS_SIM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_iteration(wl: workloads.Workload, cfg_dir: Path, it_dir: Path,
                  env: dict[str, str], traced: bool) -> Iteration:
    """Run every invocation once, in order; time, then check the outputs."""
    it = Iteration()
    first_spawn = last_exit = None
    for inv in wl.invocations:
        out = it_dir / inv.label
        trace_dir = it_dir / f"{inv.label}.trace"
        stamp = it_dir / f"{inv.label}.stamp.json"
        if traced:
            trace_dir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "launch.py"), str(stamp),
                str(trace_dir) if traced else "-", inv.mode,
                "--config", str(cfg_dir / f"{inv.label}.ini"), "--out", str(out)]
        with open(it_dir / f"{inv.label}.log", "w") as log:
            spawn = time.monotonic()
            proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT)
            watchdog = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            done = time.monotonic()
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        first_spawn = spawn if first_spawn is None else first_spawn
        last_exit = done
        it.attempted += 1
        it.peak_rss_mb = max(it.peak_rss_mb, usage.ru_maxrss / 1024.0)
        it.cpu_s += usage.ru_utime + usage.ru_stime
        parsed = json.loads(stamp.read_text())["config_parsed"] if stamp.is_file() else None
        if proc.returncode != 0 or parsed is None:
            tail = (it_dir / f"{inv.label}.log").read_text()[-400:]
            it.failures[inv.label] = [f"exit code {proc.returncode}: {tail}"]
            continue
        it.setup_s += parsed - spawn
        if traced:
            dump = json.loads((trace_dir / tracer.SPANS_FILE).read_text())
            for key, value in tracer.layer_metrics(dump).items():
                it.layers[key] = it.layers.get(key, 0) + value
    it.wall_s = last_exit - first_spawn
    return it


def check_iteration(wl: workloads.Workload, it: Iteration, it_dir: Path,
                    reference: dict | None) -> None:
    """Physics checks, reference comparison and digests of every output."""
    for inv in wl.invocations:
        if inv.label in it.failures:
            continue
        out = it_dir / inv.label
        try:
            fails = check_invocation(wl, inv, out)
            values = checks.summarize(inv.mode, out)
        except Exception as exc:  # a broken output is a failed invocation, not a crash
            fails, values = [f"unreadable output: {exc!r}"], None
        it.digests[inv.label] = checks.file_digests(out) if out.is_dir() else {}
        ref = (reference or {}).get(inv.label)
        if ref is not None and values is not None:
            fails += checks.compare(inv.mode, values, ref["values"])
            it.identical += sum(1 for name, digest in it.digests[inv.label].items()
                                if ref["sha256"].get(name) == digest)
        if fails:
            it.failures[inv.label] = fails


def check_invocation(wl: workloads.Workload, inv: workloads.Invocation,
                     out: Path) -> list[str]:
    if inv.mode == "trajectories":
        return checks.check_trajectories(out, wl.work_units, checks.p0_closed_form(
            workloads.RABI, 1.0, 3))
    if inv.mode == "sweep":
        return checks.check_sweep(out, wl.work_units)
    if inv.mode == "basis":
        return checks.check_basis(out, workloads.BASIS_ATOMS)
    if inv.mode == "pulse":
        return checks.check_pulse(out)
    if inv.mode == "evolve":
        return checks.check_evolve(out, workloads.EVOLVE_POINTS)
    raise KeyError(inv.mode)


def blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, read through its C API."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "DFS_SIM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload for `seconds`; returns the result object."""
    wl = workloads.generate(name, seed)
    variant = seed % workloads.N_VARIANTS
    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(name, {}).get(str(variant))
    base = WORK_DIR / f"{name}-s{seed}-t{int(traced)}"
    shutil.rmtree(base, ignore_errors=True)
    cfg_dir = base / "configs"
    cfg_dir.mkdir(parents=True)
    for inv in wl.invocations:
        (cfg_dir / f"{inv.label}.ini").write_text(inv.config)
    env = child_env()

    plain: list[Iteration] = []
    traced_its: list[Iteration] = []
    start = time.monotonic()
    longest = 0.0
    k = 0
    while True:
        t0 = time.monotonic()
        for is_traced in ((False, True) if traced else (False,)):
            it_dir = base / f"it{k}"
            it_dir.mkdir()
            it = run_iteration(wl, cfg_dir, it_dir, env, is_traced)
            check_iteration(wl, it, it_dir, reference)
            (traced_its if is_traced else plain).append(it)
            shutil.rmtree(it_dir)
            k += 1
        longest = max(longest, time.monotonic() - t0)
        done = len(plain) >= (1 if traced else MIN_ITERATIONS)
        elapsed = time.monotonic() - start
        if (done and elapsed + longest > seconds) or elapsed + longest > RUN_LIMIT_S:
            break
    shutil.rmtree(base, ignore_errors=True)

    for t_it, p_it in zip(traced_its, plain):
        for label, digests in t_it.digests.items():
            if digests != p_it.digests.get(label):
                t_it.failures.setdefault(label, []).append(
                    "traced run wrote different outputs than the untraced run")
    its = plain + traced_its
    metrics = layer_report(plain, traced_its) if traced else e2e_report(wl, plain)
    return {"attempted": sum(it.attempted for it in its),
            "failed": sum(len(it.failures) for it in its),
            "metrics": metrics,
            "failures": [f"{label}: {msg}" for it in its
                         for label, msgs in it.failures.items() for msg in msgs]}


def e2e_report(wl: workloads.Workload, its: list[Iteration]) -> dict:
    per_it = {
        "wall_s": [it.wall_s for it in its],
        "setup_s": [it.setup_s for it in its],
        "work_per_s": [wl.work_units / (it.wall_s - it.setup_s) for it in its],
    }
    metrics = {}
    for key, values in per_it.items():
        med, q1, q3 = summary(values)
        metrics[key] = {"value": med, "unit": END_TO_END[key], "q1": q1, "q3": q3,
                        "n": len(values)}
    metrics["peak_rss_mb"] = {"value": max(it.peak_rss_mb for it in its), "unit": "MB",
                              "n": len(its)}
    return metrics


def layer_report(plain: list[Iteration], traced: list[Iteration]) -> dict:
    keys = set(PER_LAYER) | {k for it in traced for k in it.layers}
    values: dict[str, float] = {}
    for key in sorted(keys):
        values[key] = statistics.median(it.layers.get(key, 0) for it in traced)
    jumps = values.get("dynamics.jumps", 0)
    in_trajectories = values.pop("kernel.expm_in_trajectories", 0)
    values["kernel.expm_per_jump"] = in_trajectories / jumps if jumps else 0.0
    values["process.cpu_s"] = statistics.median(it.cpu_s for it in plain)
    values["process.cpu_per_wall"] = statistics.median(it.cpu_s / it.wall_s for it in plain)
    values["trace.overhead_s"] = (statistics.median(it.wall_s for it in traced)
                                  - statistics.median(it.wall_s for it in plain))
    values["check.outputs_identical"] = min(it.identical for it in traced)
    units = {k: PER_LAYER.get(k, "count" if k.endswith("_calls") else "s") for k in values}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dfs_cavity" / "cli.py").is_file():
        print(f"no dfs_cavity sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dfs_cavity
    if Path(dfs_cavity.__file__).resolve().parent != SRC / "dfs_cavity":
        print(f"imported dfs_cavity from {dfs_cavity.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    print("machine " + json.dumps(machine(), sort_keys=True))
    for name, res in results.items():
        for failure in res["failures"]:
            print(f"FAIL {name}: {failure}")
        for key, m in res["metrics"].items():
            spread = f" [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]" if "q1" in m else ""
            count = f" (n={m['n']})" if "n" in m else ""
            print(f"{name:12s} {key:32s} {m['value']:.6g} {m['unit']}{spread}{count}")
        print(f"{name:12s} {'fail_frac':32s} {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']} of {res['attempted']} invocations)")
    if len(results) == 1:
        res = results[names[0]]
        metric_units = PER_LAYER if args.trace else END_TO_END
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in res["metrics"].items() if k in metric_units}
    else:
        metrics = {f"{name}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for name, res in results.items() for k, m in res["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
