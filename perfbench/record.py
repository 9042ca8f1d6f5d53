"""Record the benchmark's reference outputs and baseline numbers.

    python3 perfbench/record.py reference
        Runs one iteration of every workload for each seed variant and
        writes the output digests and checked values to
        perfbench/reference.json.
    python3 perfbench/record.py baseline
        Two sets, one after the other, of ten runs of perfbench/run.py per
        workload (seeds 1-10, one process per run) plus one traced run per
        workload (seed 1).  Writes every value of both sets, their medians,
        quartiles and spreads, and the machine metadata to
        perfbench/baseline.json.  Exits 1 unless, for every workload and
        end-to-end metric, both spreads are within the metric's bound and
        the second median is not worse than the first by more than the
        bound, and unless the traced counts repeat exactly.

Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
SEEDS = tuple(range(1, 11))
SETS = 2


def record_reference() -> int:
    reference = {}
    sys.path.insert(0, str(run.SRC))
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for variant in range(workloads.N_VARIANTS):
            wl = workloads.generate(name, variant)
            base = run.WORK_DIR / f"reference-{name}-{variant}"
            shutil.rmtree(base, ignore_errors=True)
            cfg_dir = base / "configs"
            cfg_dir.mkdir(parents=True)
            for inv in wl.invocations:
                (cfg_dir / f"{inv.label}.ini").write_text(inv.config)
            it_dir = base / "it"
            it_dir.mkdir()
            it = run.run_iteration(wl, cfg_dir, it_dir, run.child_env(), traced=False)
            run.check_iteration(wl, it, it_dir, None)
            if it.failures:
                print(f"{name} variant {variant} fails its checks: {it.failures}",
                      file=sys.stderr)
                return 1
            reference[name][str(variant)] = {
                inv.label: {"sha256": it.digests[inv.label],
                            "values": run.checks.summarize(inv.mode, it_dir / inv.label)}
                for inv in wl.invocations}
            shutil.rmtree(base)
            print(f"{name} variant {variant}: wall {it.wall_s:.2f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def bench(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{name} seed {seed} failed its checks:\n{proc.stdout}")
    return result


def record_set(seconds: int) -> dict:
    """Ten untraced runs and one traced run of every workload."""
    out = {}
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            for key, m in bench(name, seed, seconds, 0)["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        entry: dict[str, dict] = {"end_to_end": {}}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            entry["end_to_end"][key] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": (q3 - q1) / med, "values": vals}
        traced = bench(name, SEEDS[0], seconds, 1)
        entry["per_layer_seed_1"] = {k: m["value"] for k, m in traced["metrics"].items()}
        out[name] = entry
        print(f"{name} done", flush=True)
    return out


def compare_sets(sets: list[dict], spec: dict) -> tuple[dict, bool]:
    """Spreads and the change of median between the sets, against the bounds."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    table, ok = {}, True
    for name in workloads.WORKLOADS:
        table[name] = {}
        for key, m in metrics.items():
            first, last = (s[name]["end_to_end"][key] for s in sets)
            change = (last["median"] - first["median"]) / first["median"]
            worse = change if m["better"] == "lower" else -change
            spreads = [s[name]["end_to_end"][key]["spread"] for s in sets]
            within = max(spreads) <= m["bound"] and worse <= m["bound"]
            ok &= within
            table[name][key] = {"spreads": spreads, "median_change": change,
                                "bound": m["bound"], "within_bound": within}
            print(f"{name:12s} {key:12s} medians {first['median']:.6g} -> "
                  f"{last['median']:.6g} ({change:+.1%})  spreads "
                  f"{spreads[0]:.3f} / {spreads[1]:.3f}  bound {m['bound']}"
                  f"{'' if within else '  <-- outside the bound'}")
        layers = [s[name]["per_layer_seed_1"] for s in sets]
        differ = sorted(k for k in counts if layers[0].get(k) != layers[1].get(k))
        table[name]["counts_differ"] = differ
        ok &= not differ
        print(f"{name:12s} traced counts {'repeat exactly' if not differ else differ}")
    return table, ok


def record_baseline() -> int:
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    out = {"machine": run.machine(), "run_seconds": seconds, "seeds": list(SEEDS),
           "sets": []}
    for _ in range(SETS):
        out["sets"].append(record_set(seconds))
        BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    out["comparison"], ok = compare_sets(out["sets"], spec)
    BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("reference", "baseline"))
    args = parser.parse_args()
    return record_reference() if args.what == "reference" else record_baseline()


if __name__ == "__main__":
    sys.exit(main())
