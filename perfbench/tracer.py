"""Span tracing of the dfs_cavity layers from outside the package.

`Tracer.install()` swaps every public function of the package modules,
and every scipy function those modules import by name, for a timing
wrapper at each place the function is reachable: the defining module,
every module that imported it, and the CLI's COMMANDS table.  Calls made
through a module global therefore pass through the wrapper whether they
come from the CLI or from inside the package.  Wrappers sit outside
`lru_cache`, so a cached call is timed as the caller sees it and the
wrapper forwards `cache_info`/`cache_clear`.

Spans stay in memory and the launcher writes them out when the CLI
returns.  The benchmark never starts the CLI's process pool, so all
spans come from one process.  `layer_metrics` turns the span file of
one CLI invocation into the per-layer numbers.

A wrapper's own work (making the span, the stack, the extra call)
happens outside the span it records, so it lands in the parent's
time.  `dump` therefore measures that cost once per process
(`span_cost`), and the reduction subtracts it per child span from
self times and per descendant span from inclusive times.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

PACKAGE = "dfs_cavity"
SPANS_FILE = "spans.json"
LAYERS = ("hilbert", "hamiltonians", "dfs", "analytic", "dynamics", "cli")
KERNEL_PREFIXES = ("scipy.linalg", "scipy.sparse")
HILBERT_OPERATORS = frozenset({"hilbert.atomic_lowering", "hilbert.cavity_annihilation",
                               "hilbert.collective_lowering"})


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.cache_infos: dict[str, object] = {}

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn):
        """Timing wrapper around fn that records one span per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                tracer._stack.pop()
            if name == "dynamics.sample_trajectory":
                span["jumps"] = len(result.jumps)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the package's layer functions and scipy kernels in place.

        Must run before the CLI starts.
        """
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module(PACKAGE)]
        originals: dict[int, tuple[str, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if owner == mod.__name__:
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
                elif owner.startswith(KERNEL_PREFIXES):
                    originals.setdefault(id(obj), (f"kernel.{attr}", obj))
        wrappers = {key: self.wrap(name, obj) for key, (name, obj) in originals.items()}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and originals[id(obj)][1] is obj:
                    setattr(ns, attr, wrappers[id(obj)])
        commands = modules["cli"].COMMANDS
        for mode, fn in list(commands.items()):
            if id(fn) in wrappers:
                commands[mode] = wrappers[id(fn)]
        for key, (name, obj) in originals.items():
            if hasattr(obj, "cache_info"):
                self.cache_infos[name] = obj

    # -- output ----------------------------------------------------------
    def dump(self) -> None:
        payload = {
            "spans": self.spans,
            "cache": {name: fn.cache_info()._asdict() for name, fn in self.cache_infos.items()},
            "span_cost_s": span_cost(),
        }
        (self.out_dir / SPANS_FILE).write_text(json.dumps(payload))


def span_cost() -> float:
    """Seconds a wrapper adds to one call: wrapped minus bare no-op calls.

    The least of five timings, so a preempted one does not count.
    """
    def noop():
        return None

    calls = 10000
    probe = Tracer(".")
    wrapped = probe.wrap("probe", noop)
    best = float("inf")
    for _ in range(5):
        probe.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


# -- reduction -------------------------------------------------------------

def self_times(spans: list[dict], cost: float = 0.0) -> dict[int, float]:
    """Span id -> duration minus its direct children and their wrapper cost.

    Spans of one process nest strictly (single thread), so the children
    of a span never overlap and their durations can be summed.  `cost`
    is the wrapper cost per child span (`span_cost`).
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + (s["t1"] - s["t0"]) + cost)
    return {s["id"]: (s["t1"] - s["t0"]) - child_time.get(s["id"], 0.0) for s in spans}


def descendants(spans: list[dict]) -> dict[int, int]:
    """Span id -> number of spans nested in it, at any depth."""
    count = {s["id"]: 0 for s in spans}
    for s in sorted(spans, key=lambda s: s["id"], reverse=True):  # children before parents
        if s["parent"] is not None:
            count[s["parent"]] += 1 + count[s["id"]]
    return count


def _ancestors(span: dict, by_id: dict[int, dict]):
    parent = span["parent"]
    while parent is not None:
        node = by_id[parent]
        yield node
        parent = node["parent"]


def group_time(spans: list[dict], member, cost: float = 0.0,
               nested: dict[int, int] | None = None) -> tuple[float, int]:
    """(inclusive seconds, calls) of the spans selected by member(name).

    A span nested inside another member span adds a call but no time,
    so recursion and helper calls within the group are not counted twice.
    Each span's time excludes `cost` per span nested in it (`descendants`).
    """
    by_id = {s["id"]: s for s in spans}
    nested = descendants(spans) if nested is None else nested
    total, calls = 0.0, 0
    for s in spans:
        if not member(s["name"]):
            continue
        calls += 1
        if not any(member(a["name"]) for a in _ancestors(s, by_id)):
            total += (s["t1"] - s["t0"]) - cost * nested[s["id"]]
    return total, calls


# (seconds key, calls key) -> which span names belong to the group
GROUPS = {
    ("hilbert.operator_s", "hilbert.operator_calls"): lambda n: n in HILBERT_OPERATORS,
    ("hamiltonians.h_cond_s", "hamiltonians.h_cond_calls"):
        lambda n: n == "hamiltonians.conditional_hamiltonian",
    ("dfs.basis_s", "dfs.basis_calls"): lambda n: n == "dfs.dfs_basis",
    ("dfs.export_s", "dfs.export_calls"): lambda n: n == "dfs.export_basis",
    ("dynamics.propagate_s", "dynamics.propagate_calls"):
        lambda n: n == "dynamics.propagate_conditional",
    ("dynamics.trajectory_s", "dynamics.trajectories"):
        lambda n: n == "dynamics.sample_trajectory",
    ("analytic.s", "analytic.calls"): lambda n: n.startswith("analytic."),
    ("kernel.s", "kernel.calls"): lambda n: n.startswith("kernel."),
}


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one CLI invocation from its span dump.

    Every kernel seen gets its own `kernel.<name>_s`/`_calls` pair;
    `kernel.expm_*` is always present so absent work reads as zero.
    """
    spans = dump["spans"]
    cost = dump.get("span_cost_s", 0.0)
    by_id = {s["id"]: s for s in spans}
    nested = descendants(spans)
    selfs = self_times(spans, cost)
    groups = dict(GROUPS)
    groups[("kernel.expm_s", "kernel.expm_calls")] = lambda n: n == "kernel.expm"
    for k in {s["name"] for s in spans if s["name"].startswith("kernel.")}:
        groups[(f"{k}_s", f"{k}_calls")] = lambda n, k=k: n == k
    out: dict[str, float] = {}
    for (secs_key, calls_key), member in groups.items():
        out[secs_key], out[calls_key] = group_time(spans, member, cost, nested)
    out["dynamics.jumps"] = sum(s.get("jumps", 0) for s in spans)
    out["kernel.expm_in_trajectories"] = sum(
        1 for s in spans if s["name"] == "kernel.expm"
        and any(a["name"] == "dynamics.sample_trajectory" for a in _ancestors(s, by_id)))
    out["dynamics.ensemble_self_s"] = sum(selfs[s["id"]] for s in spans
                                          if s["name"] == "dynamics.run_ensemble")
    out["cli.self_s"] = sum(selfs[s["id"]] for s in spans if s["name"].startswith("cli.cmd_"))
    cache = dump.get("cache", {})
    out["hilbert.operator_cache_misses"] = sum(info["misses"] for name, info in cache.items()
                                               if name in HILBERT_OPERATORS)
    out["dfs.basis_cache_misses"] = cache.get("dfs.dfs_basis", {}).get("misses", 0)
    return out
