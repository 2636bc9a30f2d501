"""The measured process of the valuetax benchmark.

It imports the package from source, runs one workload's CLI command in
process through ``valuetax.cli.main`` (a warm-up, then a timed loop), and
reports per-run wall times, the reference task's time before each, exit
codes and its own peak resident memory.
With tracing on it then wraps the package's public functions and runs the
command again at full and at quarter size to attribute time to layers.

    python3 bench/worker.py PLAN.json RESULT.json

PLAN.json holds ``src``, ``seconds``, ``trace``, ``min_samples``,
``traced_runs`` and ``sizes``: for each size label (``full``, and
``quarter`` when tracing) the CLI argv with ``{out}`` standing for the
output path and the directory outputs go to.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import statistics
import sys
import time
import traceback
from collections import Counter

# Public functions wrapped by the tracer, by defining module. Each is
# replaced wherever a module of the package binds it, since callers look
# names up in their own module (``cli.parse_taxonomy``,
# ``propagation.topological_order``, ``context.select_nodes``).
TRACED = {
    "io_formats": ("parse_taxonomy", "parse_context", "parse_event_log", "serialize_taxonomy"),
    "taxonomy": ("validate", "topological_order", "ancestors", "all_paths_counts"),
    "propagation": ("propagate",),
    "context": ("select_nodes", "build_context_taxonomy"),
    "mutual_aid": ("ingest", "task_imbalance"),
    "alignment": ("align",),
}
# Satisfaction-degree evaluations are only counted: there is one per member
# and property, and a span each would dominate the tracer's own cost.
SD_FUNCTIONS = ("sd_offer_ratio", "sd_volunteer_ratio", "sd_task_balance")
ROOT_SPAN = "cli.main"


def _observe(counts: Counter, name: str, args: tuple, result) -> None:
    """Work counts read at a layer boundary from its arguments and result."""
    if name == "context.select_nodes":
        counts["context.candidates"] += len(args[0])
        counts["context.selected"] += len(result)
    elif name == "io_formats.parse_taxonomy":
        counts["io_formats.nodes_parsed"] += len(result.nodes)
        counts["io_formats.edges_parsed"] += len(result.edges)
    elif name == "io_formats.serialize_taxonomy":
        counts["io_formats.bytes_written"] += len(result.encode("utf-8"))
    elif name == "io_formats.parse_event_log":
        counts["io_formats.events_parsed"] += len(result)
    elif name == "mutual_aid.ingest":
        counts["mutual_aid.members"] += len(result.members)
    elif name == "propagation.propagate":
        counts["propagation.passes"] += result.iterations
        counts["propagation.assigned"] += len(result.assigned)
        counts["propagation.visits"] += result.iterations * len(args[0].nodes)


class Tracer:
    """Spans (name, start, end, parent index) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        _observe(self.counts, name, args, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per name: summed duration minus the durations of direct child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        calls: Counter = Counter()
        for (name, *_), value in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + value
            calls[name] += 1
        return totals, calls


def install(tracer: Tracer) -> list[tuple]:
    """Replace every binding of the traced functions in the package's
    modules; returns what :func:`uninstall` needs to undo it."""
    wrappers = {}
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"valuetax.{module_name}")
        for fn_name in names:
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = (fn, tracer.wrap(f"{module_name}.{fn_name}", fn))
    mutual_aid = importlib.import_module("valuetax.mutual_aid")
    for fn_name in SD_FUNCTIONS:
        fn = getattr(mutual_aid, fn_name)
        wrappers[id(fn)] = (fn, tracer.counter("mutual_aid.sd_lookups", fn))
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "valuetax" and not module_name.startswith("valuetax."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                undo.append((module, attr, value))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MiB. The benchmark
    runs on Linux; without /proc it fails rather than measure otherwise."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Runner:
    def __init__(self, main, sizes: dict):
        self.main = main
        self.sizes = sizes
        self.runs: list[dict] = []   # every CLI run: size label, output path, exit code

    def once(self, size: str, tracer: Tracer | None = None) -> float:
        """One CLI command on ``size``'s inputs; returns its wall seconds."""
        spec = self.sizes[size]
        output = os.path.join(spec["out_dir"], f"run-{len(self.runs)}.json")
        argv = [output if a == "{out}" else a for a in spec["argv"]]
        gc.collect()
        start = time.perf_counter()
        try:
            code = tracer.call(ROOT_SPAN, self.main, argv) if tracer else self.main(argv)
        except Exception:  # a crash is a failed run, reported and counted
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        self.runs.append({"size": size, "output": output, "code": code})
        return elapsed

    def timed_loop(self, seconds: float, min_samples: int) -> dict:
        """A warm-up, then CLI runs each preceded by the reference task,
        until ``seconds`` of wall time and ``min_samples`` runs have passed."""
        self.once("full")  # warm-up: first-call costs are not what users repeat
        # Import plus one command is what a CLI user's process holds; read
        # before the reference task adds allocations of its own.
        peak = peak_rss_mb()
        samples: list[float] = []
        references: list[float] = []
        start = time.perf_counter()
        while len(samples) < min_samples or time.perf_counter() - start < seconds:
            references.append(time_reference())
            samples.append(self.once("full"))
        return {"samples": samples, "references": references, "peak_rss_mb": peak}


REFERENCE_ITEMS = 300_000


def reference_task() -> int:
    """Fixed allocation-heavy work, timed before every CLI run.

    A shared host's speed can drift by up to 2x for seconds to minutes at
    a time, and the drift hits allocation-heavy Python code like the CLI's
    the most. Over a run, the median time of this task moves with the
    median CLI time, so their ratio stays put while each alone does not.
    A smaller, cache-resident task did not track the drift.
    """
    table = {}
    for i in range(REFERENCE_ITEMS):
        table[f"k{i}"] = [i]
    return sum(len(v) for v in table.values())


def time_reference() -> float:
    """The reference task's wall seconds with the collector off, so that
    GC settings or retained objects of the package do not change it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def traced_layers(runner: Runner, repeats: int) -> dict:
    """Median self time per span name, calls and counts, per size label."""
    tracer = Tracer()
    undo = install(tracer)
    out = {}
    try:
        for size in runner.sizes:
            runner.once(size)  # warm-up at this size, traced but discarded
            selfs, walls = [], []
            for _ in range(repeats):
                tracer.reset()
                walls.append(runner.once(size, tracer))
                selfs.append(tracer.self_times())
            names = set().union(*(s for s, _ in selfs))
            out[size] = {
                "wall_s": statistics.median(walls),
                "self_s": {n: statistics.median(s.get(n, 0.0) for s, _ in selfs) for n in names},
                "calls": dict(selfs[-1][1]),
                "counts": dict(tracer.counts),
                "spans": tracer.spans,
            }
    finally:
        uninstall(undo)
    return out


def main() -> None:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    from valuetax import cli

    runner = Runner(cli.main, plan["sizes"])
    result = runner.timed_loop(plan["seconds"], plan["min_samples"])
    if plan["trace"]:
        result["traced"] = traced_layers(runner, plan["traced_runs"])
    result["runs"] = runner.runs
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
