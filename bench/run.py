"""valuetax benchmark: three generated workloads run through the real CLI.

    python3 bench/run.py --workload context-wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Run it from the root of a checkout; it imports the package from ``src/``
and keeps its files under ``.bench_work/``. Each run generates the
workload's inputs from the seed in a separate process, times fresh
interpreters importing ``valuetax.cli`` (``setup_s``), then starts a
worker process that calls ``valuetax.cli.main`` in a loop for the given
number of seconds. Each set-up time is taken as a ratio to a bare
interpreter started just before it, and CLI times are rescaled by a fixed
reference task timed alongside them; both cancel the host's speed drift.
Every output is checked against the benchmark's own oracle. ``--trace 1``
adds traced runs at full and quarter size and reports per-layer self
times, counts and scaling exponents instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output was correct, 1 when any was not, and 2 when the run
could not be made at all. See WORKLOADS.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

SETUP_PAIRS = 10          # bare/import interpreter pairs timed before and after the worker
MIN_SAMPLES = 5           # timed CLI runs per measurement, however short --seconds is
TRACED_RUNS = 3           # traced runs per size; self times are their medians
# run_s is rescaled to a machine on which the reference task
# (worker.reference_task) takes REFERENCE_S, and setup_s to one on which a
# bare interpreter starts and exits in BARE_INTERPRETER_S; see WORKLOADS.md.
REFERENCE_S = 0.27
BARE_INTERPRETER_S = 0.065
GENERATE_TIMEOUT_S = 60
WORKER_MARGIN_S = 150     # the worker may run this long beyond --seconds

END_TO_END = {"run_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "success_rate": "ratio"}
SELF_TIMES = (
    "context.select_nodes", "io_formats.parse_taxonomy", "taxonomy.topological_order",
    "taxonomy.validate", "taxonomy.ancestors", "taxonomy.all_paths_counts",
    "propagation.propagate", "context.build_context_taxonomy", "io_formats.parse_context",
    "io_formats.serialize_taxonomy", "io_formats.parse_event_log", "mutual_aid.ingest",
    "alignment.align", "mutual_aid.task_imbalance", "cli.main",
)
COUNTS = (
    "context.candidates", "context.selected", "io_formats.nodes_parsed",
    "io_formats.edges_parsed", "propagation.passes", "propagation.assigned",
    "io_formats.bytes_written", "io_formats.events_parsed", "mutual_aid.members",
    "mutual_aid.sd_lookups",
)
CALLS = ("taxonomy.topological_order", "taxonomy.validate")
SCALED = (
    "io_formats.parse_taxonomy", "context.select_nodes", "taxonomy.topological_order",
    "propagation.propagate", "io_formats.parse_event_log", "mutual_aid.ingest",
)


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def _python(args: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT, timeout=timeout,
                              **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {timeout} s: {' '.join(args[:2])}") from exc
    if done.returncode != 0:
        raise BenchError(f"exit code {done.returncode}: {' '.join(args[:2])}")
    return done


def generate(workload: str, seed: int, scale: str, out: str) -> dict:
    """Generate inputs in their own process, so its memory is not the worker's."""
    done = _python([os.path.join(BENCH, "workloads.py"), "--workload", workload,
                    "--seed", str(seed), "--scale", scale, "--out", out],
                   GENERATE_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def interpreter_s(code: str) -> float:
    """Wall seconds for a fresh interpreter to run ``code`` and exit.

    It waits for the child in a blocking wait, with a timer to kill it, since
    ``Popen.wait(timeout)`` polls in steps growing to 50 ms and would round
    the time up to the next step.
    """
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], env=_env(), cwd=ROOT)
    timer = threading.Timer(GENERATE_TIMEOUT_S, child.kill)
    timer.start()
    try:
        returncode = child.wait()
    finally:
        timer.cancel()
        timer.join()
    elapsed = time.perf_counter() - start
    if returncode != 0:
        raise BenchError(f"exit code {returncode}: -c {code!r}")
    return elapsed


def setup_pairs(count: int) -> list[tuple[float, float]]:
    """``count`` pairs of (bare interpreter, interpreter importing valuetax.cli)
    wall seconds, each pair taken back to back."""
    return [(interpreter_s("pass"), interpreter_s("import valuetax.cli"))
            for _ in range(count)]


def rescaled(times: list[float], references: list[float]) -> float:
    """Median of ``times`` at the speed where the reference task takes REFERENCE_S."""
    return statistics.median(times) * REFERENCE_S / statistics.median(references)


def setup_seconds(pairs: list[tuple[float, float]]) -> float:
    """Median import time as a share of the bare interpreter started just
    before it, at the speed where a bare interpreter takes BARE_INTERPRETER_S."""
    return statistics.median(full / bare for bare, full in pairs) * BARE_INTERPRETER_S


def run_worker(work: str, workload: str, data: dict[str, str], seconds: float,
               trace: bool, min_samples: int = MIN_SAMPLES) -> dict:
    sizes = {}
    for size, data_dir in data.items():
        out_dir = os.path.join(work, f"out-{size}")
        os.makedirs(out_dir, exist_ok=True)
        sizes[size] = {"argv": workloads.cli_argv(workload, data_dir, "{out}"),
                       "out_dir": out_dir, "data_dir": data_dir}
    plan = {"src": SRC, "seconds": seconds, "trace": trace, "min_samples": min_samples,
            "traced_runs": TRACED_RUNS, "sizes": sizes}
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    _python([os.path.join(BENCH, "worker.py"), plan_path, result_path],
            seconds + WORKER_MARGIN_S)
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["sizes"] = sizes
    return result


def check_runs(workload: str, result: dict) -> list[str]:
    """One line per failed run; each output file is removed once checked."""
    failures = []
    for index, run in enumerate(result["runs"]):
        data_dir = result["sizes"][run["size"]]["data_dir"]
        if run["code"] != 0:
            problems = [f"exit code {run['code']}"]
        else:
            problems = workloads.check(workload, run["output"], data_dir)
        if os.path.exists(run["output"]):
            os.remove(run["output"])
        if problems:
            failures.append(f"run {index} ({run['size']}): " + "; ".join(problems[:3]))
    return failures


def end_to_end_metrics(result: dict, setup: list[tuple[float, float]], failed: int) -> dict:
    attempted = len(result["runs"])
    return {
        "run_s": rescaled(result["samples"], result["references"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": setup_seconds(setup),
        "success_rate": (attempted - failed) / attempted,
    }


def layer_metrics(result: dict) -> dict:
    traced = result["traced"]
    full, quarter = traced["full"], traced["quarter"]
    metrics = {f"{name}.self_s": full["self_s"].get(name, 0.0) for name in SELF_TIMES}
    metrics.update({name: full["counts"].get(name, 0) for name in COUNTS})
    metrics.update({f"{name}.calls": full["calls"].get(name, 0) for name in CALLS})
    visits = full["counts"].get("propagation.visits", 0)
    metrics["propagation.useful_visit_ratio"] = \
        full["counts"].get("propagation.assigned", 0) / visits if visits else 0.0
    for name in SCALED:
        big, small = full["self_s"].get(name, 0.0), quarter["self_s"].get(name, 0.0)
        # 0 where the workload never calls the function
        metrics[f"{name}.scale_exp"] = math.log(big / small, 4) if big > 0 and small > 0 else 0.0
    metrics["trace.overhead_s"] = full["wall_s"] - statistics.median(result["samples"])
    return metrics


def metric_units() -> dict[str, str]:
    units = dict(END_TO_END)
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({name: "count" for name in COUNTS})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units["io_formats.bytes_written"] = "bytes"
    units["propagation.useful_visit_ratio"] = "ratio"
    units.update({f"{name}.scale_exp": "exponent" for name in SCALED})
    units["trace.overhead_s"] = "s"
    return units


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, list]:
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    scales = ("full", "quarter") if trace else ("full",)
    data = {scale: os.path.join(work, f"data-{scale}") for scale in scales}
    inputs = {scale: generate(workload, seed, scale, path) for scale, path in data.items()}
    # Half the set-up pairs are taken before the worker and half after,
    # so that they span the run rather than one moment of the machine.
    setup = [] if trace else setup_pairs(SETUP_PAIRS + 1)[1:]  # first writes bytecode
    result = run_worker(work, workload, data, seconds, trace)
    if not trace:
        setup += setup_pairs(SETUP_PAIRS)
    failures = check_runs(workload, result)
    print(f"workload {workload}  seed {seed}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}")
    for scale, sizes in inputs.items():
        print(f"inputs ({scale}): " + json.dumps(sizes))
    samples = result["samples"]
    print(f"run_s over {len(samples)} timed runs after one warm-up: "
          f"min {min(samples):.4f}  median {statistics.median(samples):.4f}  "
          f"max {max(samples):.4f} s as measured; reference task median "
          f"{statistics.median(result['references']):.4f} s")
    if not trace:
        print(f"setup_s over {len(setup)} interpreter pairs: import median "
              f"{statistics.median(full for _, full in setup):.4f} s, bare median "
              f"{statistics.median(bare for bare, _ in setup):.4f} s as measured")
    attempted = len(result["runs"])
    print(f"error_rate {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted} runs)")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if trace:
        metrics = layer_metrics(result)
        print(f"spans of the last traced run: {os.path.join(work, 'result.json')}")
    else:
        metrics = end_to_end_metrics(result, setup, len(failures))
    return metrics, attempted, failures


def self_test() -> int:
    """Each workload at tiny size: its check passes on the CLI's output and
    fails once one output value is perturbed."""
    ok = True
    for workload in workloads.WORKLOADS:
        work = os.path.join(WORK, "self-test", workload)
        shutil.rmtree(work, ignore_errors=True)
        data = os.path.join(work, "data-tiny")
        generate(workload, 0, "tiny", data)
        result = run_worker(work, workload, {"full": data, "quarter": data}, 0.0, True,
                            min_samples=1)
        try:
            with open(result["runs"][0]["output"], encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            doc = None  # the CLI failed; check_runs reports it
        failures = check_runs(workload, result)
        caught = []
        if doc is not None:
            if workload == "align-log":
                doc["score"] += 1e-6
            else:
                label = next(n for n in doc["nodes"] if n["kind"] == "label")
                label["importance"] += 1e-6
            perturbed = os.path.join(work, "perturbed.json")
            with open(perturbed, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            caught = workloads.check(workload, perturbed, data)
        passed = not failures and bool(caught)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {workload}: {len(result['runs'])} runs, "
              f"{len(failures)} failed the check; perturbed output "
              f"{'rejected: ' + caught[0] if caught else 'not rejected'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show every output check passes on tiny inputs and "
                             "fails on a perturbed output")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "valuetax", "cli.py")):
        print(f"error: no valuetax sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        metrics, attempted, failures = benchmark(args.workload, args.seed, args.seconds,
                                                 bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = metric_units()
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
