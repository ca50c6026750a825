"""Benchmark of the bosonqec command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every invocation is a fresh process
(``python -m bosonqec ...`` with ``PYTHONPATH=src``), started one at a
time through ``spawner.py``, with its report captured and checked
against ``bench/reference.json`` (see ``check.py``).

With ``--trace 0`` the run cycles through the workload's invocations
until ``--seconds`` have passed, always finishing one full pass, with a
no-work invocation every ``--seconds / SETUP_REPEATS`` seconds, and
reports the end-to-end metrics:

* ``wall_s``: sum over the workload's invocations of the median wall
  time of each, process start-up included;
* ``setup_s``: median wall time of ``bosonqec budget --nc 82``;
* ``peak_rss_mb``: the largest peak RSS of one invocation, from that
  child's own ``wait4`` rusage (children start from ``spawner.py``);
* ``ok_frac``: share of invocations that finished and matched the
  reference (``1 - failed_frac``);
* ``checks_passed``: workload invocations whose report says
  ``"pass": true``.  ``checks_failed``, its complement, is printed
  beside it; it is 4 on ``scaling-grid`` at the seed commit.

With ``--trace 1`` each invocation runs once untraced and once traced in
a process of ``trace_child.py``, and the run reports the per-layer
metrics: calls, inclusive time ``.s`` and self time ``.self_s`` of every
span, calls and time of the aggregated ``fock`` functions, the sizes in
``trace_child.COUNTERS``, and ``trace.overhead_s``, the traced minus the
untraced in-process time of ``cli.main``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the
run's provenance, per-invocation times and the trace tables is written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import spawner  # noqa: E402
import trace_child  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
INVOCATION_TIMEOUT_S = 60.0  # about ten times the slowest invocation
RUN_BUDGET_S = 165.0  # a run must end within 180 s

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
SPAWNER = os.path.join(HERE, "spawner.py")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class Invocation:
    """One finished (or killed) bosonqec process."""

    argv: tuple[str, ...]
    wall_s: float
    rss_kb: int
    exit_code: int
    timed_out: bool
    problems: list[str]


class Spawner:
    """Client of ``spawner.py``, which starts every bosonqec process.

    It is started before this process parses any report, so that its
    small peak RSS, which its children inherit, stays below theirs.
    """

    def __init__(self, root: str, env: dict, tmp: str):
        self.tmp = tmp
        self.proc = subprocess.Popen(
            [sys.executable, SPAWNER, tmp], cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, cmd: list[str], timeout: float) -> tuple[float, int, int, bool, str, str]:
        """Wall time, peak RSS (KiB), exit code, killed flag, stdout and stderr of ``cmd``."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended unexpectedly")
        reply = json.loads(line)
        report, stderr = spawner.read_outputs(self.tmp)
        return reply["wall_s"], reply["rss_kb"], reply["exit"], reply["killed"], report, stderr

    def close(self, interrupted: bool = False) -> None:
        """End the spawner; when interrupted, it kills its running child first."""
        if interrupted:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Starts bosonqec processes one at a time and checks their reports."""

    def __init__(self, root: str, seed: int, deadline: float):
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.deadline = deadline
        self.out = os.path.join(root, ".bench_out")
        tmp = os.path.join(self.out, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.reference = check.load_reference()
        self.source_digest = source_sha256(self.src)
        self.digests = check.DigestStore(
            os.path.join(self.out, "report_digests.json"), self.source_digest
        )
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.spawner = Spawner(root, child_env(self.src), tmp)

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, template: tuple[str, ...], cmd_prefix: list[str]) -> Invocation:
        """Run one workload invocation, check it and count it."""
        argv = workloads.expand(template, self.seed)
        timeout = min(INVOCATION_TIMEOUT_S, self.time_left())
        self.attempted += 1
        stderr = ""
        if timeout <= 0:
            inv = Invocation(argv, 0.0, 0, -1, True, ["did not finish: run budget spent"])
        else:
            wall, rss, code, killed, report, stderr = self.spawner.run(
                cmd_prefix + list(argv), timeout
            )
            inv = Invocation(argv, wall, rss, code, killed, [])
            if killed:
                inv.problems.append(f"did not finish within {timeout:g} s")
            else:
                seed = workloads.program_seed(self.seed) if workloads.is_seeded(template) else None
                inv.problems += check.check_report(
                    report, code, self.reference, workloads.key(template), seed
                )
                digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
                inv.problems += self.digests.check(workloads.key(argv), digest)
        if inv.problems:
            self.failed += 1
            self.failures.append({
                "argv": list(argv),
                "exit": inv.exit_code,
                "problems": inv.problems[:5],
                "stderr_tail": stderr[-400:],
            })
        return inv

    def python_m(self) -> list[str]:
        return [sys.executable, "-m", "bosonqec"]

    def trace_child(self, sidecar: str, mode: str) -> list[str]:
        return [sys.executable, TRACE_CHILD, self.src, sidecar, mode]


def child_env(src: str) -> dict:
    """The inherited environment, with bosonqec imported from ``src`` only."""
    return dict(os.environ, PYTHONPATH=src)


def source_sha256(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(root: str, args, load_1min: float, source_digest: str) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_1min_at_start": load_1min,
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": workloads.program_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def preflight(root: str) -> dict:
    """The declared metrics; raises SetupError when the checkout lacks bosonqec."""
    for rel in ("src/bosonqec/__init__.py", "src/bosonqec/cli.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, rel)):
            raise SetupError(f"{rel} not found under {root}; run from a bosonqec checkout")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(runner: Runner, invocations, seconds: float) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics of one untraced run."""
    samples: dict[int, list[Invocation]] = {i: [] for i in range(len(invocations))}
    setup: list[Invocation] = []
    window = seconds
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < window:
        for i, template in enumerate(invocations):
            elapsed = time.perf_counter() - start
            if passes > 0 and elapsed >= window:
                break
            # setup samples are spread over the run, so that setup_s sees
            # the same machine conditions as the workload
            if elapsed >= len(setup) * window / SETUP_REPEATS:
                setup.append(runner.run(workloads.SETUP_ARGV, runner.python_m()))
            samples[i].append(runner.run(template, runner.python_m()))
        passes += 1
        if runner.time_left() <= 0:
            break
    while len(setup) < SETUP_REPEATS and runner.time_left() > 0:
        setup.append(runner.run(workloads.SETUP_ARGV, runner.python_m()))
    medians = [statistics.median(s.wall_s for s in samples[i]) for i in samples]
    measured = [inv for s in samples.values() for inv in s]
    checks_passed = sum(all(inv.exit_code == 0 for inv in samples[i]) for i in samples)
    metrics = {
        "wall_s": sum(medians),
        "setup_s": statistics.median(inv.wall_s for inv in setup),
        "peak_rss_mb": max(inv.rss_kb for inv in measured + setup) / 1024.0,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "checks_passed": checks_passed,
    }
    table = [
        {
            "argv": list(workloads.expand(invocations[i], runner.seed)),
            "wall_s": [inv.wall_s for inv in samples[i]],
            "median_wall_s": medians[i],
            "peak_rss_mb": max(inv.rss_kb for inv in samples[i]) / 1024.0,
            "exit": [inv.exit_code for inv in samples[i]],
        }
        for i in samples
    ]
    table.append({
        "argv": list(workloads.SETUP_ARGV),
        "wall_s": [inv.wall_s for inv in setup],
        "median_wall_s": metrics["setup_s"],
        "peak_rss_mb": max(inv.rss_kb for inv in setup) / 1024.0,
        "exit": [inv.exit_code for inv in setup],
    })
    summary = {
        "sample_count_min": min(len(s) for s in samples.values()),
        "sample_count_max": max(len(s) for s in samples.values()),
        "setup_samples": len(setup),
        "failed_frac": runner.failed / runner.attempted,
        "checks_failed": len(invocations) - checks_passed,
    }
    return metrics, table, summary


def merge_trace(sidecars: list[dict]) -> dict:
    """Per-span calls, inclusive and self time; aggregates; counters; child times."""
    spans = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in trace_child.span_names()}
    aggregates = {name: {"calls": 0, "s": 0.0} for name in trace_child.aggregate_names()}
    by_parent: dict[str, dict[str, float]] = {}
    children: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for car in sidecars:
        names, records = car["names"], car["spans"]
        child_s = [0.0] * len(records)
        for name_index, parent, start, end in records:
            if parent >= 0:
                child_s[parent] += end - start
                pname, cname = names[records[parent][0]], names[name_index]
                table = children.setdefault(pname, {})
                table[cname] = table.get(cname, 0.0) + (end - start)
        for (name_index, _, start, end), inner_s in zip(records, child_s):
            entry = spans[names[name_index]]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner_s
        for parent, name, calls, s in car["aggregates"]:
            aggregates[name]["calls"] += calls
            aggregates[name]["s"] += s
            table = by_parent.setdefault(name, {})
            table[parent or "-"] = table.get(parent or "-", 0.0) + s
        for metric, value in car["counters"].items():
            kind = trace_child.COUNTERS[metric][1]
            counters[metric] = trace_child.combine(kind, counters.get(metric), value)
    return {
        "spans": spans,
        "aggregates": aggregates,
        "aggregate_s_by_parent": by_parent,
        "child_s": children,
        "counters": counters,
    }


def trace_metrics(merged: dict, plain_main_s: float) -> dict:
    metrics = {}
    for name, entry in merged["spans"].items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.s"] = entry["s"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    for name, entry in merged["aggregates"].items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.s"] = entry["s"]
    for metric in trace_child.COUNTERS:
        metrics[metric] = merged["counters"].get(metric, 0)
    metrics["trace.untraced_main_s"] = plain_main_s
    metrics["trace.overhead_s"] = merged["spans"]["cli.main"]["s"] - plain_main_s
    return metrics


def traced(runner: Runner, workload: str, invocations) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics of one pass, untraced and traced, one process each."""
    trace_dir = os.path.join(runner.out, "trace", workload)
    os.makedirs(trace_dir, exist_ok=True)
    sidecars = []
    plain_main_s = 0.0
    for i, template in enumerate(invocations):
        for mode in ("plain", "traced"):
            path = os.path.join(trace_dir, f"{i:02d}-{mode}.json")
            if os.path.exists(path):
                os.remove(path)
            inv = runner.run(template, runner.trace_child(path, mode))
            if inv.timed_out or not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as fh:
                car = json.load(fh)
            if mode == "plain":
                plain_main_s += car["main_s"]
            else:
                sidecars.append(car)
    merged = merge_trace(sidecars)
    metrics = trace_metrics(merged, plain_main_s)
    problems = []
    if workload == "sweep-suite":
        # the sweep must bypass the KL matrix and the transpose recovery
        for name in ("kl.kl_matrix.calls", "syndrome.transpose_recovery.calls"):
            if metrics[name] != 0:
                problems.append(f"{name} = {metrics[name]} on sweep-suite, expected 0")
    return metrics, merged, problems


def declared_units(bench: dict, trace: int) -> dict[str, str]:
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise SetupError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bosonqec CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, stop the running invocation as on an interrupt
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    start = time.perf_counter()
    load_1min = os.getloadavg()[0]
    root = os.getcwd()
    try:
        bench = preflight(root)
        units = declared_units(bench, args.trace)
        runner = Runner(root, args.seed, start + RUN_BUDGET_S)
    except (SetupError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    invocations = workloads.WORKLOADS[args.workload]
    problems: list[str] = []
    try:
        if args.trace:
            metrics, trace_tables, problems = traced(runner, args.workload, invocations)
            table, summary = None, None
        else:
            metrics, table, summary = measure(runner, invocations, args.seconds)
            trace_tables = None
    except BaseException:
        runner.spawner.close(interrupted=True)
        raise
    runner.spawner.close()
    runner.digests.save()
    if runner.attempted == runner.failed:
        print("bench: every invocation failed; is bosonqec runnable here?", file=sys.stderr)
        for failure in runner.failures[:3]:
            print(json.dumps(failure), file=sys.stderr)
        return 1
    correct = runner.failed == 0 and not problems
    result = {
        "provenance": provenance(root, args, load_1min, runner.source_digest),
        "metrics": metrics,
        "summary": summary,
        "invocations": table,
        "trace": trace_tables,
        "failures": runner.failures,
        "problems": problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "run_s": time.perf_counter() - start,
    }
    results_dir = os.path.join(runner.out, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    try:
        line = result_line(correct, runner.attempted, runner.failed, metrics, units)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for failure in runner.failures[:5]:
        print(f"FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
    for problem in problems:
        print(f"FAILED {problem}")
    if trace_tables is not None:
        for parent in ("cli.main", "syndrome.recovery_infidelity"):
            ranked = sorted(trace_tables["child_s"].get(parent, {}).items(), key=lambda kv: -kv[1])
            if ranked:
                print(f"largest child spans of {parent}: "
                      + ", ".join(f"{child} {s:.3f} s" for child, s in ranked[:3]))
    if summary is not None:
        print(f"samples per invocation: {summary['sample_count_min']}-{summary['sample_count_max']}"
              f" (setup: {summary['setup_samples']}); failed_frac {summary['failed_frac']:.4f};"
              f" checks_failed {summary['checks_failed']}")
    for metric, value in metrics.items():
        print(f"{metric} {value} {units[metric]}")
    print(f"result file: .bench_out/results/{name}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
