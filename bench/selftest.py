"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Run from the root of a checkout; takes about half a minute.  Checks that
the correctness check rejects a perturbed reference value, a flipped
amplitude sign and a changed exit status, that it holds fitted slopes
and intercepts to ``FIT_ATOL`` and other numbers to ``ATOL + RTOL``,
that a hung invocation is killed and counted as failed,
that a child's peak RSS excludes that of run.py,
that ``BENCHMARK.json`` keeps to its format and states the sizes of the
left-out configurations, that every metric a run prints is declared in
``BENCHMARK.json`` with the unit it is printed with, and that the traced
``sweep-suite`` bypasses the KL matrix and the transpose recovery.
Exits 1 when a check fails.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402
import spawner  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def spawn_report(argv: tuple[str, ...], tmp: str) -> tuple[int, str]:
    cmd = [sys.executable, "-m", "bosonqec", *argv]
    env = run.child_env(os.path.join(ROOT, "src"))
    _, _, code, killed = spawner.spawn(cmd, tmp, 60.0, cwd=ROOT, env=env)
    expect(not killed, f"{' '.join(argv)} finishes")
    return code, spawner.read_outputs(tmp)[0]


def test_reference_check(tmp: str) -> None:
    reference = check.load_reference()
    for argv in (workloads.SETUP_ARGV, ("syndrome", "--w", "2", "--k", "2")):
        key = workloads.key(argv)
        code, report = spawn_report(argv, tmp)
        expect(check.check_report(report, code, reference, key, None) == [],
               f"{key}: report matches the reference")

        perturbed = copy.deepcopy(reference)
        values = perturbed["invocations"][key]["values"]
        name = next(n for n, v in sorted(values.items())
                    if isinstance(v, (int, float)) and not isinstance(v, bool) and v != 0)
        values[name] = values[name] * (1 + 1e-3) if isinstance(values[name], float) else values[name] + 1
        expect(check.check_report(report, code, perturbed, key, None) != [],
               f"{key}: perturbed reference value {name} is rejected")

        changed = copy.deepcopy(reference)
        changed["invocations"][key]["exit"] = 1 - code
        expect(check.check_report(report, code, changed, key, None) != [],
               f"{key}: changed exit status is rejected")

    codeword = next(a for a in workloads.WORKLOADS["sweep-suite"] if a[0] == "codeword")
    key = workloads.key(codeword)
    code, report = spawn_report(codeword, tmp)
    flipped = copy.deepcopy(reference)
    values = flipped["invocations"][key]["values"]
    name = next(n for n in sorted(values) if n.endswith(".re") and values[n] != 0)
    values[name] = -values[name]
    expect(check.check_report(report, code, flipped, key, None) != [],
           f"{key}: flipped sign of {name} is rejected")

    expect(check.check_report("", 2, reference, workloads.key(workloads.SETUP_ARGV), None) != [],
           "exit status 2 is rejected")

    store = check.DigestStore(os.path.join(tmp, "digests.json"), "tree")
    expect(store.check("x", "a" * 64) == [] and store.check("x", "b" * 64) != [],
           "a report that changes between runs of one tree is rejected")


def test_tolerances() -> None:
    want = {"exit": 0, "values": {
        "slopes.transpose": 3.9, "kl_intercept": -5.2, "curve.0.infidelity_transpose": 2.6e-10,
        "kl.offdiag_max": 0.5,
    }}
    near = {"slopes.transpose": 3.9 + 5e-5, "kl_intercept": -5.2 - 5e-5,
            "curve.0.infidelity_transpose": 2.6e-10 + 5e-13, "kl.offdiag_max": 0.5 * (1 + 5e-7)}
    expect(check.compare(near, 0, want) == [], "values within their tolerances are accepted")
    for name, value in (("slopes.transpose", 3.9 + 2e-4), ("kl_intercept", -5.2 - 2e-4),
                        ("curve.0.infidelity_transpose", 2.6e-10 + 2e-12),
                        ("kl.offdiag_max", 0.5 * (1 + 5e-6))):
        expect(check.compare(dict(near, **{name: value}), 0, want) != [],
               f"{name} = {value!r} outside its tolerance is rejected")


def test_timeout(tmp: str) -> None:
    start = time.perf_counter()
    _, _, code, killed = spawner.spawn([sys.executable, "-c", "import time; time.sleep(60)"],
                                       tmp, 1.0)
    elapsed = time.perf_counter() - start
    expect(killed and code != 0 and elapsed < 10, f"a hung invocation is killed ({elapsed:.1f} s)")


def test_peak_rss(tmp: str) -> None:
    """Children of the spawner do not report the peak RSS of run.py."""
    client = run.Spawner(ROOT, run.child_env(os.path.join(ROOT, "src")), tmp)
    try:
        ballast = bytearray(300 * 2**20)
        ballast[::4096] = b"x" * len(ballast[::4096])  # make the pages resident
        cmd = [sys.executable, "-m", "bosonqec", *workloads.SETUP_ARGV]
        rss_kb = client.run(cmd, 60.0)[1]
        del ballast
    finally:
        client.close()
    expect(rss_kb < 200 * 1024, f"budget peak RSS {rss_kb / 1024:.1f} MB excludes the 300 MB held by run.py")


def test_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract keys")
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(workloads.WORKLOADS), "BENCHMARK.json lists the harness workloads")
    metrics = bench["end_to_end"] + bench["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    expect(len(set(all_names)) == len(all_names) and all(NAME.match(n) for n in all_names),
           "names are unique and well formed")
    expect(all(UNIT.match(m["unit"]) for m in metrics), "units are well formed")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"]),
           "each why is one line of at most 200 characters")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()) and bounds["setup_s"] == max(bounds.values()),
           "bounds are at most 0.25 and setup_s has the largest")
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for workload, argv, size in workloads.left_out_sizes():
        if argv[0] == "verify":
            text = f"{argv[2]} w{argv[4]}k{argv[6]} {size['patterns']:,}/{size['kl_entries']:,}"
        else:
            text = (f"{argv[2]} w{argv[4]}k{argv[6]}, {size['channel_patterns']} channel x "
                    f"{size['patterns']} recovery patterns per gamma "
                    f"({size['composed_branches_per_gamma']:,} branches)")
        expect(text in why[workload], f"{workload} why states the left-out size: {text}")
    return bench


def bench_run(trace: int) -> tuple[dict, dict[str, str]]:
    """Printed metrics (name -> unit) and the result line of a short sweep-suite run."""
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "sweep-suite",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    expect(out.returncode == 0, f"sweep-suite --trace {trace} exits 0")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"metrics": {}}
    printed = {}
    for line in lines[:-1]:
        parts = line.split(" ")
        if len(parts) == 3 and NAME.match(parts[0]):
            try:
                float(parts[1])
            except ValueError:
                continue
            printed[parts[0]] = parts[2]
    return result, printed


def test_runs(bench: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        result, printed = bench_run(trace)
        expect(result.get("correct") is True and result.get("failed") == 0,
               f"sweep-suite --trace {trace} is correct")
        expect(printed == declared, f"--trace {trace} prints each {section} metric with its unit")
        expect({n: m["unit"] for n, m in result["metrics"].items()} == declared,
               f"--trace {trace} result line carries each {section} metric with its unit")
        if trace:
            for name in ("kl.kl_matrix.calls", "syndrome.transpose_recovery.calls"):
                value = result["metrics"].get(name, {}).get("value")
                expect(value == 0, f"sweep-suite trace shows {name} == 0 (got {value})")


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as tmp:
        test_reference_check(tmp)
        test_tolerances()
        test_timeout(tmp)
        test_peak_rss(tmp)
    bench = test_benchmark_json()
    test_runs(bench)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
