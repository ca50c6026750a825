"""Record ``reference.json``: each invocation's result fields, exit status and report sha256.

    python3 bench/record_reference.py

Run from the root of a checkout of the commit whose results are the
reference.  Every workload invocation runs once; a seeded invocation
runs once per program seed in ``SEEDS``.  Other seeds are checked by
the report's own ``pass`` and ``expected`` fields.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402
import spawner  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(32)


def record(root: str, argv: tuple[str, ...], tmp: str, env: dict) -> dict:
    cmd = [sys.executable, "-m", "bosonqec", *argv]
    _, _, code, killed = spawner.spawn(cmd, tmp, run.INVOCATION_TIMEOUT_S, cwd=root, env=env)
    report, stderr = spawner.read_outputs(tmp)
    if killed or code not in check.REPORT_EXITS:
        raise SystemExit(f"{' '.join(argv)} failed with exit status {code}: {stderr[-400:]}")
    return {
        "exit": code,
        "sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
        "values": check.summarise(json.loads(report)),
    }


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    tmp = os.path.join(root, ".bench_out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = run.child_env(src)
    templates = dict.fromkeys(t for ts in workloads.WORKLOADS.values() for t in ts)
    entries = {}
    for template in templates:
        if workloads.is_seeded(template):
            entries[workloads.key(template)] = {
                "seeds": {
                    str(seed): record(root, workloads.expand(template, seed), tmp, env)
                    for seed in SEEDS
                }
            }
        else:
            entries[workloads.key(template)] = record(root, template, tmp, env)
        print(f"recorded {workloads.key(template)}", file=sys.stderr)
    reference = {
        "atol": check.ATOL,
        "rtol": check.RTOL,
        "fit_atol": check.FIT_ATOL,
        "recorded_from": {"git_sha": run.git_sha(root), "source_sha256": run.source_sha256(src)},
        "invocations": entries,
    }
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
