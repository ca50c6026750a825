"""Every benchmark invocation, run in-process, gives a report that the
benchmark's own check accepts against ``bench/reference.json``.

``bench/check.py`` and ``bench/workloads.py`` are loaded read-only; the
seeded invocations run at seeds 0 and 7, which the reference records.
"""

import importlib.util
from pathlib import Path

import pytest

from bosonqec.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (0, 7)


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECK = load("check")
WORKLOADS = load("workloads")
REFERENCE = CHECK.load_reference()


def invocations():
    for workload, argvs in WORKLOADS.WORKLOADS.items():
        for argv in argvs:
            for seed in SEEDS if WORKLOADS.is_seeded(argv) else (None,):
                expanded = WORKLOADS.expand(argv, seed or 0)
                yield pytest.param(argv, seed, id=f"{workload}-{'_'.join(expanded)}")


@pytest.mark.parametrize("argv, seed", invocations())
def test_report_matches_reference(capsys, argv, seed):
    exit_code = main(list(WORKLOADS.expand(argv, seed or 0)))
    text = capsys.readouterr().out
    key = WORKLOADS.key(argv)
    assert CHECK.check_report(text, exit_code, REFERENCE, key, seed) == []
