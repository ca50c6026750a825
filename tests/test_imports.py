"""Each command executes only the modules it uses, while the benchmark
tracer, which patches functions across the ``bosonqec.*`` entries of
``sys.modules``, still finds every module registered by ``import bosonqec``.

A module registered but not yet executed is a ``_LazyModule``; ``type()``
reads that without executing it.  ``bench/trace_child.py`` runs in its own
process, as the benchmark runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bosonqec
from bosonqec import cli
from bosonqec.damaged import DamagedIndex
from bosonqec.syndrome import transpose_recovery
from test_damaged import linked_basis

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_CHILD = ROOT / "bench" / "trace_child.py"

EXECUTED = (
    "import json, sys, types\n"
    "def executed():\n"
    "    return sorted(n for n, m in sys.modules.items()\n"
    "                  if n.startswith('bosonqec') and type(m) is types.ModuleType)\n"
)


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports bosonqec from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=True)


def submodules(*names):
    return sorted(["bosonqec", *(f"bosonqec.{name}" for name in ("cli", "report", *names))])


TABLES = ("codes", "fock")
SYNDROME = (*TABLES, "channels", "syndrome")
# kl imports damaged, so the kernel executes with kl
KL = (*SYNDROME, "damaged", "kl")


COMMANDS = [
    (["budget", "--nc", "82"], submodules()),
    (["table1"], submodules(*TABLES)),
    (["codeword", "--w", "3", "--k", "3"], submodules(*TABLES)),
    # only a sampled run draws a random number
    (["encode", "--w", "3"], submodules(*TABLES, "logical")),
    (["encode", "--w", "3", "--sampled", "--seed", "7"], submodules(*TABLES, "logical", "rng")),
    # channels holds the overlap sweep; neither syndrome nor damaged runs
    (["cc", "--num-random", "5"], submodules(*TABLES, "channels", "rng")),
    (["cc", "--dt", "0.5"], submodules(*TABLES, "channels")),
    # the read-out takes no damaged codewords, so the kernel never runs
    (["syndrome"], submodules(*SYNDROME)),
    (["verify", "--family", "ce-ext-bin"], submodules(*TABLES, "channels", "damaged", "kl")),
    (["verify"], submodules(*KL, "logical")),
    (["scaling"], submodules(*KL)),
]

@pytest.mark.parametrize("argv, modules", COMMANDS)
def test_each_command_executes_only_its_modules(tmp_path, argv, modules):
    code = EXECUTED + (
        "from bosonqec import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, executed()]))\n"
    )
    out = run_fresh(code, json.dumps([*argv, "--out", str(tmp_path / "report.out")])).stdout
    assert json.loads(out) == [0, modules]


# every command above, then verify and scaling on every family
FAMILIES = ("one-mode-binomial", "two-mode-binomial", "qubit-shor", "ext-bin", "ce-ext-bin")
NUMPY_FREE = [argv for argv, _ in COMMANDS] + [
    [command, "--family", family] for command in ("verify", "scaling") for family in FAMILIES
]


@pytest.mark.parametrize("argv", NUMPY_FREE)
def test_no_command_executes_numpy(tmp_path, argv):
    # the kernel and the spectral step are pure Python; some scaling runs
    # fail a slope gate
    code = (
        "import json, sys\n"
        "from bosonqec import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))\n"
    )
    out = run_fresh(code, json.dumps([*argv, "--out", str(tmp_path / "report.out")])).stdout
    exit_code, numpy = json.loads(out)
    assert exit_code in (0, 1) and not numpy


LINKED = (
    "import math\n"
    "from bosonqec.codes import CodeSpec, LogicalBasis, logical_basis\n"
    "from bosonqec.damaged import DamagedIndex\n"
    "from bosonqec.fock import PureState\n"
    "from bosonqec.syndrome import transpose_recovery\n"
    "spec = CodeSpec('extended_binomial', 1, 1)\n"
    "half = 1 / math.sqrt(2)\n"
    "linked = LogicalBasis(spec, {'0': PureState(spec.layout, {(1, 0): half, (0, 1): half}),\n"
    "                             '1': PureState(spec.layout, {(2, 2): 1.0})})\n"
)


def test_no_path_loads_numpy():
    # hand-built codewords whose damaged codewords share an occupation give
    # a 2x2 Gram block, which takes spectral's Jacobi step; nothing loads numpy
    code = EXECUTED + LINKED + (
        "transpose_recovery(DamagedIndex(logical_basis(spec), 1), 0.01)\n"
        "shipped = ['numpy' in sys.modules, 'bosonqec.spectral' in executed()]\n"
        "transpose_recovery(DamagedIndex(linked, 1), 0.01)\n"
        "linked = ['numpy' in sys.modules, 'bosonqec.spectral' in executed()]\n"
        "print(json.dumps([*shipped, *linked]))\n"
    )
    assert json.loads(run_fresh(code).stdout) == [False, False, False, True]


GAMMAS = (1e-3, 1e-2)


def test_every_path_runs_without_numpy(tmp_path):
    # numpy set to None in sys.modules makes any import of it fail: every
    # command, and the transpose recovery of the linked code, give the same
    # reports, exit statuses and recoveries as a run with numpy importable
    blocked, normal = tmp_path / "blocked", tmp_path / "normal"
    blocked.mkdir()
    normal.mkdir()
    code = "import json, sys\nsys.modules['numpy'] = None\n" + LINKED + (
        "from bosonqec import cli\n"
        "codes = [cli.main([*argv, '--out', f'{sys.argv[2]}/{n}.out'])\n"
        "         for n, argv in enumerate(json.loads(sys.argv[1]))]\n"
        f"recoveries = [transpose_recovery(DamagedIndex(linked, 1), g) for g in {GAMMAS!r}]\n"
        "print(json.dumps([codes, [[r.dropped, r.condition, repr(r.bras.value)]\n"
        "                         for r in recoveries]]))\n"
    )
    codes, recoveries = json.loads(run_fresh(code, json.dumps(NUMPY_FREE), str(blocked)).stdout)
    want = [cli.main([*argv, "--out", str(normal / f"{n}.out")])
            for n, argv in enumerate(NUMPY_FREE)]
    assert codes == want and set(codes) <= {0, 1}
    for n in range(len(NUMPY_FREE)):
        assert (blocked / f"{n}.out").read_bytes() == (normal / f"{n}.out").read_bytes()
    reference = [transpose_recovery(DamagedIndex(linked_basis(), 1), g) for g in GAMMAS]
    assert recoveries == [[r.dropped, r.condition, repr(r.bras.value)] for r in reference]
    assert [r.dropped for r in reference] == [1, 1]


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_no_command_loads_dataclasses(tmp_path, argv):
    # dataclasses loads inspect, ast and dis, and so would numpy
    code = (
        "import json, sys\n"
        "from bosonqec import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, 'dataclasses' in sys.modules, 'inspect' in sys.modules]))\n"
    )
    out = run_fresh(code, json.dumps([*argv, "--out", str(tmp_path / "report.out")])).stdout
    assert json.loads(out) == [0, False, False]


def test_import_registers_every_module_and_executes_none():
    code = EXECUTED + "import bosonqec\nprint(json.dumps([sorted(sys.modules), executed()]))\n"
    registered, executed = json.loads(run_fresh(code).stdout)
    package = {f"bosonqec.{path.stem}" for path in (SRC / "bosonqec").glob("*.py")}
    package -= {"bosonqec.__init__", "bosonqec.__main__"}
    assert sorted(n for n in registered if n.startswith("bosonqec")) == sorted({"bosonqec", *package})
    assert executed == ["bosonqec"]


def test_public_names_are_unchanged():
    assert sorted(bosonqec.__all__) == [
        "CodeSpec", "KLReport", "LinearMap", "LogicalBasis", "LogicalOperator", "ModeLayout",
        "ProtocolTrace", "PureState", "ScalingFit", "apply_cc", "apply_loss_pattern",
        "apply_on_modes", "build_logical_operator", "channels", "codes", "codeword", "damaged",
        "diagnose", "diagonal_deviation", "entanglement_fidelity",
        "enumerate_loss_patterns", "fit_residual_scaling", "fock", "inner", "kl", "kl_matrix",
        "logical", "logical_basis", "mean_excitation", "measure_integer_observable",
        "recovery_infidelity", "rng", "run_encoding_protocol", "syndrome", "tensor",
        "total_number_expectation", "transpose_recovery", "verify_logical_algebra",
    ]
    assert set(bosonqec.__all__) <= set(dir(bosonqec))
    assert bosonqec.inner is bosonqec.fock.inner
    assert not hasattr(bosonqec, "no_such_name")


def traced_spans(tmp_path, *argv):
    """The span names, in order, of ``argv`` run under the benchmark tracer."""
    sidecar = tmp_path / "sidecar.json"
    subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(SRC), str(sidecar), "traced", *argv,
         "--out", str(tmp_path / "report.out")],
        capture_output=True, check=True, timeout=120,
    )
    trace = json.loads(sidecar.read_text())
    return [trace["names"][n] for n, *_ in trace["spans"]]


def test_traced_run_patches_every_binding(tmp_path):
    # damaged calls enumerate_loss_patterns through its own binding: the
    # KL index and the decoder sweep of verify each make one span
    names = traced_spans(tmp_path, "verify", "--family", "ext-bin", "--w", "2", "--k", "2")
    assert names.count("channels.enumerate_loss_patterns") == 2
    assert names.count("cli.decoder_sweep") == 1


def test_traced_cc_spans_its_overlap_sweep_once(tmp_path):
    # cc calls channels.cc_overlap, which the tracer spans under the name
    # of syndrome's binding of the same function
    names = traced_spans(tmp_path, "cc", "--family", "ext-bin", "--w", "2", "--num-random", "50")
    assert names.count("syndrome.cc_overlap") == 1
