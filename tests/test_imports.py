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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_CHILD = ROOT / "bench" / "trace_child.py"

EXECUTED = (
    "import json, sys, types\n"
    "def executed():\n"
    "    return sorted(n for n, m in sys.modules.items()\n"
    "                  if n.startswith('bosonqec') and type(m) is types.ModuleType)\n"
)


def run_fresh(code, *args, env=None):
    """Run ``code`` in a fresh interpreter, in ``env`` or this process's
    environment, that imports bosonqec from ``src``."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=True)


def submodules(*names):
    return sorted(["bosonqec", *(f"bosonqec.{name}" for name in ("_lazy", "cli", "report", *names))])


TABLES = ("codes", "fock")
SYNDROME = (*TABLES, "channels", "syndrome")
# kl imports damaged, so the array kernel executes before numpy loads
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
    # the read-out builds no arrays, so the array kernel never runs
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


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_only_verify_and_scaling_execute_numpy(tmp_path, argv):
    # syndrome's read-out is integer arithmetic on occupations, in pure Python
    code = (
        "import json, sys, types\n"
        "from bosonqec import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, type(sys.modules['numpy']) is types.ModuleType]))\n"
    )
    out = run_fresh(code, json.dumps([*argv, "--out", str(tmp_path / "report.out")])).stdout
    assert json.loads(out) == [0, argv[0] in ("verify", "scaling")]


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_no_command_loads_dataclasses(tmp_path, argv):
    # dataclasses loads inspect, ast and dis; numpy loads inspect too, so
    # only the commands without numpy go without it
    code = (
        "import json, sys\n"
        "from bosonqec import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, 'dataclasses' in sys.modules, 'inspect' in sys.modules]))\n"
    )
    out = run_fresh(code, json.dumps([*argv, "--out", str(tmp_path / "report.out")])).stdout
    code_, dataclasses, inspect = json.loads(out)
    assert (code_, dataclasses) == (0, False)
    if argv[0] not in ("verify", "scaling"):
        assert not inspect


def test_numpy_loads_after_every_module_of_its_command(tmp_path):
    # a module compiled once numpy is resident raises the peak RSS; for
    # scaling, numpy loads while the --gamma-grid text is parsed
    code = (
        "import json, os, sys\n"
        "order = []\n"
        "def hook(event, args):\n"
        "    if event == 'exec':\n"
        "        order.append(getattr(args[0], 'co_filename', ''))\n"
        "sys.addaudithook(hook)\n"
        "from bosonqec import cli\n"
        "code = cli.main([*json.loads(sys.argv[1]), '--out', sys.argv[2]])\n"
        "numpy = order.index(os.path.join(os.path.dirname(cli.np.__file__), '__init__.py'))\n"
        "ours = [i for i, path in enumerate(order) if path.startswith(os.path.dirname(cli.__file__))]\n"
        "print(json.dumps([code, len(ours), max(ours) < numpy]))\n"
    )
    for argv in (["verify", "--w", "2", "--k", "2"], ["verify", "--family", "qubit-shor"],
                 ["scaling"]):
        out = run_fresh(code, json.dumps(argv), str(tmp_path / "report.out")).stdout
        code_, executed, numpy_last = json.loads(out)
        assert (code_, numpy_last) == (0, True), argv
        assert executed >= 8, argv


def test_import_registers_every_module_and_executes_none():
    code = EXECUTED + "import bosonqec\nprint(json.dumps([sorted(sys.modules), executed()]))\n"
    registered, executed = json.loads(run_fresh(code).stdout)
    package = {f"bosonqec.{path.stem}" for path in (SRC / "bosonqec").glob("*.py")}
    package -= {"bosonqec.__init__", "bosonqec.__main__"}
    assert sorted(n for n in registered if n.startswith("bosonqec")) == sorted({"bosonqec", *package})
    assert executed == ["bosonqec", "bosonqec._lazy"]


def test_public_names_are_unchanged():
    assert sorted(bosonqec.__all__) == [
        "CodeSpec", "KLReport", "LinearMap", "LogicalBasis", "LogicalOperator", "ModeLayout",
        "ProtocolTrace", "PureState", "ScalingFit", "SyndromeRecord", "analytic_alpha", "apply",
        "apply_cc", "apply_loss_pattern", "apply_on_modes", "build_logical_operator",
        "cc_unitary", "channels", "codes", "codeword", "damaged", "decode_lookup", "diagnose",
        "diagonal_deviation", "entanglement_fidelity", "enumerate_loss_patterns",
        "extract_syndrome", "fit_residual_scaling", "fock", "inner", "kl", "kl_matrix",
        "logical", "logical_basis", "mean_excitation", "measure_integer_observable",
        "merge_modes_to_single", "multi_mode_kraus", "recovery_infidelity", "rng",
        "run_encoding_protocol", "syndrome", "tensor", "total_number_expectation",
        "transpose_recovery", "verify_logical_algebra",
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


def test_cli_runs_blas_on_one_thread(tmp_path):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no per-thread listing of this process")
    code = (
        "import json, os, sys\n"
        "from bosonqec import cli\n"
        "code = cli.main(['verify', '--w', '1', '--k', '1', '--out', sys.argv[1]])\n"
        "print(json.dumps([code, os.environ['OPENBLAS_NUM_THREADS'],\n"
        "                  len(os.listdir('/proc/self/task'))]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = run_fresh(code, str(tmp_path / "report.out"), env=env).stdout
    assert json.loads(out) == [0, "1", 1]
    # a value the caller set is kept
    env["OPENBLAS_NUM_THREADS"] = "2"
    out = run_fresh(code, str(tmp_path / "report.out"), env=env).stdout
    assert json.loads(out)[:2] == [0, "2"]
