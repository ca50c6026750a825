import importlib.util
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from bosonqec import channels, cli, codes, damaged, fock, syndrome
from bosonqec.channels import apply_loss_pattern, enumerate_loss_patterns
from bosonqec.cli import (
    FAMILY_ALIASES,
    HANDLERS,
    MAX_DURATIONS,
    GRID_HI,
    GRID_LO,
    GRID_POINTS,
    MAX_GRID_POINTS,
    _parse_gamma_grid,
    build_parser,
    dispersive_budget,
    emit_report,
    main,
)
from bosonqec.codes import CodeSpec, logical_basis
from bosonqec.kl import kl_matrix
from bosonqec.report import _csv_cell

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def args_file(tmp_path, *lines):
    """Write ``lines`` to an argument file, one argument per line, and
    return the argument that stands for them."""
    path = tmp_path / "run.args"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"@{path}"


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's arguments,
    also where a bosonqec module binds it by ``from .module import name``."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for key, module in list(sys.modules.items()):
        if key.startswith("bosonqec") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_budget_values():
    report = dispersive_budget(82)
    assert (report["w_one_mode"], report["w_extended"]) == (11, 163)
    assert dispersive_budget(0.5)["w_one_mode"] == 0
    assert dispersive_budget(0.5)["w_extended"] == 0
    assert (dispersive_budget(2)["w_one_mode"], dispersive_budget(2)["w_extended"]) == (1, 3)
    with pytest.raises(ValueError):
        dispersive_budget(0.0)
    # the largest n_c taken is the largest whose double is finite
    assert dispersive_budget(8.9e307)["w_extended"] == int(2 * 8.9e307) - 1
    with pytest.raises(ValueError):
        dispersive_budget(9e307)


def test_budget_command(tmp_path, capsys):
    out = tmp_path / "budget.json"
    assert run(["budget", "--nc", "82", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["results"]["w_one_mode"] == 11
    assert data["results"]["w_extended"] == 163
    assert data["pass"] is True


def test_table1_matches_mean_column(tmp_path):
    out = tmp_path / "t1.csv"
    assert run(["table1", "--format", "csv", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    means = {}
    for family, w, k, label, mean in rows:
        means[(family, int(k), label)] = float(mean)
    for family, expected in (
        ("one_mode_binomial", 2.0),
        ("qubit_shor_ad", 2.0),
        ("extended_binomial", 2.0),
    ):
        for label in ("0", "1"):
            assert abs(means[(family, 1, label)] - expected) < 1e-12
    for label in ("00", "11", "01", "10"):
        assert abs(means[("one_mode_binomial", 2, label)] - 4.0) < 1e-12
        assert abs(means[("qubit_shor_ad", 2, label)] - 3.0) < 1e-12
        assert abs(means[("extended_binomial", 2, label)] - 3.0) < 1e-12


def test_reports_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        assert run(["verify", "--family", "ext-bin", "--w", "1", "--k", "1",
                    "--gamma", "0.01", "--out", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--family", "ext-bin", "--w", "1", "--k", "1",
                "--gamma", "0.01", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["results"]["kl"]["offdiag_max"] < 1e-13
    assert data["results"]["decoder"]["all_match"] is True


def test_verify_ce_family(tmp_path):
    out = tmp_path / "ce.json"
    assert run(["verify", "--family", "ce-ext-bin", "--w", "1", "--k", "2",
                "--gamma", "0.005", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True


def test_codeword_schema(tmp_path):
    out = tmp_path / "cw.json"
    assert run(["codeword", "--family", "ext-bin", "--w", "1", "--k", "2",
                "--label", "01", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    result = data["results"]
    assert result["family"] == "extended_binomial"
    assert result["label"] == "01"
    occupations = [c["occupation"] for c in result["components"]]
    assert occupations == [[0, 0, 2], [2, 2, 0]]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_codeword_default_label_is_all_zeros(tmp_path, k):
    # without --label the codeword is that of the all-zero k-bit label,
    # and the report names it
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    argv = ["codeword", "--family", "ext-bin", "--w", "1", "--k", str(k)]
    assert run([*argv, "--out", str(default)]) == 0
    assert run([*argv, "--label", "0" * k, "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()
    data = json.loads(default.read_text())
    assert data["params"]["label"] == data["results"]["label"] == "0" * k


def test_scaling_command(tmp_path):
    out = tmp_path / "scaling.json"
    assert run(["scaling", "--w", "1", "--k", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["results"]["kl_slope"] - 2.0) <= 0.05
    assert abs(data["results"]["slopes"]["transpose"] - 2.0) <= 0.2
    assert data["results"]["slopes"]["naive"] >= 1.0
    assert data["results"]["curve"][0]["gamma"] > 0


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports bosonqec from ``src``."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=True)


def test_scaling_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs 15-20 ms of import, and nothing in a run needs it
    code = (
        "import sys\n"
        "from bosonqec.cli import main\n"
        f"main(['scaling', '--w', '1', '--k', '1', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert run_fresh(code).stdout.strip() == "False"


def test_commands_without_arrays_leave_numpy_unimported(tmp_path):
    # numpy's import is most of the start-up of these commands, cc and
    # encode --sampled included, whose draws come from bosonqec.rng; the
    # tracer still finds every module it patches loaded by the package
    trace = importlib.util.spec_from_file_location("trace_child", ROOT / "bench" / "trace_child.py")
    trace_child = importlib.util.module_from_spec(trace)
    trace.loader.exec_module(trace_child)
    traced = sorted({f"bosonqec.{mod}" for mod in (*trace_child.SPANS, *trace_child.AGGREGATES)})
    code = (
        "import json, sys\n"
        "import bosonqec\n"
        "from bosonqec import cli\n"
        "print(json.dumps([name in sys.modules for name in json.loads(sys.argv[1])]))\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    code = cli.main([*argv, '--out', sys.argv[3]])\n"
        "    print(argv[0], code, 'numpy._core' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    commands = [["budget", "--nc", "82"], ["table1", "--max-w", "3", "--max-k", "3"],
                ["codeword", "--w", "3", "--k", "3"], ["encode", "--w", "1"],
                ["cc", "--family", "ce-ext-bin", "--w", "2", "--k", "2",
                 "--num-random", "50", "--seed", "3"],
                ["cc", "--family", "ext-bin", "--w", "1", "--k", "1", "--dt", "0.5", "1.5"],
                ["encode", "--w", "3", "--sampled", "--seed", "7"]]
    lines = run_fresh(code, json.dumps(traced), json.dumps(commands),
                      str(tmp_path / "r.out")).stdout.splitlines()
    assert json.loads(lines[0]) == [True] * len(traced)
    assert lines[1:] == [f"{argv[0]} 0 False False" for argv in commands]


def test_one_numpy_module_in_either_import_order(tmp_path):
    # the package imports no numpy: verify leaves it unloaded, or loaded by
    # the caller, and gives the same report either way
    code = (
        "import sys\n"
        "import {first}\n"
        "import bosonqec\n"
        "from bosonqec.cli import main\n"
        "code = main(['verify', '--w', '1', '--k', '1', '--out', sys.argv[1]])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    reports = []
    for first, loaded in (("bosonqec", "False"), ("numpy", "True")):
        out = tmp_path / f"{first}.json"
        assert run_fresh(code.format(first=first), str(out)).stdout.split() == ["0", loaded]
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("config", [None, ["--w", "1"]])
def test_default_gamma_grid_is_the_geomspace(tmp_path, config):
    # the default is the flag's own text, parsed only when scaling runs,
    # also where an argument file gives other flags
    argv = ["scaling"] if config is None else ["scaling", args_file(tmp_path, *config)]
    grid = build_parser().parse_args(argv).gamma_grid
    assert all(type(g) is float for g in grid)
    assert np.array(grid).tobytes() == np.geomspace(GRID_LO, GRID_HI, GRID_POINTS).tobytes()


def test_gamma_grids_lie_within_an_ulp_of_the_geomspace():
    # 10 ** (i * step + log10(lo)) with both ends exact, as geomspace computes
    # it, from correctly rounded logarithms of the ends; numpy's power may
    # round the last digit differently.  Where numpy's own log10 of an end
    # is an ulp off, the points move by at most ln(10) |log10 gamma| ~ 5 ulps
    rng = np.random.default_rng(1001)
    exact_logs = 0
    for _ in range(1200):
        lo, hi = sorted(rng.uniform(1e-6, 0.05, 2).tolist())
        n = int(rng.integers(1, MAX_GRID_POINTS + 1))
        grid = np.array(_parse_gamma_grid(f"{lo!r}:{hi!r}:{n}"))
        want = np.geomspace(lo, hi, n)
        assert grid[0] == lo and (n == 1 or grid[-1] == hi)
        ulps = np.abs(grid - want) / np.spacing(want)
        if all(np.log10(end) == float(Decimal(end).log10()) for end in (lo, hi)):
            exact_logs += 1
            assert ulps.max() <= 1
        else:
            assert ulps.max() <= 8
    assert exact_logs >= 1000


@pytest.mark.parametrize(
    "family, w", [("one-mode-binomial", 2), ("one-mode-binomial", 3), ("two-mode-binomial", 3)]
)
def test_scaling_with_fewer_modes_than_w(tmp_path, family, w):
    # the naive recovery decodes these codes although the chain
    # observables would need w modes
    out = tmp_path / "scaling.json"
    code = run(["scaling", "--family", family, "--w", str(w), "--out", str(out)])
    data = json.loads(out.read_text())
    assert code == (0 if data["pass"] else 1)
    assert set(data["results"]["slopes"]) == {"naive", "transpose"}
    assert all(point["infidelity_naive"] > 0.0 for point in data["results"]["curve"])


def test_scaling_recovery_selection(tmp_path):
    out = tmp_path / "scaling.csv"
    assert run(["scaling", "--w", "1", "--k", "1", "--recovery", "transpose",
                "--format", "csv", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["gamma", "diag_deviation", "infidelity_transpose", "tail_bound"]


def test_syndrome_command(tmp_path):
    out = tmp_path / "syn.json"
    assert run(["syndrome", "--w", "1", "--k", "1", "--pattern", "1,0",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    for record in data["results"]["records"]:
        assert record["decoded"] == "1;0"
        assert record["match"] is True


@pytest.mark.parametrize(
    "w, k, pattern", [(1, 1, "99999999999999999999,0"), (3, 1, "5,0,0,0")]
)
def test_syndrome_pattern_above_the_cutoff(tmp_path, w, k, pattern):
    # a loss above a mode's cutoff, however large, annihilates every
    # codeword: no record, and nothing fails
    out = tmp_path / "syn.json"
    assert run(["syndrome", "--w", str(w), "--k", str(k), "--pattern", pattern,
                "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "command": "syndrome",
        "params": {"family": "extended_binomial", "w": w, "k": k},
        "results": {"records": []},
        "tolerances": {},
        "pass": True,
    }


@pytest.mark.parametrize(
    "argv",
    [["verify", "--family", "ext-bin", "--w", "2", "--k", "2"], ["syndrome", "--w", "2", "--k", "2"]],
)
def test_syndrome_diagnosis_is_one_call(monkeypatch, tmp_path, argv):
    # every damaged codeword is diagnosed in one call on the codeword
    # occupations: no damaged codeword is built as a state and nothing is
    # measured one by one
    diagnoses = count_calls(monkeypatch, syndrome, "diagnose")
    damaged_states = count_calls(monkeypatch, channels, "apply_loss_pattern")
    measurements = count_calls(monkeypatch, fock, "measure_integer_observable")
    assert run([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert (len(diagnoses), len(damaged_states), len(measurements)) == (1, 0, 0)


@pytest.mark.parametrize(
    "argv",
    [["verify", "--family", "ext-bin", "--w", "2", "--k", "2"], ["syndrome", "--w", "2", "--k", "2"]],
)
def test_syndrome_decodes_once(monkeypatch, tmp_path, argv):
    # one decoder: every decoded pattern comes from one decode_patterns
    # call over all the patterns, and every outcome from one
    # expected_outcomes call (scaling's one decode is pinned below)
    decodes = count_calls(monkeypatch, syndrome, "decode_patterns")
    read_outs = count_calls(monkeypatch, syndrome, "expected_outcomes")
    assert run([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert (len(decodes), len(read_outs)) == (1, 1)


def test_encode_command(tmp_path):
    out = tmp_path / "enc.json"
    assert run(["encode", "--w", "1", "--alpha", "0.6", "--beta", "0.8",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    traces = data["results"]["traces"]
    assert len(traces) == 4
    assert all(abs(t["probability"] - 0.25) < 1e-12 for t in traces)


def test_cc_command(tmp_path):
    out = tmp_path / "cc.json"
    assert run(["cc", "--family", "ce-ext-bin", "--w", "1", "--k", "1",
                "--num-random", "10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert run(["cc", "--family", "ext-bin", "--w", "1", "--k", "1",
                "--dt", "0.3", "0.9", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--no-such-flag"],
        ["verify", "--family", "nonsense"],
        ["verify", "--w", "9"],
        ["verify", "--k", "4"],
        ["table1", "--max-w", "0"],
        ["table1", "--max-k", "4"],
        ["encode", "--w", "4"],
        ["verify", "--gamma", "0.5"],
        ["verify", "--family", "one-mode-binomial", "--k", "2"],
        ["syndrome", "--family", "qubit-shor"],
        ["syndrome", "--w", "2", "--pattern", "1,0"],
        ["syndrome", "--w", "1", "--label", "2"],
        ["codeword", "--w", "1", "--label", "01"],
        ["codeword", "--family", "one-mode-binomial", "--k", "2"],
        ["scaling", "--gamma-grid", "1e-3:0.5:8"],
        ["scaling", "--gamma-grid", "1e-3:1e-2:3"],
        ["cc", "--num-random", "-1"],
        ["syndrome", "--pattern", "-1,0"],
        ["budget", "--nc", "0"],
        ["budget", "--nc", "inf"],
        ["budget", "--nc", "9e307"],
        ["budget", "--nc", "1e308"],
        ["scaling", "--gamma-grid", f"1e-3:1e-2:{MAX_GRID_POINTS + 1}"],
        ["scaling", "--gamma-grid", "1e-3:1e-2:1000000000"],
        ["scaling", "--gamma-grid", "1e-3:1e-2:-1"],
        ["cc", "--num-random", str(MAX_DURATIONS + 1)],
        ["cc", "--dt", *["0.5"] * (MAX_DURATIONS + 1)],
        ["encode", "--alpha", "inf", "--beta", "0"],
        ["encode", "--alpha", "0", "--beta", "0"],
        ["encode", "--alpha", "x"],
        ["encode", "--alpha", "nan"],
        ["cc", "--dt", "-1"],
        ["cc", "--dt", "nan"],
        ["cc", "--seed", "-1"],
        ["encode", "--sampled", "--seed", "-1"],
        ["encode", "--k", "3"],
        ["encode", "--family", "qubit-shor"],
        ["verify", "--seed", "1"],
        ["cc", "--dt"],
        ["cc", "--family", "ext-bin", "--w", "1", "--k", "1", "--dt", "1e308"],
        ["cc", "--family", "one-mode-binomial", "--w", "3", "--dt", "1.2e307"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("count", ["-1", str(MAX_GRID_POINTS + 1)])
def test_grid_point_count_out_of_range_is_named(capsys, count):
    with pytest.raises(SystemExit) as err:
        run(["scaling", "--gamma-grid", f"1e-3:1e-2:{count}"])
    assert err.value.code == 2
    assert f"number of grid points must lie in [0, {MAX_GRID_POINTS}]" in capsys.readouterr().err


def test_suite_box_is_argparse_choices(capsys):
    # w and k outside the suites are refused by argparse, which --help lists
    with pytest.raises(SystemExit) as err:
        run(["verify", "--w", "4"])
    assert err.value.code == 2
    assert "invalid choice: 4 (choose from 1, 2, 3)" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        run(["verify", "--help"])
    assert err.value.code == 0
    assert "--w {1,2,3}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "alpha, beta, same_as",
    [
        ("1e-160", "0", ("1", "0")),
        ("1e-200", "0", ("1", "0")),
        ("5e-324", "0", ("1", "0")),
        ("1e200", "0", ("1", "0")),
        ("1e308", "1e308", ("1", "1")),
        # |alpha| overflows a float; 1.5 * 2^1023 keeps the ratio to 1.5 exact
        ("1.348269851146737e308+1.348269851146737e308j", "0", ("1.5+1.5j", "0")),
    ],
)
def test_encode_normalizes_any_finite_pair(tmp_path, alpha, beta, same_as):
    # amplitudes are normalized by hypot, which neither underflows nor
    # overflows, so a finite pair encodes as its normalized pair does
    out, reference = tmp_path / "encode.json", tmp_path / "reference.json"
    assert run(["encode", "--alpha", alpha, "--beta", beta, "--out", str(out)]) == 0
    assert run(["encode", "--alpha", same_as[0], "--beta", same_as[1],
                "--out", str(reference)]) == 0
    assert out.read_bytes() == reference.read_bytes()
    amplitudes = args_file(tmp_path, "--alpha", alpha, "--beta", beta)
    assert run(["encode", amplitudes, "--out", str(out)]) == 0
    assert out.read_bytes() == reference.read_bytes()


def test_sweep_caps_are_taken(tmp_path):
    # the largest grid and duration counts run; one more is a usage error
    out = tmp_path / "report.csv"
    assert run(["scaling", "--recovery", "naive", "--gamma-grid",
                f"1e-3:1e-2:{MAX_GRID_POINTS}", "--format", "csv", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + MAX_GRID_POINTS
    for sweep in (["--num-random", str(MAX_DURATIONS)], ["--dt", *["0.5"] * MAX_DURATIONS]):
        assert run(["cc", "--family", "ext-bin", *sweep, "--format", "csv",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * MAX_DURATIONS


def test_scaling_without_two_fit_points_exits_1_with_a_report(tmp_path):
    # on this grid the KL residual and the transpose infidelity are
    # rounding noise below the zero floor, so they get no slope and fail
    # their gates; the first-order naive infidelity is still fitted
    out = tmp_path / "scaling.json"
    assert run(["scaling", "--gamma-grid", "1e-12:1e-11:5", "--out", str(out)]) == 1
    results = json.loads(out.read_text())["results"]
    assert results["kl_points_used"] == 0
    assert np.isnan(results["kl_slope"]) and np.isnan(results["slopes"]["transpose"])
    assert abs(results["slopes"]["naive"] - 1.0) < 1e-3


def test_cc_huge_dt_below_the_excitation_bound_runs(tmp_path):
    out = tmp_path / "cc.csv"
    assert run(["cc", "--family", "ce-ext-bin", "--w", "1", "--k", "1", "--dt", "1e300",
                "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text() == "delta_t,label,overlap,expected\n1e+300,0,1.0,1.0\n1e+300,1,1.0,1.0\n"
    # the bound is the codewords' largest total excitation, (w+1)(w+k) = 24
    # at w = k = 3, not the 48 summed cutoffs of the constant-excitation layout
    assert run(["cc", "--family", "ce-ext-bin", "--w", "3", "--k", "3", "--dt", "5e306",
                "--out", str(tmp_path / "cc.json")]) == 0


def test_io_failure_exits_1(tmp_path):
    assert run(["budget", "--nc", "82", "--out", str(tmp_path / "nodir" / "x.json")]) == 1


def test_module_entry_point_exit_statuses(tmp_path):
    # the benchmark runs every invocation as `python -m bosonqec`
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "bosonqec", *argv], capture_output=True,
                              env=env, timeout=120)

    budget = module("budget", "--nc", "82")
    assert budget.returncode == 0
    assert run(["budget", "--nc", "82", "--out", str(tmp_path / "budget.json")]) == 0
    assert budget.stdout == (tmp_path / "budget.json").read_bytes()
    usage = module("verify", "--gamma", "0.5")
    assert usage.returncode == 2 and b"bosonqec: error: gamma must lie" in usage.stderr
    # two losses exceed the weight w=1 corrects, so the decoder misses: a check fails
    assert module("syndrome", "--w", "1", "--k", "1", "--pattern", "2,0").returncode == 1
    missing = module("budget", "--nc", "82", "--out", str(tmp_path / "nodir" / "x.json"))
    assert missing.returncode == 1 and b"cannot write report" in missing.stderr


def test_config_file_flags_win(tmp_path):
    # of a flag given both on the command line and in an argument file,
    # the later occurrence wins
    values = args_file(tmp_path, "--w", "1", "--gamma", "0.005")
    out = tmp_path / "r.json"
    for argv, gamma in (([values, "--gamma", "0.02"], 0.02), (["--gamma", "0.02", values], 0.005)):
        assert run(["verify", *argv, "--out", str(out)]) == 0
        params = json.loads(out.read_text())["params"]
        assert (params["w"], params["gamma"]) == (1, gamma)


@pytest.mark.parametrize(
    "flags",
    [
        ["--w", "1", "--gamma", "0.01"],
        ["--w=1", "--gamma=0.01"],
        ["--w", "1", "--gam", "0.01"],
        ["--w=1", "--gam=0.01"],
    ],
)
def test_config_file_flags_win_in_every_spelling(tmp_path, flags):
    # the = form and argparse's unique-prefix abbreviation are flags too
    values = args_file(tmp_path, "--w=2", "--gamma", "0.02")
    out = tmp_path / "r.json"
    assert run(["verify", values, *flags, "--out", str(out)]) == 0
    params = json.loads(out.read_text())["params"]
    assert (params["w"], params["gamma"]) == (1, 0.01)


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("codeword", ["--family", "one-mode-binomial", "--k", "2"]),
        ("verify", ["--w", "two"]),
        ("scaling", ["--gamma-grid", "1e-3:2e-2:3"]),
        ("syndrome", ["--pattern", "1,0,0"]),
        ("cc", ["--seed"]),
        ("encode", ["--seed", "1.5"]),
        ("cc", ["--dt"]),
        ("verify", ["--w", "2.0"]),
        ("verify", ["--w", "true"]),
        ("scaling", ["--recovery", "bogus"]),
        ("table1", ["--format", "xml"]),
        ("verify", ["1"]),
        ("cc", ["--family", "ext-bin", "--dt", "1e308"]),
        ("budget", ["--nc", "9e307"]),
        ("budget", ["--nc", "1e308"]),
        ("scaling", ["--gamma-grid", f"1e-3:1e-2:{MAX_GRID_POINTS + 1}"]),
        ("cc", ["--num-random", str(MAX_DURATIONS + 1)]),
        ("cc", ["--dt", *["0.5"] * (MAX_DURATIONS + 1)]),
        ("encode", ["--alpha", "inf", "--beta", "0"]),
        ("scaling", ["--gamma-grid", "1e-3:1e-2"]),
        ("scaling", [f"--gamma-grid=1e-3:1e-2:{MAX_GRID_POINTS + 1}"]),
        ("syndrome", ["--pattern", "1,x"]),
        # a line is one argument as its flag would take it from the command
        # line: a switch takes no value, a flag's value is the text it parses
        ("encode", ["--sampled=false"]),
        ("encode", ["--sampled", "1"]),
        ("budget", ["--nc", "82", "--out"]),
        ("syndrome", ["--pattern", "1.5,0"]),
        ("syndrome", ["--pattern", "true,0"]),
        ("syndrome", ["--pattern", "1"]),
        ("scaling", ["--gamma-grid", "1e-3:1e-2:five"]),
        ("scaling", ["--gamma-grid", "true:1e-2:5"]),
        ("codeword", ["--label", "2"]),
        ("codeword", ["--label"]),
        ("codeword", ["--family"]),
        ("encode", ["--alpha", "0.6+"]),
        ("encode", ["--beta"]),
    ],
)
def test_config_values_are_validated(tmp_path, command, overrides):
    # values read from an argument file are refused as the same flags are
    with pytest.raises(SystemExit) as err:
        run([command, args_file(tmp_path, *overrides)])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command, key, text",
    [("scaling", "gamma_grid", "1e-3:1e-2:8"), ("syndrome", "pattern", "1,0")],
)
def test_config_string_is_parsed_as_its_flag(tmp_path, command, key, text):
    # a line is parsed as the flag parses its own text
    flag = "--" + key.replace("_", "-")
    from_file, from_flag = tmp_path / "file.json", tmp_path / "flag.json"
    values = args_file(tmp_path, f"{flag}={text}")
    assert run([command, values, "--w", "1", "--out", str(from_file)]) == 0
    assert run([command, "--w", "1", flag, text, "--out", str(from_flag)]) == 0
    assert from_file.read_bytes() == from_flag.read_bytes()


@pytest.mark.parametrize(
    "command, overrides, flags",
    [
        ("encode", ["--sampled", "--seed=7"], ["--sampled", "--seed", "7"]),
        ("encode", ["--alpha", "0.6", "--beta=0.8"], ["--alpha", "0.6", "--beta", "0.8"]),
        ("syndrome", ["--pattern=1,0", "--label", "1"], ["--pattern", "1,0", "--label", "1"]),
        ("codeword", ["--family", "qubit-shor", "--k=2", "--label", "01"],
         ["--family", "qubit-shor", "--k", "2", "--label", "01"]),
    ],
)
def test_config_values_of_their_flags_type_give_the_flags_report(
    tmp_path, command, overrides, flags
):
    from_file, from_flags = tmp_path / "file.json", tmp_path / "flags.json"
    assert run([command, args_file(tmp_path, *overrides), "--out", str(from_file)]) == 0
    assert run([command, *flags, "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("text", ["1e-3:inf:8", "inf:1e-2:8", "1e-3:-1e-2:8", "nan:1e-2:8"])
@pytest.mark.parametrize("from_file", [False, True])
def test_grid_ends_must_be_positive_and_finite(tmp_path, capsys, text, from_file):
    # refused before np.geomspace, which would warn and return NaN
    flags = ["--gamma-grid", text]
    argv = ["scaling", *([args_file(tmp_path, *flags)] if from_file else flags)]
    with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as err:
        warnings.simplefilter("always")
        run(argv)
    assert err.value.code == 2
    assert caught == []
    stderr = capsys.readouterr().err
    assert "Warning" not in stderr and "grid ends must be positive and finite" in stderr


def test_bad_config_string_names_the_key(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["scaling", args_file(tmp_path, "--gamma-grid", "1e-3:1e-2")])
    assert err.value.code == 2
    assert "argument --gamma-grid: expected lo:hi:n, got '1e-3:1e-2'" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_config_values_take_their_flags_type(tmp_path, fmt):
    values = args_file(tmp_path, "--family", "ext-bin", "--dt", "0.5", "1", "--w", "2")
    from_file, from_flags = tmp_path / "file.out", tmp_path / "flags.out"
    assert run(["cc", values, "--format", fmt, "--out", str(from_file)]) == 0
    assert run(["cc", "--family", "ext-bin", "--dt", "0.5", "1", "--w", "2",
                "--format", fmt, "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_config_file_supplies_a_required_flag(tmp_path):
    from_file, from_flags = tmp_path / "file.json", tmp_path / "flags.json"
    assert run(["budget", args_file(tmp_path, "--nc", "82"), "--out", str(from_file)]) == 0
    assert run(["budget", "--nc", "82", "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    with pytest.raises(SystemExit) as err:  # without the file it is still required
        run(["budget", "--out", str(from_flags)])
    assert err.value.code == 2


@pytest.mark.parametrize("flags", [["--nc", "10"], ["--nc=10"], ["--n", "10"], ["--n=10"]])
def test_required_flag_beats_config_in_every_spelling(tmp_path, flags):
    out = tmp_path / "r.json"
    assert run(["budget", args_file(tmp_path, "--nc=82"), *flags, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["nc"] == 10.0


@pytest.mark.parametrize("command, key, value", [("budget", "nc", "{}"), ("cc", "dt", "[0.5, {}]")])
def test_config_value_out_of_float_range_exits_2(tmp_path, command, key, value):
    # an integer too large for a float reads as inf, which the flag refuses
    values = value.format(10**400).strip("[]").split(", ")
    with pytest.raises(SystemExit) as err:
        run([command, args_file(tmp_path, "--" + key, *values)])
    assert err.value.code == 2


def test_argument_file_holds_the_whole_command_line(tmp_path):
    argv = ["cc", "--family", "ext-bin", "--dt", "0.5", "1"]
    from_file, from_flags = tmp_path / "file.json", tmp_path / "flags.json"
    assert run([args_file(tmp_path, *argv, "--out", str(from_file))]) == 0
    assert run([*argv, "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path: path.write_text(f"@{path}\n"), "argument files nest too deeply"),
        (lambda path: path.write_bytes(b"--nc\n\xff\n"), "cannot read argument file"),
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
    ],
    ids=["names-itself", "undecodable", "missing", "directory"],
)
def test_bad_argument_file_exits_2(tmp_path, capsys, make, message):
    path = tmp_path / "bad.args"
    make(path)
    with pytest.raises(SystemExit) as err:
        run(["budget", f"@{path}"])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_readme_command_lines_parse():
    # the README advertises no flag or value the parser refuses
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("bosonqec ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_cc_dt_builds_each_codeword_once(monkeypatch, tmp_path):
    # the bound on dt is the code's closed-form largest excitation, so
    # only the logical basis builds codewords: one per label
    builds = count_calls(monkeypatch, codes, "codeword")
    assert run(["cc", "--family", "ext-bin", "--w", "3", "--k", "3", "--dt", "0.5", "1e300",
                "--out", str(tmp_path / "cc.json")]) == 0
    assert sorted(label for _, label in builds) == CodeSpec("extended_binomial", 3, 3).labels


def test_cc_sweeps_every_duration_in_one_call(monkeypatch, tmp_path):
    # one overlap sweep over all codewords, not one scalar overlap per duration
    calls = count_calls(monkeypatch, channels, "cc_overlap")
    out = tmp_path / "cc.json"
    assert run(["cc", "--family", "ext-bin", "--w", "2", "--k", "2",
                "--num-random", "2000", "--out", str(out)]) == 0
    [(states, dts)] = calls
    assert len(states) == 4  # labels 00, 01, 10, 11
    assert len(dts) == 2000
    assert len(json.loads(out.read_text())["results"]["sweep"]) == 4 * 2000


def test_scaling_builds_each_index_once(monkeypatch, tmp_path):
    # one index per loss weight: weight w, shared by the KL fit and the
    # transpose recovery, and weight w+2 for the channel; one channel per
    # gamma, shared by both recoveries, and one decode of the channel's
    # patterns for the naive recovery at every gamma
    builds = count_calls(monkeypatch, damaged.DamagedIndex, "__init__")
    code_channels = count_calls(monkeypatch, syndrome, "code_channel")
    decodes = count_calls(monkeypatch, syndrome, "decode_patterns")
    out = tmp_path / "scaling.json"
    assert run(["scaling", "--family", "ext-bin", "--w", "1", "--k", "1",
                "--recovery", "both", "--out", str(out)]) == 0
    assert sorted(max_weight for _, _, max_weight in builds) == [1, 3]
    assert len(code_channels) == GRID_POINTS
    assert len(decodes) == 1


def test_verify_builds_one_index(monkeypatch, tmp_path):
    builds = count_calls(monkeypatch, damaged.DamagedIndex, "__init__")
    assert run(["verify", "--out", str(tmp_path / "verify.json")]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize("family, w, k", [("ext-bin", 1, 1), ("qubit-shor", 1, 2)])
def test_both_recoveries_match_single_recovery_runs(tmp_path, family, w, k):
    # composing both recoveries onto one channel changes no bit of either
    results = {}
    for recovery in ("both", "naive", "transpose"):
        out = tmp_path / f"{recovery}.json"
        run(["scaling", "--family", family, "--w", str(w), "--k", str(k),
             "--recovery", recovery, "--out", str(out)])
        results[recovery] = json.loads(out.read_text())["results"]
    for name in ("naive", "transpose"):
        column = f"infidelity_{name}"
        assert [p[column] for p in results["both"]["curve"]] == [
            p[column] for p in results[name]["curve"]
        ]
        assert [p["tail_bound"] for p in results["both"]["curve"]] == [
            p["tail_bound"] for p in results[name]["curve"]
        ]
        assert results["both"]["slopes"][name] == results[name]["slopes"][name]


def test_scaling_slopes_fit_own_curve(tmp_path):
    out = tmp_path / "scaling.json"
    run(["scaling", "--w", "1", "--k", "2", "--out", str(out)])
    results = json.loads(out.read_text())["results"]
    for name, slope in results["slopes"].items():
        points = [
            (p["gamma"], p[f"infidelity_{name}"])
            for p in results["curve"]
            if p[f"infidelity_{name}"] > 0.0
        ]
        assert len(points) == len(results["curve"])
        fitted, _ = np.polyfit(np.log([g for g, _ in points]), np.log([v for _, v in points]), 1)
        assert abs(fitted - slope) < 1e-12


@pytest.mark.parametrize(
    "family, w, k",
    [("one-mode-binomial", 2, 1), ("two-mode-binomial", 2, 1), ("qubit-shor", 1, 2),
     ("ext-bin", 2, 2), ("ce-ext-bin", 2, 1)],
)
def test_scaling_calls_no_lapack(monkeypatch, tmp_path, family, w, k):
    # the fits are closed form and every Gram block of a shipped family
    # is 1x1, so the report is the same with LAPACK's entry points gone
    argv = ["scaling", "--family", family, "--w", str(w), "--k", str(k), "--out"]
    want = run([*argv, str(tmp_path / "want.json")])

    def refuse(*args, **kwargs):
        raise AssertionError("scaling called LAPACK")

    for owner, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np.linalg, "eigh")):
        monkeypatch.setattr(owner, name, refuse)
    assert run([*argv, str(tmp_path / "got.json")]) == want
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("family, live", [("ce-ext-bin", 2536), ("qubit-shor", 15144)])
def test_largest_verify_configs_finish(tmp_path, family, live):
    # the largest KL matrices the CLI accepts: damaged supports are
    # disjoint, so only the damaged codewords' own norms are stored
    out = tmp_path / "verify.json"
    assert run(["verify", "--family", family, "--w", "3", "--k", "3", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["results"]["kl"]
    assert result["offdiag_max"] == result["cross_max"] == 0.0
    basis = logical_basis(CodeSpec(FAMILY_ALIASES[family], 3, 3))
    nonzero = sum(
        len(apply_loss_pattern(cw, a, result["gamma"])) > 0
        for a in enumerate_loss_patterns(basis.spec.num_modes, 3)
        for cw in basis.codewords.values()
    )
    assert nonzero == live
    assert len(kl_matrix(basis, result["gamma"]).entries) == nonzero


@pytest.mark.parametrize(
    "argv, table, header",
    [
        (["cc", "--family", "ext-bin", "--w", "2", "--k", "2", "--num-random", "20"],
         "sweep", "delta_t,label,overlap,expected"),
        (["cc", "--num-random", "0"], "sweep", "delta_t,label,overlap,expected"),
        (["syndrome", "--w", "2", "--k", "2"], "records", "pattern,label,outcomes,decoded,match"),
        (["syndrome", "--w", "2", "--k", "2", "--label", "01"],
         "records", "pattern,label,outcomes,decoded,match"),
        (["syndrome", "--w", "1", "--pattern", "99999999999999999999,0"],
         "records", "pattern,label,outcomes,decoded,match"),
        (["table1", "--max-w", "2", "--max-k", "2"], "rows", "family,w,k,label,mean_excitation"),
        (["scaling", "--w", "1", "--k", "1"],
         "curve", "gamma,diag_deviation,infidelity_naive,infidelity_transpose,tail_bound"),
        (["budget", "--nc", "82"], None, "n_c,w_one_mode,w_extended"),
    ],
)
def test_csv_rows_are_the_json_records(tmp_path, argv, table, header):
    # each CSV data line is the header's fields of the matching JSON record;
    # an empty table still has its header
    json_out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
    assert run([*argv, "--out", str(json_out)]) == run([*argv, "--format", "csv",
                                                         "--out", str(csv_out)])
    results = json.loads(json_out.read_text())["results"]
    records = [results] if table is None else results[table]
    lines = csv_out.read_text().splitlines()
    assert lines[0] == header
    columns = header.split(",")
    assert lines[1:] == [",".join(_csv_cell(record[c]) for c in columns) for record in records]


def test_json_report_is_written_in_bounded_memory(tmp_path):
    # the 2.2 MB report of the largest cc sweep is written as it is
    # encoded, never held as one string
    parser = build_parser()
    args = parser.parse_args(["cc", "--family", "ce-ext-bin", "--w", "3", "--k", "3",
                              "--num-random", "2000", "--seed", "0"])
    envelope, header, records = HANDLERS["cc"](args)
    out = tmp_path / "cc.json"
    tracemalloc.start()
    try:
        emit_report(envelope, header, records, "json", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sweep is a one-pass iterator, which the stdlib encoder cannot take
    reference = HANDLERS["cc"](args)[0]
    reference["results"]["sweep"] = list(reference["results"]["sweep"])
    assert out.read_text(encoding="utf-8") == json.dumps(reference, sort_keys=True, indent=2) + "\n"
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "fmt, durations, bound",
    [
        pytest.param(fmt, durations, bound, id=fmt + suffix)
        for durations, bound, suffix in [(2000, 0.75, ""), (MAX_DURATIONS, 3.0, "-cap")]
        for fmt in ("json", "csv")
    ],
)
def test_cc_rows_are_made_as_the_report_is_written(fmt, durations, bound):
    # 2,000 durations x 8 labels are 16,000 row dicts, 3.7 MB if held at
    # once, and the cap ten times as many; the handler and the writer
    # together hold the overlaps as doubles, one block's phase table and
    # one batch of rows
    parser = build_parser()
    argv = ["cc", "--family", "ext-bin", "--w", "3", "--k", "3", "--seed", "0", "--num-random"]
    # a first small run executes the modules the command loads
    emit_report(*HANDLERS["cc"](parser.parse_args([*argv, "5"])), fmt, os.devnull)
    tracemalloc.start()
    try:
        emit_report(*HANDLERS["cc"](parser.parse_args([*argv, str(durations)])), fmt, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 2**20


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_syndrome_rows_are_made_as_the_report_is_written(fmt, monkeypatch):
    # the rows are allocated on cli.py's lines: while the report is
    # written, what those lines hold stays below half of the 594 rows of
    # syndrome w3k3 held at once, for the writer reads 128 at a time
    args = build_parser().parse_args(["syndrome", "--w", "3", "--k", "3"])
    # a first run executes the modules the command loads
    emit_report(*HANDLERS["syndrome"](args), fmt, os.devnull)
    on_cli_lines = [tracemalloc.Filter(True, cli.__file__)]

    def held_by_cli() -> int:
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(on_cli_lines).traces)

    class Sink:
        def write(self, chunk):
            written.append(held_by_cli())

    written = []
    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        envelope, header, records = HANDLERS["syndrome"](args)
        emit_report(envelope, header, records, fmt, None)
        envelope, header, records = HANDLERS["syndrome"](args)
        table = list(records)
        held = held_by_cli()
    finally:
        tracemalloc.stop()
    assert len(table) == 594
    assert max(written) < held / 2
