import json

import numpy as np
import pytest

from bosonqec.cli import dispersive_budget, main


def run(argv):
    return main(argv)


def test_budget_values():
    report = dispersive_budget(82)
    assert (report.w_one_mode, report.w_extended) == (11, 163)
    assert dispersive_budget(0.5).w_one_mode == 0
    assert dispersive_budget(0.5).w_extended == 0
    assert (dispersive_budget(2).w_one_mode, dispersive_budget(2).w_extended) == (1, 3)
    with pytest.raises(ValueError):
        dispersive_budget(0.0)


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


def test_scaling_command(tmp_path):
    out = tmp_path / "scaling.json"
    assert run(["scaling", "--w", "1", "--k", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["results"]["kl_slope"] - 2.0) <= 0.05
    assert abs(data["results"]["slopes"]["transpose"] - 2.0) <= 0.2
    assert data["results"]["slopes"]["naive"] >= 1.0
    assert data["results"]["curve"][0]["gamma"] > 0


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
        ["encode", "--alpha", "0", "--beta", "0"],
        ["encode", "--alpha", "x"],
        ["encode", "--alpha", "nan"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2


def test_io_failure_exits_1(tmp_path):
    assert run(["budget", "--nc", "82", "--out", str(tmp_path / "nodir" / "x.json")]) == 1


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"w": 2, "gamma": 0.005}))
    out = tmp_path / "r.json"
    # --w on the command line beats the config file; gamma comes from it
    assert run(["--config", str(cfg), "verify", "--family", "ext-bin",
                "--w", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["params"]["w"] == 1
    assert data["params"]["gamma"] == 0.005


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("codeword", {"family": "one-mode-binomial", "k": 2}),
        ("verify", {"w": "2"}),
        ("scaling", {"gamma_grid": [1e-3, 1e-2, 2e-2]}),
        ("syndrome", {"pattern": [1, 0, 0]}),
    ],
)
def test_config_values_are_validated(tmp_path, command, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    with pytest.raises(SystemExit) as err:
        run(["--config", str(cfg), command])
    assert err.value.code == 2


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
