"""Command-line interface and report emission.

Subcommands: table1, codeword, verify, scaling, syndrome, encode, cc,
budget.  Reports are emitted as JSON (sorted keys) or CSV; identical
configurations produce byte-identical files.  Exit codes: 0 all checks
passed, 1 check failure or IO error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import codes, kl, logical, syndrome
from .channels import apply_loss_pattern, enumerate_loss_patterns
from .fock import state_components, tensor, total_number_expectation

FAMILY_ALIASES = {
    "one-mode-binomial": "one_mode_binomial",
    "two-mode-binomial": "two_mode_binomial",
    "qubit-shor": "qubit_shor_ad",
    "ext-bin": "extended_binomial",
    "ce-ext-bin": "ce_extended_binomial",
}

EXACT_TOL = 1e-12
KL_ZERO_TOL = 1e-13


@dataclass(frozen=True)
class BudgetReport:
    n_c: float
    w_one_mode: int
    w_extended: int


def dispersive_budget(n_c: float) -> BudgetReport:
    """Largest correctable loss weights within a dispersive excitation bound.

    A one-mode binomial code with mean excitation (w+1)^2/2 must fit
    under n_c, giving floor(sqrt(2 n_c)) - 1; spreading excitation over
    many modes relaxes the bound to a total budget 2 n_c per mode pair,
    giving floor(2 n_c) - 1.
    """
    n_c = float(n_c)
    if not 0.0 < n_c < math.inf:
        raise ValueError("critical excitation number must be positive and finite")
    w_one = math.floor(math.sqrt(2.0 * n_c)) - 1
    w_ext = math.floor(2.0 * n_c) - 1
    return BudgetReport(n_c, max(0, w_one), max(0, w_ext))


def _canonical_family(name: str) -> str:
    name = FAMILY_ALIASES.get(name, name)
    if name not in codes.FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return name


# ---------------------------------------------------------------------------
# command handlers: each returns (envelope dict, csv header, csv rows)
# ---------------------------------------------------------------------------


def _table1_state(family: str, w: int, k: int, label: str):
    if family == "one_mode_binomial":
        state = codes.binomial_codeword(w, label[0], "one_mode")
        for ch in label[1:]:
            state = tensor(state, codes.binomial_codeword(w, ch, "one_mode"))
        return state
    return codes.codeword(codes.CodeSpec(family, w, k), label)


def cmd_table1(cfg):
    families = ("one_mode_binomial", "qubit_shor_ad", "extended_binomial")
    rows = []
    ok = True
    for w in range(1, cfg.max_w + 1):
        for k in range(1, cfg.max_k + 1):
            for family in families:
                if family == "one_mode_binomial":  # K independent one-qubit codes
                    expected = k * codes.mean_excitation(codes.CodeSpec(family, w))
                else:
                    expected = codes.mean_excitation(codes.CodeSpec(family, w, k))
                for bits in ("".join(b) for b in product("01", repeat=k)):
                    mean = total_number_expectation(_table1_state(family, w, k, bits))
                    ok = ok and abs(mean - expected) <= EXACT_TOL
                    rows.append([family, w, k, bits, mean])
    envelope = {
        "command": "table1",
        "params": {"max_w": cfg.max_w, "max_k": cfg.max_k},
        "results": {
            "rows": [
                {"family": f, "w": w, "k": k, "label": lab, "mean_excitation": m}
                for f, w, k, lab, m in rows
            ]
        },
        "tolerances": {"mean_excitation": EXACT_TOL},
        "pass": ok,
    }
    return envelope, ["family", "w", "k", "label", "mean_excitation"], rows


def cmd_codeword(cfg):
    family = _canonical_family(cfg.family)
    state = codes.codeword(codes.CodeSpec(family, cfg.w, cfg.k), cfg.label)
    envelope = {
        "command": "codeword",
        "params": {"family": family, "w": cfg.w, "k": cfg.k, "label": cfg.label},
        "results": {
            "family": family,
            "w": cfg.w,
            "k": cfg.k,
            "label": cfg.label,
            "components": state_components(state),
            "mean_excitation": total_number_expectation(state),
        },
        "tolerances": {},
        "pass": True,
    }
    rows = [
        [";".join(str(n) for n in c["occupation"]), c["re"], c["im"]]
        for c in state_components(state)
    ]
    return envelope, ["occupation", "re", "im"], rows


def cmd_verify(cfg):
    family = _canonical_family(cfg.family)
    spec = codes.CodeSpec(family, cfg.w, cfg.k)
    basis = codes.logical_basis(spec)
    results = {"gram_deviation": basis.gram_deviation()}
    checks = {"orthonormality": results["gram_deviation"] <= EXACT_TOL}

    report = kl.kl_matrix(basis, cfg.gamma)
    results["kl"] = {
        "gamma": cfg.gamma,
        "offdiag_max": report.offdiag_max,
        "cross_max": report.cross_max,
        "diag_deviation": report.diag_deviation,
        "hermiticity": kl.hermiticity_deviation(report),
    }
    checks["kl_offdiag"] = report.offdiag_max < KL_ZERO_TOL
    checks["kl_cross"] = report.cross_max < KL_ZERO_TOL
    checks["kl_hermiticity"] = results["kl"]["hermiticity"] <= EXACT_TOL

    if family == "extended_binomial":
        algebra = logical.verify_logical_algebra(spec, basis=basis)
        results["logical"] = dict(sorted(algebra.checks.items()))
        checks["logical_algebra"] = algebra.passed
        sweep = decoder_sweep(spec, basis)
        results["decoder"] = sweep
        checks["decoder"] = sweep["all_match"]

    envelope = {
        "command": "verify",
        "params": {"family": family, "w": cfg.w, "k": cfg.k, "gamma": cfg.gamma},
        "results": results,
        "tolerances": {"exact": EXACT_TOL, "kl_zero": KL_ZERO_TOL},
        "pass": all(checks.values()),
    }
    rows = [[name, str(passed)] for name, passed in sorted(checks.items())]
    return envelope, ["check", "passed"], rows


def _diagnose_damaged(basis: codes.LogicalBasis, patterns, labels):
    """Yield (pattern, label, record) for each damaged codeword A_a|label>.

    Loss patterns that annihilate a codeword (possible once a pattern
    touches data modes whose label bits disagree) occur with probability
    zero; they yield ``None`` in place of the syndrome record.
    """
    for a in patterns:
        for label in labels:
            damaged = apply_loss_pattern(basis.codewords[label], a, 0.5)
            if damaged.norm_squared() == 0.0:
                yield a, label, None
            else:
                yield a, label, syndrome.diagnose(damaged.normalized(), basis.spec)


def decoder_sweep(spec: codes.CodeSpec, basis: codes.LogicalBasis | None = None) -> dict:
    """Exhaustive syndrome/decode sweep over patterns of weight <= w."""
    if basis is None:
        basis = codes.logical_basis(spec)
    total = 0
    matched = 0
    skipped = 0
    patterns = enumerate_loss_patterns(spec.num_modes, spec.w)
    for a, _, record in _diagnose_damaged(basis, patterns, spec.labels):
        if record is None:
            skipped += 1
            continue
        total += 1
        if record.decoded == a:
            matched += 1
    return {
        "patterns_tested": total,
        "matched": matched,
        "zero_branches_skipped": skipped,
        "all_match": matched == total,
    }


def cmd_scaling(cfg):
    family = _canonical_family(cfg.family)
    spec = codes.CodeSpec(family, cfg.w, cfg.k)
    basis = codes.logical_basis(spec)
    grid = cfg.gamma_grid
    recoveries = ("naive", "transpose") if cfg.recovery == "both" else (cfg.recovery,)
    fit = kl.fit_residual_scaling(basis, grid)
    curve = []
    recovery_rows = {name: [] for name in recoveries}
    for g, r in zip(fit.gamma_grid, fit.residuals):
        point = {"gamma": g, "diag_deviation": r}
        for name in recoveries:
            row = syndrome.recovery_infidelity(basis, g, name)
            recovery_rows[name].append(row)
            point[f"infidelity_{name}"] = row["infidelity"]
            point["tail_bound"] = row["tail"]
        curve.append(point)
    order = spec.w + 1
    slopes = {name: syndrome.infidelity_slope(recovery_rows[name]) for name in recoveries}
    checks = {"kl_slope": fit.valid and fit.slope >= order - 0.15}
    if "transpose" in slopes:
        checks["transpose_slope"] = abs(slopes["transpose"] - order) <= 0.2
    if "naive" in slopes:
        checks["naive_slope"] = slopes["naive"] >= 1.0
    envelope = {
        "command": "scaling",
        "params": {
            "family": family,
            "w": cfg.w,
            "k": cfg.k,
            "gamma_grid": list(grid),
            "recovery": cfg.recovery,
        },
        "results": {
            "kl_slope": fit.slope,
            "kl_intercept": fit.intercept,
            "kl_points_used": fit.n_used,
            "slopes": {name: slopes[name] for name in sorted(slopes)},
            "curve": curve,
        },
        "tolerances": {
            "kl_slope_min": order - 0.15,
            "transpose_slope_band": 0.2,
            "naive_slope_min": 1.0,
        },
        "pass": all(checks.values()),
    }
    header = ["gamma", "diag_deviation"]
    header += [f"infidelity_{name}" for name in recoveries]
    header += ["tail_bound"]
    rows = [[point[column] for column in header] for point in curve]
    return envelope, header, rows


def cmd_syndrome(cfg):
    family = _canonical_family(cfg.family)
    spec = codes.CodeSpec(family, cfg.w, cfg.k)
    basis = codes.logical_basis(spec)
    if cfg.pattern is not None:
        patterns = [cfg.pattern]
    else:
        patterns = enumerate_loss_patterns(spec.num_modes, spec.w)
    labels = [cfg.label] if cfg.label is not None else spec.labels
    rows = []
    ok = True
    for a, label, record in _diagnose_damaged(basis, patterns, labels):
        if record is None:
            continue
        match = record.decoded == tuple(a)
        ok = ok and match
        rows.append(
            [
                ";".join(str(x) for x in a),
                label,
                ";".join(str(o) for o in record.outcomes),
                ";".join(str(x) for x in record.decoded) if record.decoded else "",
                str(match),
            ]
        )
    envelope = {
        "command": "syndrome",
        "params": {"family": family, "w": cfg.w, "k": cfg.k},
        "results": {
            "records": [
                {
                    "pattern": pattern,
                    "label": label,
                    "outcomes": outcomes,
                    "decoded": decoded,
                    "match": match == "True",
                }
                for pattern, label, outcomes, decoded, match in rows
            ]
        },
        "tolerances": {},
        "pass": ok,
    }
    return envelope, ["pattern", "label", "outcomes", "decoded", "match"], rows


def _input_amplitudes(alpha, beta) -> tuple[complex, complex]:
    """Normalized (alpha, beta) of the qubit to encode."""
    alpha, beta = complex(alpha), complex(beta)
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if not 0.0 < norm < math.inf:
        raise ValueError("alpha and beta must be finite and not both zero")
    return alpha / norm, beta / norm


def cmd_encode(cfg):
    spec = codes.CodeSpec("extended_binomial", cfg.w, 1)
    alpha, beta = _input_amplitudes(cfg.alpha, cfg.beta)
    selector = "sampled" if cfg.sampled else "enumerate_all"
    traces = logical.run_encoding_protocol(alpha, beta, spec, selector, cfg.seed)
    ok = all(abs(t.fidelity_to_target - 1.0) <= EXACT_TOL for t in traces)
    if selector == "enumerate_all":
        ok = ok and all(abs(t.probability - 0.25) <= EXACT_TOL for t in traces)
    rows = [
        [t.outcomes[0], t.outcomes[1], t.probability, t.fidelity_to_target]
        for t in traces
    ]
    envelope = {
        "command": "encode",
        "params": {
            "w": cfg.w,
            "alpha": [alpha.real, alpha.imag],
            "beta": [beta.real, beta.imag],
            "selector": selector,
            "seed": cfg.seed,
        },
        "results": {
            "traces": [
                {
                    "outcome_z": t.outcomes[0],
                    "outcome_x": t.outcomes[1],
                    "probability": t.probability,
                    "fidelity_to_target": t.fidelity_to_target,
                    "final_state": state_components(t.final_state),
                }
                for t in traces
            ]
        },
        "tolerances": {"fidelity": EXACT_TOL, "branch_probability": EXACT_TOL},
        "pass": ok,
    }
    return envelope, ["outcome_z", "outcome_x", "probability", "fidelity"], rows


def cmd_cc(cfg):
    family = _canonical_family(cfg.family)
    spec = codes.CodeSpec(family, cfg.w, cfg.k)
    basis = codes.logical_basis(spec)
    if cfg.dt:
        dts = list(cfg.dt)
    else:
        rng = np.random.default_rng(cfg.seed)
        dts = sorted(float(x) for x in rng.uniform(0.0, 10.0, cfg.num_random))
    rows = []
    ok = True
    for dt in dts:
        for label in spec.labels:
            overlap = syndrome.cc_overlap(basis.codewords[label], dt)
            if family == "ce_extended_binomial":
                expected = 1.0
            elif family == "extended_binomial" and spec.w == 1 and spec.k == 1:
                # label 0 superposes excitations 0 and 4; label 1 sits at
                # constant excitation 2 and only picks up a global phase
                if label == "0":
                    expected = abs(1.0 + complex(math.cos(4 * dt), -math.sin(4 * dt))) / 2.0
                else:
                    expected = 1.0
            else:
                expected = float("nan")
            match = math.isnan(expected) or abs(overlap - expected) <= EXACT_TOL
            ok = ok and match
            rows.append([dt, label, overlap, expected])
    envelope = {
        "command": "cc",
        "params": {"family": family, "w": cfg.w, "k": cfg.k, "seed": cfg.seed},
        "results": {
            "sweep": [
                {"delta_t": dt, "label": lab, "overlap": ov, "expected": exp}
                for dt, lab, ov, exp in rows
            ]
        },
        "tolerances": {"overlap": EXACT_TOL},
        "pass": ok,
    }
    return envelope, ["delta_t", "label", "overlap", "expected"], rows


def cmd_budget(cfg):
    report = dispersive_budget(cfg.nc)
    envelope = {
        "command": "budget",
        "params": {"nc": report.n_c},
        "results": {
            "n_c": report.n_c,
            "w_one_mode": report.w_one_mode,
            "w_extended": report.w_extended,
        },
        "tolerances": {},
        "pass": True,
    }
    rows = [[report.n_c, report.w_one_mode, report.w_extended]]
    return envelope, ["n_c", "w_one_mode", "w_extended"], rows


HANDLERS = {
    "table1": cmd_table1,
    "codeword": cmd_codeword,
    "verify": cmd_verify,
    "scaling": cmd_scaling,
    "syndrome": cmd_syndrome,
    "encode": cmd_encode,
    "cc": cmd_cc,
    "budget": cmd_budget,
}


# ---------------------------------------------------------------------------
# rendering / dispatch
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(envelope) -> str:
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def emit_report(envelope, header, rows, fmt: str, out: str | None) -> None:
    text = render_json(envelope) if fmt == "json" else render_csv(header, rows)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_gamma_grid(raw: str) -> tuple[float, ...]:
    try:
        lo, hi, n = raw.split(":")
        return tuple(float(g) for g in np.geomspace(float(lo), float(hi), int(n)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi:n, got {raw!r}") from exc


def _parse_pattern(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonqec",
        description="Bosonic extended-binomial code workbench",
    )
    parser.add_argument("--config", help="JSON file with default parameter values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family_default="ext-bin"):
        p.add_argument("--family", default=family_default)
        p.add_argument("--w", type=int, default=1)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=1234)

    p = sub.add_parser("table1", help="mean-excitation comparison table")
    p.add_argument("--max-w", type=int, default=1)
    p.add_argument("--max-k", type=int, default=2)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("codeword", help="emit one codeword")
    common(p)
    p.add_argument("--label", default="0")

    p = sub.add_parser("verify", help="orthonormality + KL + logical + decoder checks")
    common(p)
    p.add_argument("--gamma", type=float, default=0.01)

    p = sub.add_parser("scaling", help="residual and infidelity slopes")
    common(p)
    p.add_argument(
        "--gamma-grid",
        dest="gamma_grid",
        type=_parse_gamma_grid,
        default=kl.default_gamma_grid(),
    )
    p.add_argument("--recovery", choices=("naive", "transpose", "both"), default="both")

    p = sub.add_parser("syndrome", help="syndrome extraction and lookup decoding")
    common(p)
    p.add_argument("--pattern", type=_parse_pattern, default=None)
    p.add_argument("--label", default=None)

    p = sub.add_parser("encode", help="measurement-based encoding protocol traces")
    common(p)
    p.add_argument("--alpha", default="0.7071067811865476")
    p.add_argument("--beta", default="0.7071067811865476")
    p.add_argument("--sampled", action="store_true")

    p = sub.add_parser("cc", help="collective-coherent invariance sweep")
    common(p, family_default="ce-ext-bin")
    p.add_argument("--dt", type=float, nargs="*", default=None)
    p.add_argument("--num-random", type=int, default=100)

    p = sub.add_parser("budget", help="dispersive excitation budget")
    p.add_argument("--nc", type=float, required=True)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    return parser


def _apply_config_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str]
) -> None:
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    flag_by_dest = {"fmt": "--format"}
    for key, value in overrides.items():
        if key == "config" or not hasattr(args, key):
            continue
        flag = flag_by_dest.get(key, "--" + key.replace("_", "-"))
        if flag in argv:
            continue  # explicit command-line flags win
        if key in ("pattern", "gamma_grid") and isinstance(value, list):
            value = tuple(value)
        setattr(args, key, value)


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Refuse, with exit status 2, every input a handler cannot run."""
    try:
        if hasattr(args, "w") and not 1 <= args.w <= 3:
            raise ValueError("w must lie in [1, 3] for the bundled suites")
        if hasattr(args, "k") and not 1 <= args.k <= 3:
            raise ValueError("k must lie in [1, 3] for the bundled suites")
        if hasattr(args, "max_w") and not (1 <= args.max_w <= 3 and 1 <= args.max_k <= 3):
            raise ValueError("max-w and max-k must lie in [1, 3]")
        if hasattr(args, "gamma") and not 0.0 < args.gamma <= 0.05:
            raise ValueError("gamma must lie in (0, 0.05]")
        if hasattr(args, "family"):
            spec = codes.CodeSpec(_canonical_family(args.family), args.w, args.k)
        if getattr(args, "label", None) is not None:
            codes._check_label(args.label, spec.k)
        if args.command == "syndrome":
            syndrome.syndrome_observables(spec)
            if args.pattern is not None and (
                len(args.pattern) != spec.num_modes or min(args.pattern) < 0
            ):
                raise ValueError(f"pattern must be {spec.num_modes} nonnegative losses")
        elif args.command == "scaling":
            kl.validate_gamma_grid(args.gamma_grid)
        elif args.command == "cc" and args.num_random < 0:
            raise ValueError("num-random must be nonnegative")
        elif args.command == "budget":
            dispersive_budget(args.nc)
        elif args.command == "encode":
            _input_amplitudes(args.alpha, args.beta)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))


def cmd_dispatch(args: argparse.Namespace) -> int:
    envelope, header, rows = HANDLERS[args.command](args)
    try:
        emit_report(envelope, header, rows, getattr(args, "fmt", "json"), args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0 if envelope["pass"] else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config_file(args, parser, list(argv))
    _validate(args, parser)
    return cmd_dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
