"""Command-line interface and report emission.

Subcommands: table1, codeword, verify, scaling, syndrome, encode, cc,
budget.  Reports are emitted as JSON (sorted keys) or CSV; identical
configurations produce byte-identical files.  Exit codes: 0 all checks
passed, 1 check failure or IO error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from itertools import chain, product

# only modules are bound here, each executed when a command first uses it
from . import channels, codes, damaged, fock, kl, logical, report, rng, syndrome

FAMILY_ALIASES = {
    "one-mode-binomial": "one_mode_binomial",
    "two-mode-binomial": "two_mode_binomial",
    "qubit-shor": "qubit_shor_ad",
    "ext-bin": "extended_binomial",
    "ce-ext-bin": "ce_extended_binomial",
}

EXACT_TOL = 1e-12
KL_ZERO_TOL = 1e-13

# The largest sweeps taken.  On a 2-vCPU VM the largest runs at these caps,
# `scaling --family qubit-shor --w 3 --k 3` over 256 gammas and `cc --family
# ce-ext-bin|ext-bin --w 3 --k 3` over 20,000 durations (160,000 records,
# made as the report is written), take 98 s and 189 MB, and 1.0-1.4 s and
# 18 MB.
MAX_GRID_POINTS = 256
MAX_DURATIONS = 20_000

GRID_LO, GRID_HI, GRID_POINTS = 1e-3, 1e-2, 8  # the default gamma grid of scaling


SUITE = (1, 2, 3)  # the w, k, max-w and max-k the bundled suites take


def dispersive_budget(n_c: float) -> dict:
    """Largest correctable loss weights within a dispersive excitation bound.

    A one-mode binomial code with mean excitation (w+1)^2/2 must fit
    under n_c, giving floor(sqrt(2 n_c)) - 1; spreading excitation over
    many modes relaxes the bound to a total budget 2 n_c per mode pair,
    giving floor(2 n_c) - 1.  Returns the ``budget`` report's results:
    ``n_c``, ``w_one_mode`` and ``w_extended``, in its CSV column order.
    """
    n_c = float(n_c)
    if not 0.0 < 2.0 * n_c < math.inf:
        raise ValueError("critical excitation number must be positive, and twice it finite")
    w_one = math.floor(math.sqrt(2.0 * n_c)) - 1
    w_ext = math.floor(2.0 * n_c) - 1
    return {"n_c": n_c, "w_one_mode": max(0, w_one), "w_extended": max(0, w_ext)}


def _spec(cfg) -> codes.CodeSpec:
    return codes.CodeSpec(FAMILY_ALIASES.get(cfg.family, cfg.family), cfg.w, cfg.k)


# ---------------------------------------------------------------------------
# command handlers: each returns (envelope dict, csv header, records), where
# each CSV row is read off one record by the header's column names; records,
# and the envelope's table they also are, may be a one-pass iterator, which
# emit_report reads once, for either format
# ---------------------------------------------------------------------------


def _table1_state(family: str, w: int, k: int, label: str):
    if family == "one_mode_binomial":
        single = codes.CodeSpec(family, w)
        state = codes.codeword(single, label[0])
        for bit in label[1:]:
            state = fock.tensor(state, codes.codeword(single, bit))
        return state
    return codes.codeword(codes.CodeSpec(family, w, k), label)


def cmd_table1(cfg):
    families = ("one_mode_binomial", "qubit_shor_ad", "extended_binomial")
    header = ["family", "w", "k", "label", "mean_excitation"]
    records = []
    ok = True
    for w in range(1, cfg.max_w + 1):
        for k in range(1, cfg.max_k + 1):
            for family in families:
                if family == "one_mode_binomial":  # K independent one-qubit codes
                    expected = k * codes.mean_excitation(codes.CodeSpec(family, w))
                else:
                    expected = codes.mean_excitation(codes.CodeSpec(family, w, k))
                for bits in ("".join(b) for b in product("01", repeat=k)):
                    mean = fock.total_number_expectation(_table1_state(family, w, k, bits))
                    ok = ok and abs(mean - expected) <= EXACT_TOL
                    records.append(dict(zip(header, (family, w, k, bits, mean))))
    envelope = {
        "command": "table1",
        "params": {"max_w": cfg.max_w, "max_k": cfg.max_k},
        "results": {"rows": records},
        "tolerances": {"mean_excitation": EXACT_TOL},
        "pass": ok,
    }
    return envelope, header, records


def cmd_codeword(cfg):
    spec = _spec(cfg)
    label = cfg.label or "0" * cfg.k
    state = codes.codeword(spec, label)
    components = fock.state_components(state)
    envelope = {
        "command": "codeword",
        "params": {"family": spec.family, "w": cfg.w, "k": cfg.k, "label": label},
        "results": {
            "family": spec.family,
            "w": cfg.w,
            "k": cfg.k,
            "label": label,
            "components": components,
            "mean_excitation": fock.total_number_expectation(state),
        },
        "tolerances": {},
        "pass": True,
    }
    records = [{**c, "occupation": ";".join(map(str, c["occupation"]))} for c in components]
    return envelope, ["occupation", "re", "im"], records


def cmd_verify(cfg):
    spec = _spec(cfg)
    basis = codes.logical_basis(spec)
    results = {"gram_deviation": basis.gram_deviation()}
    checks = {"orthonormality": results["gram_deviation"] <= EXACT_TOL}
    if spec.family == "extended_binomial":
        # pure Python, so run first: compiling kl and logical reuses the memory
        # its lists free, which run later would add to the peak RSS
        results["decoder"] = decoder_sweep(basis)
        checks["decoder"] = results["decoder"]["all_match"]

    kl_report = kl.kl_matrix(basis, cfg.gamma)
    results["kl"] = {
        "gamma": cfg.gamma,
        "offdiag_max": kl_report.offdiag_max,
        "cross_max": kl_report.cross_max,
        "diag_deviation": kl_report.diag_deviation,
        "hermiticity": kl.hermiticity_deviation(kl_report),
    }
    checks["kl_offdiag"] = kl_report.offdiag_max < KL_ZERO_TOL
    checks["kl_cross"] = kl_report.cross_max < KL_ZERO_TOL
    checks["kl_hermiticity"] = results["kl"]["hermiticity"] <= EXACT_TOL

    if spec.family == "extended_binomial":
        results["logical"] = logical.verify_logical_algebra(basis)
        checks["logical_algebra"] = all(v <= EXACT_TOL for v in results["logical"].values())

    envelope = {
        "command": "verify",
        "params": {"family": spec.family, "w": cfg.w, "k": cfg.k, "gamma": cfg.gamma},
        "results": results,
        "tolerances": {"exact": EXACT_TOL, "kl_zero": KL_ZERO_TOL},
        "pass": all(checks.values()),
    }
    header = ["check", "passed"]
    return envelope, header, [dict(zip(header, check)) for check in sorted(checks.items())]


def decoder_sweep(basis: codes.LogicalBasis) -> dict:
    """Exhaustive syndrome/decode sweep over patterns of weight <= w."""
    spec = basis.spec
    patterns = channels.enumerate_loss_patterns(spec.num_modes, spec.w)
    row, *_, match = syndrome.diagnose(basis, patterns)
    return {
        "patterns_tested": len(row),
        "matched": sum(match),
        "zero_branches_skipped": len(patterns) * len(spec.labels) - len(row),
        "all_match": all(match),
    }


def cmd_scaling(cfg):
    spec = _spec(cfg)
    basis = codes.logical_basis(spec)
    # both recoveries always run; --recovery picks the reported columns
    recoveries = ("naive", "transpose") if cfg.recovery == "both" else (cfg.recovery,)
    index = damaged.DamagedIndex(basis, cfg.w)
    fit = kl.fit_residual_scaling(index, cfg.gamma_grid)
    recovery_rows = syndrome.recovery_infidelity(basis, index, fit.gamma_grid)
    curve = [
        {
            "gamma": g,
            "diag_deviation": r,
            **{f"infidelity_{name}": recovery_rows[name][x]["infidelity"] for name in recoveries},
            "tail_bound": recovery_rows[recoveries[0]][x]["tail"],
        }
        for x, (g, r) in enumerate(zip(fit.gamma_grid, fit.values))
    ]
    order = spec.w + 1
    tolerances = {"kl_slope_min": order - 0.15, "transpose_slope_band": 0.2, "naive_slope_min": 1.0}
    slopes = {
        name: kl.fit_order(fit.gamma_grid, [row["infidelity"] for row in recovery_rows[name]]).slope
        for name in recoveries
    }
    # a NaN slope (fewer than two points to fit) fails its gate
    checks = {"kl_slope": fit.slope >= tolerances["kl_slope_min"]}
    if "transpose" in slopes:
        checks["transpose_slope"] = (
            abs(slopes["transpose"] - order) <= tolerances["transpose_slope_band"]
        )
    if "naive" in slopes:
        checks["naive_slope"] = slopes["naive"] >= tolerances["naive_slope_min"]
    envelope = {
        "command": "scaling",
        "params": {
            "family": spec.family,
            "w": cfg.w,
            "k": cfg.k,
            "gamma_grid": list(fit.gamma_grid),
            "recovery": cfg.recovery,
        },
        "results": {
            "kl_slope": fit.slope,
            "kl_intercept": fit.intercept,
            "kl_points_used": fit.n_used,
            "slopes": slopes,
            "curve": curve,
        },
        "tolerances": tolerances,
        "pass": all(checks.values()),
    }
    return envelope, list(curve[0]), curve  # the grid has at least 5 points


def cmd_syndrome(cfg):
    spec = _spec(cfg)
    basis = codes.logical_basis(spec)
    if cfg.pattern is not None:
        patterns = [cfg.pattern]
    else:
        patterns = channels.enumerate_loss_patterns(spec.num_modes, spec.w)
    labels, join = spec.labels, lambda xs: ";".join(map(str, xs))
    header = ["pattern", "label", "outcomes", "decoded", "match"]
    columns = syndrome.diagnose(basis, patterns)

    def wanted(r: int) -> bool:
        return cfg.label in (None, labels[r % len(labels)])

    # the rows are made as the report is written, one batch at a time
    records = (
        dict(zip(header, (
            join(patterns[r // len(labels)]), labels[r % len(labels)],
            join(o), "" if bad else join(x), match,
        )))
        for r, o, x, bad, match in zip(*columns)
        if wanted(r)
    )
    envelope = {
        "command": "syndrome",
        "params": {"family": spec.family, "w": cfg.w, "k": cfg.k},
        "results": {"records": records},
        "tolerances": {},
        "pass": all(match for r, match in zip(columns[0], columns[4]) if wanted(r)),
    }
    return envelope, header, records


def _input_amplitudes(alpha, beta) -> tuple[complex, complex]:
    """Normalized (alpha, beta) of the qubit to encode, from any finite
    pair that is not both zero."""
    alpha, beta = complex(alpha), complex(beta)
    parts = (alpha.real, alpha.imag, beta.real, beta.imag)
    if not all(map(math.isfinite, parts)) or not any(parts):
        raise ValueError("alpha and beta must be finite and not both zero")
    if max(map(abs, parts)) > 2.0**1020:  # |alpha| or the norm could overflow
        alpha, beta = alpha / 4, beta / 4  # exact, and the same normalized pair
    norm = math.hypot(abs(alpha), abs(beta))
    return alpha / norm, beta / norm


def cmd_encode(cfg):
    spec = codes.CodeSpec("extended_binomial", cfg.w, 1)
    alpha, beta = _input_amplitudes(cfg.alpha, cfg.beta)
    selector = "sampled" if cfg.sampled else "enumerate_all"
    traces = logical.run_encoding_protocol(alpha, beta, spec, cfg.seed if cfg.sampled else None)
    ok = all(abs(t.fidelity_to_target - 1.0) <= EXACT_TOL for t in traces)
    if selector == "enumerate_all":
        ok = ok and all(abs(t.probability - 0.25) <= EXACT_TOL for t in traces)
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
                    "final_state": fock.state_components(t.final_state),
                }
                for t in traces
            ]
        },
        "tolerances": {"fidelity": EXACT_TOL, "branch_probability": EXACT_TOL},
        "pass": ok,
    }
    header = ["outcome_z", "outcome_x", "probability", "fidelity"]
    records = [
        dict(zip(header, (*t.outcomes, t.probability, t.fidelity_to_target))) for t in traces
    ]
    return envelope, header, records


def cmd_cc(cfg):
    spec = _spec(cfg)
    basis = codes.logical_basis(spec)
    if cfg.dt is not None:
        dts = list(cfg.dt)
    else:
        dts = sorted(rng.Generator(cfg.seed).uniform(0.0, 10.0, cfg.num_random))
    labels = spec.labels
    columns = channels.cc_overlap([basis.codewords[label] for label in labels], dts)

    def expected(label: str, dt: float) -> float:
        if spec.family == "ce_extended_binomial":
            return 1.0
        if spec.family != "extended_binomial" or (spec.w, spec.k) != (1, 1):
            return float("nan")
        # label 0 superposes excitations 0 and 4; label 1 sits at
        # constant excitation 2 and only picks up a global phase
        return abs(1.0 + channels.cc_phase(4, dt)) / 2.0 if label == "0" else 1.0

    ok = all(
        math.isnan(target := expected(label, dt)) or abs(overlap - target) <= EXACT_TOL
        for label, column in zip(labels, columns)
        for dt, overlap in zip(dts, column)
    )
    # the rows are made as the report is written, one batch at a time
    sweep = (
        {"delta_t": dt, "label": label, "overlap": column[x], "expected": expected(label, dt)}
        for x, dt in enumerate(dts)
        for label, column in zip(labels, columns)
    )
    envelope = {
        "command": "cc",
        "params": {"family": spec.family, "w": cfg.w, "k": cfg.k, "seed": cfg.seed},
        "results": {"sweep": sweep},
        "tolerances": {"overlap": EXACT_TOL},
        "pass": ok,
    }
    return envelope, ["delta_t", "label", "overlap", "expected"], sweep


def cmd_budget(cfg):
    results = dispersive_budget(cfg.nc)
    envelope = {
        "command": "budget",
        "params": {"nc": results["n_c"]},
        "results": results,
        "tolerances": {},
        "pass": True,
    }
    return envelope, list(results), [results]


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


def emit_report(envelope, header, records, fmt: str, out: str | None) -> None:
    """Write the report to ``out``, or to stdout if ``out`` is None, each
    chunk as it is encoded, so the full text is never held at once: JSON
    from ``report.render_json``, whose tables come in batches of at most
    ``report.TABLE_BATCH`` rows, or CSV from ``report.render_csv``."""
    if fmt == "json":
        chunks = chain(report.render_json(envelope), ["\n"])
    else:
        chunks = report.render_csv(header, records)
    sink = nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="")
    with sink as fh:
        for chunk in chunks:
            fh.write(chunk)


def _geometric_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n points from lo to hi, evenly spaced in log10, as numpy's
    ``geomspace(lo, hi, n)`` computes them: 10 ** (i * step + log10(lo)),
    both ends set exactly.  The logarithms of the ends are correctly
    rounded, which numpy's are where its ``log10`` is."""
    from decimal import Decimal  # here, so that only a grid's parse loads it

    start, stop = (float(Decimal(end).log10()) for end in (lo, hi))
    step = (stop - start) / (n - 1) if n > 1 else 0.0
    grid = [10.0 ** (i * step + start) for i in range(n)]
    if n:
        grid[0] = lo
    if n > 1:
        grid[-1] = hi
    return tuple(grid)


def _parse_gamma_grid(raw: str) -> tuple[float, ...]:
    try:
        lo, hi, n = raw.split(":")
        if not 0 <= int(n) <= MAX_GRID_POINTS:  # refused before the grid is allocated
            raise argparse.ArgumentTypeError(
                f"the number of grid points must lie in [0, {MAX_GRID_POINTS}], got {raw!r}"
            )
        ends = float(lo), float(hi)
        if not all(0.0 < end < math.inf for end in ends):
            raise argparse.ArgumentTypeError(f"grid ends must be positive and finite, got {raw!r}")
        return _geometric_grid(*ends, int(n))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi:n, got {raw!r}") from exc


def _parse_pattern(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    """The parser; an argument ``@path`` stands for the arguments in the
    file ``path``, one per line."""
    parser = argparse.ArgumentParser(
        prog="bosonqec",
        description="Bosonic extended-binomial code workbench",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)

    def common(p, family_default="ext-bin"):
        p.add_argument("--family", default=family_default)
        p.add_argument("--w", type=int, choices=SUITE, default=1)
        p.add_argument("--k", type=int, choices=SUITE, default=1)
        output(p)

    p = sub.add_parser("table1", help="mean-excitation comparison table")
    p.add_argument("--max-w", type=int, choices=SUITE, default=1)
    p.add_argument("--max-k", type=int, choices=SUITE, default=2)
    output(p)

    p = sub.add_parser("codeword", help="emit one codeword")
    common(p)
    p.add_argument("--label", default=None)

    p = sub.add_parser("verify", help="orthonormality + KL + logical + decoder checks")
    common(p)
    p.add_argument("--gamma", type=float, default=0.01)

    p = sub.add_parser("scaling", help="residual and infidelity slopes")
    common(p)
    p.add_argument(
        "--gamma-grid",
        dest="gamma_grid",
        type=_parse_gamma_grid,
        # a string default is parsed by its type only when scaling runs
        default=f"{GRID_LO}:{GRID_HI}:{GRID_POINTS}",
    )
    p.add_argument("--recovery", choices=("naive", "transpose", "both"), default="both")

    p = sub.add_parser("syndrome", help="syndrome extraction and lookup decoding")
    common(p)
    p.add_argument("--pattern", type=_parse_pattern, default=None)
    p.add_argument("--label", default=None)

    # the protocol encodes one qubit into the k=1 extended binomial code
    p = sub.add_parser("encode", help="measurement-based encoding protocol traces")
    p.add_argument("--w", type=int, choices=SUITE, default=1)
    p.add_argument("--seed", type=int, default=1234)
    output(p)
    p.add_argument("--alpha", default="0.7071067811865476")
    p.add_argument("--beta", default="0.7071067811865476")
    p.add_argument("--sampled", action="store_true")

    p = sub.add_parser("cc", help="collective-coherent invariance sweep")
    common(p, family_default="ce-ext-bin")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--dt", type=float, nargs="+", default=None)
    p.add_argument("--num-random", type=int, default=100)

    p = sub.add_parser("budget", help="dispersive excitation budget")
    p.add_argument("--nc", type=float, required=True)
    output(p)

    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Refuse, with exit status 2, every input a handler cannot run."""
    try:
        if hasattr(args, "gamma") and not 0.0 < args.gamma <= 0.05:
            raise ValueError("gamma must lie in (0, 0.05]")
        # a seed of numpy's default_rng, whose stream rng.Generator draws without numpy
        if hasattr(args, "seed") and args.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {args.seed!r}")
        if hasattr(args, "family"):
            spec = _spec(args)
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
        elif args.command == "cc":
            if not 0 <= args.num_random <= MAX_DURATIONS:
                raise ValueError(f"num-random must lie in [0, {MAX_DURATIONS}]")
            if args.dt is not None and len(args.dt) > MAX_DURATIONS:
                raise ValueError(f"dt takes at most {MAX_DURATIONS} values")
            for dt in args.dt or ():
                channels.validate_delta_t(dt)
            if args.dt:
                # a component's phase is the cosine of its total excitation times dt
                top = codes.max_excitation(spec)
                if math.isinf(top * max(args.dt)):
                    raise ValueError(f"dt times the largest total excitation {top} must be finite")
        elif args.command == "budget":
            dispersive_budget(args.nc)
        elif args.command == "encode":
            _input_amplitudes(args.alpha, args.beta)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except RecursionError:  # argparse reads nested argument files recursively
        parser.error("argument files nest too deeply; does one name itself?")
    except UnicodeDecodeError as exc:
        parser.error(f"cannot read argument file: {exc}")
    _validate(args, parser)
    envelope, header, records = HANDLERS[args.command](args)
    try:
        emit_report(envelope, header, records, args.fmt, args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0 if envelope["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
