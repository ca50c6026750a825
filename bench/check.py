"""Correctness checks on bosonqec reports.

Every invocation's JSON report is reduced by ``summarise`` to its
numeric result fields (gram and KL maxima, curve infidelities and
slopes, decoder counts, syndrome matches, cc overlaps, encode fidelities
and probabilities).  ``compare`` checks a summary and the exit status
against the values recorded in ``reference.json`` at the seed commit:
computed numbers under ``ATOL + RTOL * |reference|``, fitted log-log
slopes and intercepts (``is_fit``) under ``FIT_ATOL``, and integers,
booleans and strings exactly.  The fits get their own tolerance because
they rest on infidelities of about 1e-10 taken as ``1 - fidelity``,
which keep only a few digits: summing the fidelity in another order
moves a slope by several 1e-6 and its intercept about six times more.  A seeded invocation whose seed has no
recorded reference is checked by ``self_check`` against its own
``pass`` and ``expected`` fields instead.
"""

from __future__ import annotations

import json
import math
import os

ATOL = 1e-12
RTOL = 1e-6
FIT_ATOL = 1e-4

# Exit statuses that a report can end with: 0 all checks passed, 1 a
# check failed.  Anything else (2 usage error, a signal) is a failure.
REPORT_EXITS = (0, 1)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for name in sorted(value):
            _flatten(f"{prefix}.{name}" if prefix else name, value[name], out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}.{i}", item, out)
    else:
        out[prefix] = value


def _cc_summary(sweep: list[dict]) -> dict:
    overlaps = [row["overlap"] for row in sweep]
    known = [abs(row["overlap"] - row["expected"]) for row in sweep if not _isnan(row["expected"])]
    return {
        "rows": len(sweep),
        "overlap_min": min(overlaps),
        "overlap_max": max(overlaps),
        "overlap_sum": math.fsum(overlaps),
        "expected_rows": len(known),
        "expected_err_max": max(known, default=0.0),
        "delta_t_sum": math.fsum(row["delta_t"] for row in sweep),
    }


def _amplitudes(prefix: str, components: list[dict], out: dict) -> None:
    """Real and imaginary part of each amplitude, keyed by its occupation."""
    for c in components:
        occupation = "-".join(str(n) for n in c["occupation"])
        out[f"{prefix}.{occupation}.re"] = c["re"]
        out[f"{prefix}.{occupation}.im"] = c["im"]


def is_fit(name: str) -> bool:
    """Whether a summary value is a fitted slope or intercept."""
    return any(part.endswith(("slope", "slopes", "intercept")) for part in name.split("."))


def _isnan(x) -> bool:
    return isinstance(x, float) and math.isnan(x)


def summarise(report: dict) -> dict:
    """Numeric result fields of one report, keyed by dotted path."""
    command, results = report["command"], report["results"]
    out: dict = {"pass": report["pass"]}
    if command in ("verify", "scaling", "budget"):
        _flatten("", results, out)
    elif command == "syndrome":
        records = results["records"]
        out["records"] = len(records)
        out["matched"] = sum(r["match"] for r in records)
        out["decoded_empty"] = sum(r["decoded"] == "" for r in records)
    elif command == "cc":
        out.update(_cc_summary(results["sweep"]))
    elif command == "encode":
        for i, t in enumerate(results["traces"]):
            for name in ("outcome_z", "outcome_x", "probability", "fidelity_to_target"):
                out[f"traces.{i}.{name}"] = t[name]
            _amplitudes(f"traces.{i}.final_state", t["final_state"], out)
    elif command == "table1":
        for i, row in enumerate(results["rows"]):
            out[f"rows.{i}.mean_excitation"] = row["mean_excitation"]
    elif command == "codeword":
        out["mean_excitation"] = results["mean_excitation"]
        _amplitudes("components", results["components"], out)
    else:
        raise KeyError(f"unknown command {command!r}")
    return out


def _close(got, want, atol: float, rtol: float) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return abs(got - want) <= atol + rtol * abs(want)
    return got == want


def compare(summary: dict, exit_code: int, reference: dict) -> list[str]:
    """Mismatches between an invocation's summary and its reference entry."""
    problems = []
    if exit_code != reference["exit"]:
        problems.append(f"exit status {exit_code}, reference {reference['exit']}")
    want = reference["values"]
    for name in sorted(set(want) | set(summary)):
        atol, rtol = (FIT_ATOL, 0.0) if is_fit(name) else (ATOL, RTOL)
        if name not in summary:
            problems.append(f"{name} missing")
        elif name not in want:
            problems.append(f"{name} not in reference")
        elif not _close(summary[name], want[name], atol, rtol):
            problems.append(f"{name} = {summary[name]!r}, reference {want[name]!r}")
    return problems


def self_check(report: dict, exit_code: int) -> list[str]:
    """Checks for a seeded report that has no recorded reference."""
    problems = []
    if report["pass"] is not True or exit_code != 0:
        problems.append(f"pass {report['pass']!r} with exit status {exit_code}")
    if report["command"] == "cc":
        for row in report["results"]["sweep"]:
            if not _isnan(row["expected"]) and abs(row["overlap"] - row["expected"]) > ATOL:
                problems.append(f"cc overlap {row['overlap']!r} != expected {row['expected']!r}")
                break
    elif report["command"] == "encode":
        for t in report["results"]["traces"]:
            if abs(t["fidelity_to_target"] - 1.0) > ATOL:
                problems.append(f"encode fidelity {t['fidelity_to_target']!r}")
    return problems


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(reference: dict, template_key: str, seed: int | None) -> dict | None:
    """The recorded entry of one invocation; None for an unrecorded seed."""
    entry = reference["invocations"].get(template_key)
    if entry is None:
        raise KeyError(f"no reference for invocation {template_key!r}")
    if seed is None:
        return entry
    return entry["seeds"].get(str(seed))


def check_report(
    text: str, exit_code: int, reference: dict, template_key: str, seed: int | None
) -> list[str]:
    """All problems with one finished invocation; empty when it is correct."""
    if exit_code not in REPORT_EXITS:
        return [f"exit status {exit_code}"]
    try:
        report = json.loads(text)
        summary = summarise(report)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    entry = reference_entry(reference, template_key, seed)
    if entry is None:
        return self_check(report, exit_code)
    return compare(summary, exit_code, entry)


class DigestStore:
    """sha256 of each report, per source tree, kept across runs.

    A report of the same invocation (same seed) from the same source
    tree must be byte-identical, within a run and across runs.
    """

    def __init__(self, path: str, source_digest: str):
        self.path = path
        self.source_digest = source_digest
        self.digests: dict[str, str] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            stored = {}
        if stored.get("source_sha256") == source_digest:
            self.digests = dict(stored["reports"])

    def check(self, invocation: str, digest: str) -> list[str]:
        known = self.digests.setdefault(invocation, digest)
        if known != digest:
            return [f"report sha256 {digest[:12]} differs from earlier {known[:12]}"]
        return []

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"source_sha256": self.source_digest, "reports": self.digests}, fh,
                      indent=1, sort_keys=True)
        os.replace(tmp, self.path)
