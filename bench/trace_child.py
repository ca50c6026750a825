"""Run one bosonqec command line in this process, traced or plain.

    python3 bench/trace_child.py SRC SIDECAR (plain|traced) ARGV...

SRC is the directory holding the ``bosonqec`` package and SIDECAR the
JSON file this process writes at exit.  The report goes to stdout and
the exit status is that of ``bosonqec.cli.main``, exactly as with
``python -m bosonqec ARGV...``.

``plain`` records only the in-process wall time of ``cli.main``.
``traced`` first replaces the public functions listed in ``SPANS`` and
``AGGREGATES`` at every module binding that callers resolve them
through (``from .fock import inner`` binds ``inner`` in ``kl``,
``syndrome``, ``codes`` and ``logical``), then runs ``cli.main`` inside
a span of its own.  Span functions record one span each (name, parent,
start, end), kept in memory and written at exit.  The ``fock`` functions
run hundreds of thousands of times per invocation, so they get no span:
their calls and time are summed per enclosing span name.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SPANS = {
    "cli": ("main", "decoder_sweep", "emit_report"),
    "codes": ("logical_basis",),
    "channels": ("apply_loss_pattern", "apply_cc", "enumerate_loss_patterns"),
    "kl": ("kl_matrix", "hermiticity_deviation", "diagonal_deviation", "fit_residual_scaling"),
    "logical": ("verify_logical_algebra", "build_logical_operator", "run_encoding_protocol"),
    "syndrome": (
        "diagnose",
        "cc_overlap",
        "recovery_infidelity",
        "code_channel",
        "transpose_recovery",
        "compose_recovery",
        "compose_naive_recovery",
        "entanglement_fidelity",
    ),
}
AGGREGATES = {"fock": ("inner", "compose", "add_states", "measure_integer_observable")}

# Sizes read from a span's return value: metric -> (span, "sum" or "max", read).
COUNTERS = {
    "kl.kl_matrix.entries": ("kl.kl_matrix", "sum", lambda r: len(r.entries)),
    "logical.build_logical_operator.entries": (
        "logical.build_logical_operator", "sum", lambda r: len(r.map.entries)
    ),
    "syndrome.transpose_recovery.gram_dim_max": (
        "syndrome.transpose_recovery", "max", lambda r: len(r.bras)
    ),
    "syndrome.transpose_recovery.condition_max": (
        "syndrome.transpose_recovery", "max", lambda r: r.condition
    ),
    "syndrome.compose_recovery.branches": ("syndrome.compose_recovery", "sum", len),
    "channels.enumerate_loss_patterns.patterns": (
        "channels.enumerate_loss_patterns", "sum", len
    ),
}


def combine(kind: str, old, value):
    """Fold one counter reading into its running value."""
    if old is None:
        return value
    return old + value if kind == "sum" else max(old, value)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]


def aggregate_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in AGGREGATES.items() for fn in fns]


class Tracer:
    """Spans and per-parent aggregates of one traced invocation."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span index or -1, start, end]
        self.stack: list[int] = []
        self.aggregates: dict[tuple[int, str], list] = {}  # (parent name index, fn) -> [calls, s]
        self.counters: dict[str, float] = {}
        self.origin = perf_counter()

    def span(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        counters = [(m, kind, read) for m, (span, kind, read) in COUNTERS.items() if span == name]
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name_index, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = perf_counter()
            for metric, kind, read in counters:
                self.counters[metric] = combine(kind, self.counters.get(metric), read(result))
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        aggregates, spans, stack = self.aggregates, self.spans, self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                slot = (spans[stack[-1]][0] if stack else -1, name)
                record = aggregates.get(slot)
                if record is None:
                    aggregates[slot] = [1, elapsed]
                else:
                    record[0] += 1
                    record[1] += elapsed

        return wrapper

    def install(self) -> None:
        """Replace every instrumented function at each binding in bosonqec."""
        modules = [m for n, m in sys.modules.items() if n == "bosonqec" or n.startswith("bosonqec.")]
        for table, make in ((SPANS, self.span), (AGGREGATES, self.aggregate)):
            for mod_name, fns in table.items():
                module = sys.modules[f"bosonqec.{mod_name}"]
                for fn_name in fns:
                    original = getattr(module, fn_name)
                    wrapper = make(f"{mod_name}.{fn_name}", original)
                    bound = 0
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                bound += 1
                    if bound == 0:
                        raise RuntimeError(f"no binding of {mod_name}.{fn_name} found")

    def sidecar(self) -> dict:
        t0 = self.origin
        return {
            "names": self.names,
            "spans": [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans],
            "aggregates": [
                [self.names[p] if p >= 0 else None, name, calls, s]
                for (p, name), (calls, s) in sorted(self.aggregates.items())
            ],
            "counters": self.counters,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] not in ("plain", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    src, sidecar_path, mode, command = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, src)
    import bosonqec  # noqa: F401  (loads every submodule before patching)
    from bosonqec import cli

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    start = perf_counter()
    try:
        code = cli.main(command)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    main_s = perf_counter() - start
    sys.stdout.flush()
    sidecar = tracer.sidecar() if tracer is not None else {}
    sidecar["main_s"] = main_s
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
