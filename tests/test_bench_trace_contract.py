"""The traced benchmark run patches bosonqec functions by name and reads
sizes off their return values; this keeps those names and values valid.

``bench/trace_child.py`` is loaded read-only; its ``main`` is not run.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from bosonqec import channels, codes, damaged, kl, logical, syndrome

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"
SPEC = codes.CodeSpec("extended_binomial", 1, 1)
GAMMA = 0.01


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = load_trace_child()


def span_results():
    """A real return value of every span that ``COUNTERS`` reads, at ext-bin w=k=1."""
    basis = codes.logical_basis(SPEC)
    branches, _ = syndrome.code_channel(damaged.DamagedIndex(basis, SPEC.w + 2), GAMMA)
    recovery = syndrome.transpose_recovery(damaged.DamagedIndex(basis, SPEC.w), GAMMA)
    return {
        "kl.kl_matrix": kl.kl_matrix(basis, GAMMA),
        "logical.build_logical_operator": logical.build_logical_operator("X", 0, SPEC),
        "syndrome.transpose_recovery": recovery,
        "syndrome.compose_recovery": syndrome.compose_recovery(branches, recovery),
        "channels.enumerate_loss_patterns": channels.enumerate_loss_patterns(
            SPEC.num_modes, SPEC.w
        ),
    }


@pytest.mark.parametrize("name", TRACE.span_names() + TRACE.aggregate_names())
def test_traced_names_are_callable(name):
    module_name, function_name = name.split(".")
    module = importlib.import_module(f"bosonqec.{module_name}")
    assert callable(getattr(module, function_name, None)), name


def test_counter_readers_accept_real_results():
    results = span_results()
    for metric, (span, _, read) in TRACE.COUNTERS.items():
        value = read(results[span])
        assert isinstance(value, (int, float)) and math.isfinite(value), metric
    # the sizes mean what their names say
    basis = codes.logical_basis(SPEC)
    patterns = channels.enumerate_loss_patterns(SPEC.num_modes, SPEC.w)
    live = sum(
        len(channels.apply_loss_pattern(cw, a, GAMMA)) > 0
        for a in patterns
        for cw in basis.codewords.values()
    )
    assert len(results["syndrome.transpose_recovery"].bras) == live  # the Gram dimension
    channel = channels.enumerate_loss_patterns(SPEC.num_modes, SPEC.w + 2)
    assert len(results["syndrome.compose_recovery"]) == len(channel) * len(patterns)
