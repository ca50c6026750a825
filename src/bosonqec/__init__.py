"""Numerical workbench for extended binomial bosonic error-correcting codes.

Sparse Fock-space simulation of amplitude-damping and collective-coherent
channels, code constructors, approximate error-correction verification,
syndrome decoding, recovery channels, logical operators, and a
measurement-based encoding protocol, in pure Python.

Every submodule is registered in ``sys.modules`` on import and executed
when one of its attributes is first read (``_module``); the public names
below resolve through their module on first access.
"""

import importlib.util
import sys


def _module(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


channels = _module("bosonqec.channels")
cli = _module("bosonqec.cli")
codes = _module("bosonqec.codes")
damaged = _module("bosonqec.damaged")
fock = _module("bosonqec.fock")
kl = _module("bosonqec.kl")
logical = _module("bosonqec.logical")
report = _module("bosonqec.report")
rng = _module("bosonqec.rng")
spectral = _module("bosonqec.spectral")
syndrome = _module("bosonqec.syndrome")

_OWNERS = {
    name: owner
    for owner, names in (
        (channels, ("apply_cc", "apply_loss_pattern", "enumerate_loss_patterns")),
        (codes, ("CodeSpec", "LogicalBasis", "codeword", "logical_basis", "mean_excitation")),
        (fock, ("LinearMap", "ModeLayout", "PureState", "apply_on_modes", "inner",
                "measure_integer_observable", "tensor", "total_number_expectation")),
        (kl, ("KLReport", "ScalingFit", "diagonal_deviation", "fit_residual_scaling",
              "kl_matrix")),
        (logical, ("LogicalOperator", "ProtocolTrace", "build_logical_operator",
                   "run_encoding_protocol", "verify_logical_algebra")),
        (syndrome, ("diagnose", "entanglement_fidelity", "recovery_infidelity",
                    "transpose_recovery")),
    )
    for name in names
}

# the library's modules are public, not cli and report (the command line's) or spectral
__all__ = sorted(
    [*_OWNERS, "channels", "codes", "damaged", "fock", "kl", "logical", "rng", "syndrome"]
)
__version__ = "0.1.0"


def __getattr__(name: str):
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(owner, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNERS})
