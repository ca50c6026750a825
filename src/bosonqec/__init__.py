"""Numerical workbench for extended binomial bosonic error-correcting codes.

Sparse Fock-space simulation of amplitude-damping and collective-coherent
channels, code constructors, approximate error-correction verification,
syndrome decoding, recovery channels, logical operators, and a
measurement-based encoding protocol.

Every submodule is registered in ``sys.modules`` on import and executed
when first used (see ``_lazy``); the public names below resolve through
their module on first access.
"""

from ._lazy import module as _module

channels = _module("bosonqec.channels")
cli = _module("bosonqec.cli")
codes = _module("bosonqec.codes")
damaged = _module("bosonqec.damaged")
fock = _module("bosonqec.fock")
kl = _module("bosonqec.kl")
logical = _module("bosonqec.logical")
report = _module("bosonqec.report")
rng = _module("bosonqec.rng")
syndrome = _module("bosonqec.syndrome")

_OWNERS = {
    name: owner
    for owner, names in (
        (channels, ("apply_cc", "apply_loss_pattern", "cc_unitary", "enumerate_loss_patterns",
                    "multi_mode_kraus")),
        (codes, ("CodeSpec", "LogicalBasis", "codeword", "logical_basis", "mean_excitation",
                 "merge_modes_to_single")),
        (fock, ("LinearMap", "ModeLayout", "PureState", "apply", "apply_on_modes", "inner",
                "measure_integer_observable", "tensor", "total_number_expectation")),
        (kl, ("KLReport", "ScalingFit", "analytic_alpha", "diagonal_deviation",
              "fit_residual_scaling", "kl_matrix")),
        (logical, ("LogicalOperator", "ProtocolTrace", "build_logical_operator",
                   "run_encoding_protocol", "verify_logical_algebra")),
        (syndrome, ("SyndromeRecord", "decode_lookup", "diagnose", "entanglement_fidelity",
                    "extract_syndrome", "recovery_infidelity", "transpose_recovery")),
    )
    for name in names
}

# the library's modules are public; cli and report are the command line's
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
