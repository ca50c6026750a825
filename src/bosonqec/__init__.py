"""Numerical workbench for extended binomial bosonic error-correcting codes.

Sparse Fock-space simulation of amplitude-damping and collective-coherent
channels, code constructors, approximate error-correction verification,
syndrome decoding, recovery channels, logical operators, and a
measurement-based encoding protocol.
"""

from .channels import (
    apply_cc,
    apply_loss_pattern,
    cc_unitary,
    enumerate_loss_patterns,
    multi_mode_kraus,
)
from .codes import (
    CodeSpec,
    LogicalBasis,
    codeword,
    logical_basis,
    mean_excitation,
    merge_modes_to_single,
)
from .fock import (
    LinearMap,
    ModeLayout,
    PureState,
    apply,
    apply_on_modes,
    inner,
    measure_integer_observable,
    tensor,
    total_number_expectation,
)
from .kl import (
    KLReport,
    ScalingFit,
    analytic_alpha,
    diagonal_deviation,
    fit_residual_scaling,
    kl_matrix,
)
from .logical import (
    LogicalOperator,
    ProtocolTrace,
    build_logical_operator,
    run_encoding_protocol,
    verify_logical_algebra,
)
from .syndrome import (
    SyndromeRecord,
    decode_lookup,
    diagnose,
    entanglement_fidelity,
    extract_syndrome,
    recovery_infidelity,
    transpose_recovery,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
