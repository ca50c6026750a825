"""Amplitude-damping and collective-coherent error channels.

Single-mode loss Kraus operators carry binomial amplitudes in the loss
probability gamma; multi-mode loss patterns act as tensor products of
them.  The collective-coherent channel is a diagonal phase unitary with
an unknown duration parameter.  Loss acts on sparse states one pattern
at a time; ``syndrome.code_channel`` collects the branches over a code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .fock import LinearMap, ModeLayout, Occupation, PureState

LossPattern = tuple[int, ...]


def validate_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"damping probability must lie in [0, 1), got {gamma}")
    return gamma


def pattern_weight(a: LossPattern) -> int:
    """Total excitation loss of a pattern (sum of per-mode losses)."""
    return sum(a)


@dataclass(frozen=True)
class CCParams:
    """Duration parameter of the collective-coherent dephasing unitary."""

    delta_t: float

    def __post_init__(self) -> None:
        if self.delta_t < 0.0:
            raise ValueError("delta_t must be nonnegative")


def damping_from_lifetime(delta_t: float, t1: float) -> float:
    """Loss probability accumulated over delta_t for relaxation time t1."""
    if t1 <= 0.0:
        raise ValueError("relaxation time must be positive")
    if delta_t < 0.0:
        raise ValueError("duration must be nonnegative")
    return 1.0 - math.exp(-delta_t / t1)


def loss_amplitude(occupation: int, losses: int, gamma: float) -> float:
    """Matrix element <n-l| A_l |n> of the single-mode loss Kraus operator."""
    if losses > occupation:
        return 0.0
    # exact integer binomial before the float conversion
    return math.sqrt(
        math.comb(occupation, losses)
        * (1.0 - gamma) ** (occupation - losses)
        * gamma**losses
    )


def single_mode_kraus(ell: int, gamma: float, cutoff: int) -> LinearMap:
    """Loss-of-ell Kraus operator on a single mode truncated at ``cutoff``."""
    gamma = validate_gamma(gamma)
    if ell < 0:
        raise ValueError("loss count must be nonnegative")
    if ell > cutoff:
        raise ValueError(f"loss count {ell} exceeds cutoff {cutoff}")
    layout = ModeLayout((cutoff,))
    entries = {}
    for k in range(ell, cutoff + 1):
        entries[((k - ell,), (k,))] = loss_amplitude(k, ell, gamma)
    return LinearMap(layout, layout, entries)


def multi_mode_kraus(a: LossPattern, gamma: float, layout: ModeLayout) -> LinearMap:
    """Tensor-product loss operator for pattern ``a`` on the full layout.

    Materializes one entry per surviving basis ket; intended for small
    truncated spaces.  Use :func:`apply_loss_pattern` for sparse states.
    """
    gamma = validate_gamma(gamma)
    a = tuple(int(x) for x in a)
    if len(a) != layout.num_modes:
        raise ValueError("pattern length must match the mode count")
    if any(x < 0 for x in a):
        raise ValueError("pattern entries must be nonnegative")
    if any(x > c for x, c in zip(a, layout.cutoffs)):
        raise ValueError(f"pattern {a} exceeds cutoffs {layout.cutoffs}")
    entries = {}
    for occ in layout.all_occupations():
        if any(n < x for n, x in zip(occ, a)):
            continue
        coeff = 1.0
        for n, x in zip(occ, a):
            coeff *= loss_amplitude(n, x, gamma)
        out = tuple(n - x for n, x in zip(occ, a))
        entries[(out, occ)] = coeff
    return LinearMap(layout, layout, entries)


def apply_loss_pattern(s: PureState, a: LossPattern, gamma: float) -> PureState:
    """Apply the pattern-``a`` loss operator directly to a sparse state.

    Identical math to ``apply(multi_mode_kraus(a, ...), s)`` without
    materializing the operator; each surviving component maps to the
    single ket lowered componentwise by ``a``.
    """
    gamma = validate_gamma(gamma)
    a = tuple(int(x) for x in a)
    if len(a) != s.layout.num_modes:
        raise ValueError("pattern length must match the mode count")
    amps: dict[Occupation, complex] = {}
    for occ, amp in s.amplitudes.items():
        if any(n < x for n, x in zip(occ, a)):
            continue
        coeff = 1.0
        for n, x in zip(occ, a):
            coeff *= loss_amplitude(n, x, gamma)
        amps[tuple(n - x for n, x in zip(occ, a))] = coeff * amp
    return PureState(s.layout, amps)


def enumerate_loss_patterns(n_modes: int, max_weight: int) -> list[LossPattern]:
    """All loss patterns of weight <= max_weight, in lexicographic order.

    The count is C(n_modes + max_weight, n_modes).
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")

    patterns: list[LossPattern] = []

    def extend(prefix: tuple[int, ...], remaining: int, budget: int) -> None:
        if remaining == 0:
            patterns.append(prefix)
            return
        for x in range(budget + 1):
            extend(prefix + (x,), remaining - 1, budget - x)

    extend((), n_modes, max_weight)
    patterns.sort()
    return patterns


def cc_phase(occ: Occupation, delta_t: float) -> complex:
    """Diagonal collective-coherent phase on one basis ket (hbar = 1,
    per-mode global half-quantum phase omitted)."""
    return complex(math.cos(sum(occ) * delta_t), -math.sin(sum(occ) * delta_t))


def apply_cc(s: PureState, cc: CCParams) -> PureState:
    """Apply the collective-coherent unitary to a sparse state."""
    return PureState(
        s.layout,
        {occ: cc_phase(occ, cc.delta_t) * amp for occ, amp in s.amplitudes.items()},
    )


def cc_unitary(params: CCParams, layout: ModeLayout) -> LinearMap:
    """Materialized collective-coherent unitary; small layouts only."""
    return LinearMap(
        layout,
        layout,
        {(occ, occ): cc_phase(occ, params.delta_t) for occ in layout.all_occupations()},
    )
