"""Amplitude-damping and collective-coherent error channels.

Single-mode loss Kraus operators carry binomial amplitudes in the loss
probability gamma; multi-mode loss patterns act as tensor products of
them.  The collective-coherent channel is a diagonal phase unitary with
an unknown duration parameter.  ``apply_loss_pattern`` applies one
pattern to one sparse state; ``damaged.DamagedIndex`` applies a whole
pattern set to every codeword of a code at once, with the same
arithmetic.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

from .fock import LinearMap, ModeLayout, Occupation, PureState

LossPattern = tuple[int, ...]


def validate_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"damping probability must lie in [0, 1), got {gamma}")
    return gamma


def validate_delta_t(delta_t: float) -> float:
    if not 0.0 <= delta_t < math.inf:
        raise ValueError(f"delta_t must be finite and nonnegative, got {delta_t}")
    return delta_t


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

    A pattern of weight k is a multiset of k lossy modes (stars and
    bars), so the count is C(n_modes + max_weight, n_modes).
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    patterns: list[LossPattern] = []
    for k in range(max_weight + 1):
        for modes in combinations_with_replacement(range(n_modes), k):
            pattern = [0] * n_modes
            for m in modes:
                pattern[m] += 1
            patterns.append(tuple(pattern))
    patterns.sort()
    return patterns


def cc_phase(occ: Occupation, delta_t: float) -> complex:
    """Diagonal collective-coherent phase on one basis ket (hbar = 1,
    per-mode global half-quantum phase omitted)."""
    return complex(math.cos(sum(occ) * delta_t), -math.sin(sum(occ) * delta_t))


def apply_cc(s: PureState, delta_t: float) -> PureState:
    """Apply the collective-coherent unitary of duration ``delta_t`` to a sparse state."""
    delta_t = validate_delta_t(delta_t)
    return PureState(
        s.layout, {occ: cc_phase(occ, delta_t) * amp for occ, amp in s.amplitudes.items()}
    )


def cc_unitary(delta_t: float, layout: ModeLayout) -> LinearMap:
    """Materialized collective-coherent unitary of duration ``delta_t``; small layouts only."""
    delta_t = validate_delta_t(delta_t)
    return LinearMap(
        layout, layout, {(occ, occ): cc_phase(occ, delta_t) for occ in layout.all_occupations()}
    )
