"""Amplitude-damping and collective-coherent error channels.

Single-mode loss Kraus operators carry binomial amplitudes in the loss
probability gamma; multi-mode loss patterns act as tensor products of
them.  The collective-coherent channel is a diagonal phase unitary with
an unknown duration parameter, ``cc_phase`` of the total excitation on
each ket; ``cc_overlap`` sweeps it over many durations and states at
once.  ``apply_loss_pattern`` applies one pattern to one sparse state;
``damaged.DamagedIndex`` applies a whole pattern set to every codeword
of a code at once, with the same arithmetic.  Neither operator is
materialized here: the dense forms are test references.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import combinations_with_replacement

from .fock import PRUNE_TOL, Occupation, PureState

LossPattern = tuple[int, ...]

CC_BLOCK = 256  # durations per block of cc_overlap


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


def apply_loss_pattern(s: PureState, a: LossPattern, gamma: float) -> PureState:
    """Apply the pattern-``a`` loss operator directly to a sparse state.

    The tensor product of the single-mode loss operators, not
    materialized: each surviving component maps to the single ket
    lowered componentwise by ``a``.
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


def cc_phase(n: int, delta_t: float) -> complex:
    """Collective-coherent phase of a basis ket of total excitation ``n``
    (hbar = 1, per-mode global half-quantum phase omitted)."""
    return complex(math.cos(n * delta_t), -math.sin(n * delta_t))


def apply_cc(s: PureState, delta_t: float) -> PureState:
    """Apply the collective-coherent unitary of duration ``delta_t`` to a sparse state."""
    delta_t = validate_delta_t(delta_t)
    return PureState(
        s.layout, {occ: cc_phase(sum(occ), delta_t) * amp for occ, amp in s.amplitudes.items()}
    )


def cc_overlap(states: Sequence[PureState], delta_ts: Sequence[float]) -> list:
    """|<psi| U_cc(dt) |psi>| for every dt of ``delta_ts``, one
    ``array('d')`` per normalized state of ``states``.

    The durations are swept in blocks of ``CC_BLOCK``; for one block the
    phases ``cc_phase(n, dt)`` are tabulated once per total excitation n
    and shared by all states.  So beside the overlaps, 8 bytes each, the
    sweep holds one block's table and sums, whatever the number of
    durations.

    Equal bit for bit to ``abs(inner(state, apply_cc(state, dt)))`` at
    each dt: each component, in key order as ``fock.inner`` sums, takes
    the same Python complex steps: ``u = phase * amp``, an amplitude of
    U_cc|psi>, is dropped below PRUNE_TOL, and ``conj(amp) * u`` joins
    the sum.  A phase has modulus 1 up to rounding, so only an amplitude
    below 2 * PRUNE_TOL can give a ``u`` that is dropped; the others skip
    the test.
    """
    # imported here, not with the module: loading its shared library
    # raises the peak RSS of every command that runs no cc sweep
    from array import array

    for dt in delta_ts:  # every duration, before any block is swept
        validate_delta_t(dt)
    overlaps = [array("d") for _ in states]
    for start in range(0, len(delta_ts), CC_BLOCK):
        block = delta_ts[start : start + CC_BLOCK]
        phases: dict[int, list[complex]] = {}  # total excitation -> phase at each dt
        for state, out in zip(states, overlaps):
            acc = [0j] * len(block)
            for occ, amp in state.amplitudes.items():
                n = sum(occ)
                if n not in phases:
                    phases[n] = [cc_phase(n, dt) for dt in block]
                conj = amp.conjugate()
                if abs(amp) >= 2 * PRUNE_TOL:
                    acc = [z + conj * (p * amp) for z, p in zip(acc, phases[n])]
                else:
                    acc = [
                        z + conj * u if abs(u := p * amp) >= PRUNE_TOL else z
                        for z, p in zip(acc, phases[n])
                    ]
            out.extend(map(abs, acc))
    return overlaps
