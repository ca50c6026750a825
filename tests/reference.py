"""Straightforward implementations that tests check the library against.

None of these is read by the library or by a command: each is the slow,
literal form of something the library computes on a fast path.
- ``multi_mode_kraus``, ``cc_unitary`` and ``apply``: the loss and
  collective-coherent operators materialized on a whole layout, and
  their matrix-vector action (``channels.apply_loss_pattern``,
  ``channels.apply_cc``);
- ``measure_squared_observable``: the measurement of a squared
  occupation functional, the paper's chain and bridge observables
  (``syndrome.expected_outcomes``);
- ``extract_syndrome`` and ``reexcite``: the syndrome measured
  observable by observable on one state, and the re-excitation by a
  decoded pattern (``syndrome.diagnose``, ``compose_naive_recovery``);
- ``decode_lookup``: the outcome-row lookup with its chain/bridge
  cross-check (``syndrome.decode_patterns``);
- ``analytic_alpha`` and ``analytic_diagonal``: the closed-form
  diagonal Knill-Laflamme factors (``kl.kl_matrix``);
- ``merge_modes_to_single``: the excitation merge that takes a
  shor-type codeword onto one binomial oscillator.

Only the public names of ``bosonqec``'s modules are imported; the
arithmetic is that of the library functions these once were, so the
tests' bit-for-bit comparisons hold as they did.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from bosonqec.channels import (
    LossPattern, cc_phase, loss_amplitude, validate_delta_t, validate_gamma,
)
from bosonqec.codes import CodeSpec
from bosonqec.fock import (
    LinearMap, MeasurementBranch, ModeLayout, Occupation, PureState, measure_integer_observable,
)
from bosonqec.syndrome import expected_outcomes, syndrome_observables


def multi_mode_kraus(a: LossPattern, gamma: float, layout: ModeLayout) -> LinearMap:
    """Tensor-product loss operator for pattern ``a`` on the full layout.

    Materializes one entry per surviving basis ket; intended for small
    truncated spaces.  ``channels.apply_loss_pattern`` acts on sparse states.
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
    return LinearMap(layout, entries)


def cc_unitary(delta_t: float, layout: ModeLayout) -> LinearMap:
    """Materialized collective-coherent unitary of duration ``delta_t``; small layouts only."""
    delta_t = validate_delta_t(delta_t)
    return LinearMap(
        layout, {(occ, occ): cc_phase(sum(occ), delta_t) for occ in layout.all_occupations()}
    )


def apply(m: LinearMap, s: PureState) -> PureState:
    """Matrix-vector action ``m @ s``, result in canonical form."""
    if s.layout != m.layout:
        raise ValueError("state layout does not match the map layout")
    acc: dict[Occupation, complex] = {}
    for in_occ, amp in s.amplitudes.items():
        for out_occ, coeff in m.columns.get(in_occ, ()):
            acc[out_occ] = acc.get(out_occ, 0.0) + coeff * amp
    return PureState(m.layout, acc)


class SyndromeRecord(NamedTuple):
    """Measured outcomes and post-measurement state."""

    outcomes: tuple[int, ...]  # chain..., bridge, readouts...
    post_state: PureState


def _take_branch(branches: list[MeasurementBranch]) -> MeasurementBranch:
    return max(branches, key=lambda b: b.probability)


def measure_squared_observable(s: PureState, coeffs, modulus: int) -> list[MeasurementBranch]:
    """Projective measurement of ``(sum_j c_j n_j)^2 mod m``: one branch
    per observed outcome, sorted by outcome, with its probability and
    normalized post-state."""
    sectors: dict[int, dict[Occupation, complex]] = {}
    for occ, amp in s.amplitudes.items():
        value = sum(c * n for c, n in zip(coeffs, occ))
        sectors.setdefault(value * value % modulus, {})[occ] = amp
    branches = []
    for outcome in sorted(sectors):
        piece = PureState(s.layout, sectors[outcome])
        branches.append(MeasurementBranch(outcome, piece.norm_squared(), piece.normalized()))
    return branches


def extract_syndrome(s: PureState, spec: CodeSpec) -> SyndromeRecord:
    """Measure chain, bridge, and per-mode readouts in sequence.

    On a single-pattern damaged codeword every outcome is deterministic;
    for other states the most probable branch is followed.
    """
    outcomes: list[int] = []
    state = s
    for x, coeffs in enumerate(syndrome_observables(spec)):
        measure = measure_squared_observable if x < spec.w else measure_integer_observable
        branch = _take_branch(measure(state, coeffs, spec.w + 1))
        outcomes.append(branch.outcome)
        state = branch.state
    return SyndromeRecord(tuple(outcomes), state)


def decode_lookup(outcomes, spec: CodeSpec) -> tuple[list[tuple[int, ...]], list[bool]]:
    """Invert the mode readouts of every outcome row and cross-check chain
    and bridge.

    Returns the decoded loss patterns and which rows are ambiguous:
    those inconsistent with their readouts or pointing past weight w,
    which decode to zeros.
    """
    w, n = spec.w, spec.num_modes
    rows = [tuple(o) for o in outcomes]
    if any(len(o) != w + n for o in rows):
        raise ValueError(f"expected rows of {w + n} outcomes")
    decoded = [tuple(-r % (w + 1) for r in o[w:]) for o in rows]
    distinct = list(dict.fromkeys(decoded))  # a pattern's rows repeat per label
    expected = dict(zip(distinct, expected_outcomes(distinct, spec)))
    ambiguous = [sum(x) > w or expected[x][:w] != o[:w] for x, o in zip(decoded, rows)]
    zero = (0,) * n
    return [zero if bad else x for x, bad in zip(decoded, ambiguous)], ambiguous


def reexcite(s: PureState, a: LossPattern) -> PureState:
    """Shift every mode back up by the decoded loss pattern (isometry)."""
    a = tuple(int(x) for x in a)
    if len(a) != s.layout.num_modes:
        raise ValueError("pattern length must match the mode count")
    amps: dict[Occupation, complex] = {}
    for occ, amp in s.amplitudes.items():
        lifted = tuple(n + x for n, x in zip(occ, a))
        if not s.layout.contains(lifted):
            raise ValueError(f"re-excitation overflows the cutoff at {lifted}")
        amps[lifted] = amp
    return PureState(s.layout, amps)


def analytic_alpha(occupation: int, losses: int, gamma: float) -> float:
    """Closed-form diagonal factor C(n, k) (1-gamma)^(n-k) gamma^k.

    Zero when more excitations are lost than present.  The product of
    these factors over modes equals the numeric diagonal overlap.
    """
    gamma = validate_gamma(gamma)
    if losses < 0 or occupation < 0:
        raise ValueError("occupation and losses must be nonnegative")
    if losses > occupation:
        return 0.0
    return (
        math.comb(occupation, losses)
        * (1.0 - gamma) ** (occupation - losses)
        * gamma**losses
    )


def analytic_diagonal(state: PureState, pattern: LossPattern, gamma: float) -> float:
    """<psi| A_a^dag A_a |psi> from the closed-form per-mode factors."""
    total = 0.0
    for occ, amp in state.amplitudes.items():
        factor = 1.0
        for n, x in zip(occ, pattern):
            factor *= analytic_alpha(n, x, gamma)
        total += abs(amp) ** 2 * factor
    return total


def merge_modes_to_single(s: PureState) -> PureState:
    """Collapse an occupation-1 multi-mode state onto a single oscillator.

    Components map to |sum_j n_j>; colliding components are collected in
    quadrature (the new magnitude is the root of the summed squared
    magnitudes, keeping the phase of the amplitude sum), which preserves
    the norm and reproduces the binomial envelope of the merged shor-type
    codewords.  The result is normalized.
    """
    if any(c != 1 for c in s.layout.cutoffs):
        raise ValueError("merging requires occupation-1 modes")
    collected: dict[int, list[complex]] = {}
    for occ, amp in s.amplitudes.items():
        collected.setdefault(sum(occ), []).append(amp)
    total = s.layout.num_modes
    amps: dict[Occupation, complex] = {}
    for weight in sorted(collected):
        group = collected[weight]
        magnitude = math.sqrt(sum(abs(a) ** 2 for a in group))
        phase_sum = sum(group)
        phase = phase_sum / abs(phase_sum) if abs(phase_sum) > 0.0 else 1.0
        amps[(weight,)] = magnitude * phase
    return PureState(ModeLayout((total,)), amps).normalized()
