"""Syndrome extraction, lookup decoding, and recovery channels.

The chain observables compare excitation of neighboring buffer modes,
the bridge observable compares the last buffer mode against the summed
data modes (both squared, modulo w+1), and the per-mode readouts measure
occupation modulo w+1.  Chain and bridge detect loss events; the mode
readouts localize them, which keeps decoding injective for every loss
weight up to w (the squared observables alone conflate residues once
w >= 2).

Two recoveries are provided: the conditional re-excitation that shifts
each mode back up by the decoded loss (paper-literal, leaves the damping
envelope uncorrected) and the transpose channel built from the code
projector and adjoint Kraus operators (near-optimal for approximate
codes).  Both act on the loss branches of ``code_channel``
(``compose_naive_recovery``, ``compose_recovery``) and are scored by
``entanglement_fidelity``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    CCParams,
    LossPattern,
    apply_cc,
    apply_loss_pattern,
    enumerate_loss_patterns,
    pattern_weight,
    validate_gamma,
)
from .codes import CodeSpec, LogicalBasis
from .fock import (
    MeasurementBranch,
    Occupation,
    PureState,
    add_states,
    inner,
    measure_integer_observable,
)


@dataclass(frozen=True)
class SyndromeObservables:
    """Coefficient vectors of the measured occupation functionals."""

    spec: CodeSpec
    chain: tuple[tuple[int, ...], ...]   # squared, modulo w+1
    bridge: tuple[int, ...]              # squared, modulo w+1
    readouts: tuple[tuple[int, ...], ...]  # plain, modulo w+1


def syndrome_observables(spec: CodeSpec) -> SyndromeObservables:
    if spec.family != "extended_binomial":
        raise ValueError("syndrome extraction is defined for the extended binomial family")
    w, n = spec.w, spec.num_modes
    chain = []
    for i in range(w - 1):
        coeffs = [0] * n
        coeffs[i], coeffs[i + 1] = 1, -1
        chain.append(tuple(coeffs))
    bridge = [0] * n
    bridge[w - 1] = 1
    for i in range(w, n):
        bridge[i] = -1
    readouts = []
    for j in range(n):
        coeffs = [0] * n
        coeffs[j] = 1
        readouts.append(tuple(coeffs))
    return SyndromeObservables(spec, tuple(chain), tuple(bridge), tuple(readouts))


@dataclass(frozen=True)
class SyndromeRecord:
    """Measured outcomes, decoded loss pattern, and post-measurement state."""

    outcomes: tuple[int, ...]  # chain..., bridge, readouts...
    decoded: LossPattern | None
    post_state: PureState
    ambiguous: bool


def _take_branch(
    branches: list[MeasurementBranch], rng: np.random.Generator | None
) -> MeasurementBranch:
    if rng is None:
        return max(branches, key=lambda b: b.probability)
    r = rng.random()
    acc = 0.0
    for branch in branches:
        acc += branch.probability
        if r <= acc:
            return branch
    return branches[-1]


def extract_syndrome(
    s: PureState, spec: CodeSpec, rng: np.random.Generator | None = None
) -> SyndromeRecord:
    """Measure chain, bridge, and per-mode readouts in sequence.

    On a single-pattern damaged codeword every outcome is deterministic.
    For other states the projective branching matters: with ``rng`` the
    outcomes are sampled, otherwise the most probable branch is followed.
    """
    obs = syndrome_observables(spec)
    modulus = spec.w + 1
    outcomes: list[int] = []
    state = s
    for coeffs in obs.chain + (obs.bridge,):
        branch = _take_branch(
            measure_integer_observable(state, coeffs, modulus, squared=True), rng
        )
        outcomes.append(branch.outcome)
        state = branch.state
    for coeffs in obs.readouts:
        branch = _take_branch(
            measure_integer_observable(state, coeffs, modulus, squared=False), rng
        )
        outcomes.append(branch.outcome)
        state = branch.state
    return SyndromeRecord(tuple(outcomes), None, state, False)


def expected_outcomes(a: LossPattern, spec: CodeSpec) -> tuple[int, ...]:
    """Deterministic outcome tuple for the damaged codeword A_a |i>."""
    w, n = spec.w, spec.num_modes
    m = w + 1
    outcomes = []
    for i in range(w - 1):
        outcomes.append((a[i + 1] - a[i]) ** 2 % m)
    outcomes.append((sum(a[w:]) - a[w - 1]) ** 2 % m)
    outcomes.extend((-a[j]) % m for j in range(n))
    return tuple(outcomes)


def decode_lookup(outcomes, spec: CodeSpec) -> LossPattern | None:
    """Invert the mode readouts and cross-check chain/bridge consistency.

    Returns the unique loss pattern of weight <= w, or None when the
    outcome tuple is inconsistent or points beyond the correctable set.
    """
    w, n = spec.w, spec.num_modes
    m = w + 1
    outcomes = tuple(int(o) for o in outcomes)
    if len(outcomes) != w + n:
        raise ValueError(f"expected {w + n} outcomes, got {len(outcomes)}")
    readouts = outcomes[w:]
    decoded = tuple((m - r) % m for r in readouts)
    if pattern_weight(decoded) > w:
        return None
    if expected_outcomes(decoded, spec)[:w] != outcomes[:w]:
        return None
    return decoded


def diagnose(s: PureState, spec: CodeSpec, rng=None) -> SyndromeRecord:
    """Extract a syndrome and fill in the decoded pattern."""
    record = extract_syndrome(s, spec, rng)
    decoded = decode_lookup(record.outcomes, spec)
    return replace(record, decoded=decoded, ambiguous=decoded is None)


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


# ---------------------------------------------------------------------------
# Transpose-channel recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransposeRecovery:
    """Recovery Kraus set {P A_b^dag M^(-1/2)} in contracted form.

    Each recovery operator is represented by the bra vectors
    u[(b, label)] = M^(-1/2) A_b |label>, so that
    R_b s = sum_label <u[(b, label)], s> |label>.
    """

    basis: LogicalBasis
    gamma: float
    patterns: tuple[LossPattern, ...]
    bras: dict[tuple[LossPattern, str], PureState]
    condition: float

    def apply(self, b: LossPattern, s: PureState) -> PureState:
        acc = None
        for label in self.basis.spec.labels:
            bra = self.bras.get((b, label))
            if bra is None:
                continue
            coeff = inner(bra, s)
            term = self.basis.codewords[label].scaled(coeff)
            acc = term if acc is None else add_states(acc, term)
        if acc is None:
            return PureState(s.layout, {})
        return acc


def transpose_recovery(basis: LogicalBasis, gamma: float) -> TransposeRecovery:
    """Build the transpose-channel recovery for patterns of weight <= w.

    M = sum_a A_a P A_a^dag is inverted (square-root) spectrally on its
    support via the Gram matrix of the damaged codewords; a spread of
    kept eigenvalues beyond 1e14 raises with a condition report.
    """
    gamma = validate_gamma(gamma)
    spec = basis.spec
    patterns = enumerate_loss_patterns(spec.num_modes, spec.w)
    keys: list[tuple[LossPattern, str]] = []
    vectors: list[PureState] = []
    for a in patterns:
        for label in spec.labels:
            v = apply_loss_pattern(basis.codewords[label], a, gamma)
            if v.norm_squared() > 0.0:
                keys.append((a, label))
                vectors.append(v)
    gram = np.array(
        [[inner(u, v) for v in vectors] for u in vectors], dtype=complex
    )
    eigvals, eigvecs = np.linalg.eigh(gram)
    lam_max = float(eigvals[-1])
    keep = eigvals > lam_max * 1e-14
    if not np.any(keep):
        raise RuntimeError("recovery normalization matrix is numerically zero")
    kept = eigvals[keep]
    condition = float(lam_max / kept[0])
    if condition > 1e14:
        raise RuntimeError(
            f"recovery normalization matrix is numerically singular on its support "
            f"(condition {condition:.3e})"
        )
    # M and the Gram matrix share their nonzero spectrum, so
    # M^(-1/2) A_b |i> = sum_r G^(-1/2)[r, q] v_r with q the (b, i) column.
    inv_sqrt = (eigvecs[:, keep] / np.sqrt(kept)) @ eigvecs[:, keep].conj().T
    bras: dict[tuple[LossPattern, str], PureState] = {}
    for q, key in enumerate(keys):
        acc = None
        for r, v in enumerate(vectors):
            c = inv_sqrt[r, q]
            if abs(c) == 0.0:
                continue
            term = v.scaled(c)
            acc = term if acc is None else add_states(acc, term)
        bras[key] = acc
    return TransposeRecovery(basis, gamma, tuple(patterns), bras, condition)


# ---------------------------------------------------------------------------
# Channels on the code space and entanglement fidelity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelBranch:
    """One Kraus branch applied to every codeword."""

    label: object
    states: dict[str, PureState]


def code_channel(
    basis: LogicalBasis, gamma: float, max_weight: int
) -> tuple[list[ChannelBranch], float]:
    """Amplitude-damping branches applied to every codeword, plus the
    worst-case truncation tail (max over codewords)."""
    gamma = validate_gamma(gamma)
    spec = basis.spec
    branches = []
    totals = {label: 0.0 for label in spec.labels}
    for a in enumerate_loss_patterns(spec.num_modes, max_weight):
        states = {}
        for label in spec.labels:
            damaged = apply_loss_pattern(basis.codewords[label], a, gamma)
            states[label] = damaged
            totals[label] += damaged.norm_squared()
        branches.append(ChannelBranch(a, states))
    tail = max(max(0.0, 1.0 - t) for t in totals.values())
    return branches, tail


def entanglement_fidelity(channel_branches, basis: LogicalBasis) -> float:
    """F_e = sum_m |Tr(P B_m P) / 2^K|^2 over the code subspace."""
    labels = basis.spec.labels
    dim = float(len(labels))
    fe = 0.0
    for branch in channel_branches:
        tr = 0.0 + 0.0j
        for label in labels:
            tr += inner(basis.codewords[label], branch.states[label])
        fe += abs(tr / dim) ** 2
    return fe


def compose_recovery(
    channel_branches: list[ChannelBranch], recovery: TransposeRecovery
) -> list[ChannelBranch]:
    composed = []
    for branch in channel_branches:
        for b in recovery.patterns:
            states = {
                label: recovery.apply(b, state) for label, state in branch.states.items()
            }
            composed.append(ChannelBranch((b, branch.label), states))
    return composed


def compose_naive_recovery(
    channel_branches: list[ChannelBranch], basis: LogicalBasis
) -> list[ChannelBranch]:
    """Shift each branch up by its decoded pattern.

    The syndrome of a damaged codeword depends only on the loss pattern,
    so decoding happens once per branch.  Branches whose syndrome falls
    outside the correctable lookup (ambiguous) are left uncorrected;
    they carry probability of order gamma^(w+1).
    """
    spec = basis.spec
    composed = []
    for branch in channel_branches:
        decoded = decode_lookup(expected_outcomes(branch.label, spec), spec)
        if decoded is None:
            composed.append(branch)
            continue
        states = {}
        for label, state in branch.states.items():
            try:
                states[label] = reexcite(state, decoded)
            except ValueError:
                states[label] = state
        composed.append(ChannelBranch(branch.label, states))
    return composed


def recovery_infidelity(
    basis: LogicalBasis, gamma: float, recovery: str = "transpose"
) -> dict[str, float]:
    """Entanglement infidelity of recovery applied after amplitude damping.

    The channel keeps loss patterns of weight <= w+2; the reported
    infidelity adds its truncation tail as a worst case.  ``recovery`` is
    one of "none", "naive", "transpose".
    """
    branches, tail = code_channel(basis, gamma, basis.spec.w + 2)
    if recovery == "transpose":
        branches = compose_recovery(branches, transpose_recovery(basis, gamma))
    elif recovery == "naive":
        branches = compose_naive_recovery(branches, basis)
    elif recovery != "none":
        raise ValueError(f"unknown recovery {recovery!r}")
    fe = entanglement_fidelity(branches, basis)
    return {
        "gamma": gamma,
        "fidelity": fe,
        "infidelity": max(0.0, 1.0 - fe) + tail,
        "tail": tail,
    }


def infidelity_slope(rows) -> float:
    """Log-log slope of the infidelity over ``recovery_infidelity`` rows."""
    xs, ys = [], []
    for row in rows:
        if row["infidelity"] > 0.0:
            xs.append(np.log(row["gamma"]))
            ys.append(np.log(row["infidelity"]))
    if len(xs) < 2:
        raise ValueError("not enough nonzero infidelity points to fit")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def cc_overlap(state: PureState, delta_t: float) -> float:
    """|<psi| U_cc(delta_t) |psi>| for a normalized state."""
    return abs(inner(state, apply_cc(state, CCParams(delta_t))))
