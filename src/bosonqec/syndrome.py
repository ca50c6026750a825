"""Syndrome extraction, lookup decoding, and recovery channels.

The chain observables compare excitation of neighboring buffer modes,
the bridge observable compares the last buffer mode against the summed
data modes (both squared, modulo w+1), and the per-mode readouts measure
occupation modulo w+1.  Chain and bridge detect loss events; the mode
readouts localize them, which keeps decoding injective for every loss
weight up to w (the squared observables alone conflate residues once
w >= 2).  The observables are integer coefficient rows, and the
read-out is integer arithmetic on occupations, in pure Python.  Every
extended binomial occupation is a multiple of w+1, so each component
of a damaged codeword A_a|i> gives the outcomes of -a: ``diagnose``
reads them off one surviving component of each damaged codeword and
decodes all rows in one lookup, and ``expected_outcomes`` evaluates
the observables on -a.  ``extract_syndrome`` measures one state
observable by observable.

Two recoveries are provided: the conditional re-excitation that shifts
each mode back up by the decoded loss (paper-literal, leaves the damping
envelope uncorrected) and the transpose channel built from the code
projector and adjoint Kraus operators (near-optimal for approximate
codes).  Both act on the loss branches of ``code_channel``
(``compose_naive_recovery``, ``compose_recovery``) and are scored by
``entanglement_fidelity``.  The decoded loss never exceeds the loss on
any mode, so the re-excitation cannot pass a cutoff.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import ge, mul, sub
from typing import NamedTuple

# damaged is bound as a module, executed only once the recovery pipeline
# runs: the syndrome command never executes it
from . import damaged
from ._lazy import np
from .channels import LossPattern
# read nowhere here: the binding bench/trace_child.py spans as syndrome.cc_overlap
from .channels import cc_overlap  # noqa: F401
from .codes import CodeSpec, LogicalBasis
from .fock import Frozen, MeasurementBranch, Occupation, PureState, measure_integer_observable


def _coefficients(w: int, n_modes: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient rows of the measured occupation functionals: w-1
    chain rows, the bridge, then one readout per mode."""
    if n_modes < w:
        raise ValueError(f"the observables need at least w={w} modes, got {n_modes}")

    def row(plus: int, minus=()) -> tuple[int, ...]:
        return tuple(1 if m == plus else -1 if m in minus else 0 for m in range(n_modes))

    chain = [row(i, (i + 1,)) for i in range(w - 1)]
    return (*chain, row(w - 1, range(w, n_modes)), *map(row, range(n_modes)))


def syndrome_observables(spec: CodeSpec) -> tuple[tuple[int, ...], ...]:
    """The coefficient rows of ``spec``'s observables, for the extended
    binomial family only: there every measurement is deterministic on a
    damaged codeword."""
    if spec.family != "extended_binomial":
        raise ValueError("syndrome extraction is defined for the extended binomial family")
    return _coefficients(spec.w, spec.num_modes)


def _outcomes(occupation, coeffs, w: int) -> tuple[int, ...]:
    """Outcomes of the observables ``coeffs`` on one occupation: chain
    and bridge values squared, every value modulo w+1."""
    values = [sum(map(mul, row, occupation)) for row in coeffs]
    return tuple((v * v if x < w else v) % (w + 1) for x, v in enumerate(values))


class SyndromeRecord(NamedTuple):
    """Measured outcomes and post-measurement state."""

    outcomes: tuple[int, ...]  # chain..., bridge, readouts...
    post_state: PureState


def _take_branch(branches: list[MeasurementBranch]) -> MeasurementBranch:
    return max(branches, key=lambda b: b.probability)


def extract_syndrome(s: PureState, spec: CodeSpec) -> SyndromeRecord:
    """Measure chain, bridge, and per-mode readouts in sequence.

    On a single-pattern damaged codeword every outcome is deterministic;
    for other states the most probable branch is followed.
    """
    outcomes: list[int] = []
    state = s
    for x, coeffs in enumerate(syndrome_observables(spec)):
        squared = x < spec.w
        branch = _take_branch(measure_integer_observable(state, coeffs, spec.w + 1, squared))
        outcomes.append(branch.outcome)
        state = branch.state
    return SyndromeRecord(tuple(outcomes), state)


def expected_outcomes(patterns, spec: CodeSpec) -> list[tuple[int, ...]]:
    """Outcomes of the damaged codewords A_a|i> of each of ``patterns``:
    the observables on -a, since every codeword occupation is a multiple
    of w+1."""
    w, n = spec.w, spec.num_modes
    coeffs = _coefficients(w, n)
    rows = [[-x for x in a] for a in patterns]
    if any(len(a) != n for a in rows):
        raise ValueError(f"expected patterns of {n} losses")
    return [_outcomes(a, coeffs, w) for a in rows]


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
    distinct = list(dict.fromkeys(decoded))  # diagnose repeats each per label
    expected = dict(zip(distinct, expected_outcomes(distinct, spec)))
    ambiguous = [sum(x) > w or expected[x][:w] != o[:w] for x, o in zip(decoded, rows)]
    zero = (0,) * n
    return [zero if bad else x for x, bad in zip(decoded, ambiguous)], ambiguous


def decode_patterns(patterns: Sequence[LossPattern], w: int) -> np.ndarray:
    """``decode_lookup(expected_outcomes(patterns))`` without the mask:
    a mod (w+1), read off the mode readouts, wherever its weight is at
    most w, since its chain and bridge outcomes are those of a, and
    zeros elsewhere.  Also defined with fewer than w modes, unlike the
    lookup.
    """
    lift = np.array(patterns, dtype=np.int64) % (w + 1)
    lift[lift.sum(axis=1) > w] = 0
    return lift


def diagnose(basis: LogicalBasis, patterns: Sequence[LossPattern]) -> tuple[list, ...]:
    """Syndrome, decoded pattern and verdict of every nonzero damaged
    codeword A_a|i>, a of ``patterns``.

    The outcomes are read off the first component of each codeword, in
    key order, with at least a's losses on every mode; on an extended
    binomial codeword every component gives the outcomes of -a, so each
    measurement is deterministic.  Returns the lists ``(row, outcomes,
    decoded, ambiguous, match)``, one entry per nonzero damaged
    codeword, whose row in the ``DamagedIndex`` order is a * d + i;
    ``match`` marks the rows decoded to their own pattern, which an
    ambiguous row never is.  Loss patterns that annihilate a codeword
    (possible once a pattern touches data modes whose label bits
    disagree) occur with probability zero and have no row.
    """
    spec = basis.spec
    coeffs = syndrome_observables(spec)
    codewords = [basis.codewords[label].amplitudes for label in spec.labels]
    d = len(codewords)
    row, outcomes = [], []
    for p, a in enumerate(patterns):
        for i, codeword in enumerate(codewords):
            for occupation in codeword:
                if all(map(ge, occupation, a)):
                    row.append(p * d + i)
                    outcomes.append(_outcomes(list(map(sub, occupation, a)), coeffs, spec.w))
                    break
    decoded, ambiguous = decode_lookup(outcomes, spec)
    match = [
        not bad and x == tuple(patterns[r // d]) for r, x, bad in zip(row, decoded, ambiguous)
    ]
    return row, outcomes, decoded, ambiguous, match


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
# Channels on the code space
# ---------------------------------------------------------------------------


class Branches(Frozen):
    """Kraus branches B_m of a channel applied to every codeword.

    Row ``m * d + j`` of ``states`` is B_m|j> for the j-th of the d
    labels, and ``code`` holds the codewords |j> in the same columns:
    occupation keys for the loss channel and the naive recovery, codeword
    indices once the transpose recovery has mapped every branch into the
    code space.  Loss branch a, pattern a of the ``DamagedIndex``, is m = a,
    and recovery b of n_b composed after it is m = a * n_b + b.
    """

    __slots__ = ("code", "states")

    def __init__(self, code: damaged.SparseRows, states: damaged.SparseRows):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.n_rows // len(self.code)

    def norms(self) -> np.ndarray:
        """||B_m|j>||^2 as an array of shape (branches, labels)."""
        return self.states.norms().reshape(len(self), len(self.code))


def code_channel(index: damaged.DamagedIndex, gamma: float) -> tuple[Branches, float]:
    """Amplitude-damping branches of the patterns of ``index`` applied to
    every codeword, plus the worst-case truncation tail (max over
    codewords)."""
    branches = Branches(index.code, index.rows(gamma))
    tail = max(max(0.0, 1.0 - float(t)) for t in branches.norms().sum(axis=0))
    return branches, tail


def entanglement_fidelity(branches: Branches) -> float:
    """F_e = sum_m |Tr(P B_m P) / d|^2 over the code subspace."""
    d = len(branches.code)
    j, s, value = damaged.overlaps(branches.code, branches.states)
    own = j == s % d  # <j| B_m |j>
    # branches with no such entry have a zero trace and add nothing
    _, m = np.unique(s[own] // d, return_inverse=True)
    trace = np.bincount(m, value.real[own]) / d
    trace_im = np.bincount(m, value.imag[own]) / d
    return float(np.cumsum(trace**2 + trace_im**2)[-1]) if len(m) else 0.0


# ---------------------------------------------------------------------------
# Transpose-channel recovery
# ---------------------------------------------------------------------------


class TransposeRecovery(NamedTuple):
    """Recovery Kraus set {P A_b^dag M^(-1/2)} in contracted form.

    Row q of ``bras`` is u_q = M^(-1/2) A_b|i> for the q-th nonzero
    damaged codeword, whose row in the ``DamagedIndex`` over ``patterns``
    is ``index_rows[q]`` = b * d + i, so that
    R_b s = sum_i <u_(b,i)|s> |i>.  ``len(bras)`` is the dimension of
    the Gram matrix; ``dropped`` counts its eigenvalues at or below
    1e-14 times the largest, which the inverse square root leaves out.
    """

    patterns: tuple[LossPattern, ...]
    index_rows: np.ndarray
    bras: damaged.SparseRows
    condition: float
    dropped: int


def _components(n: int, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Connected component of each of n nodes under the links (r, s),
    numbered in order of their smallest node."""
    root = np.arange(n)
    while True:
        low = np.minimum(root[r], root[s])
        nxt = root.copy()
        np.minimum.at(nxt, r, low)
        np.minimum.at(nxt, s, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            return np.unique(root, return_inverse=True)[1]
        root = nxt


def _inverse_sqrt(n: int, r: np.ndarray, s: np.ndarray, entries: np.ndarray):
    """G^(-1/2) on the support of the Hermitian n x n matrix G = (r, s, entries).

    G is block diagonal over the groups of indices its entries link, so
    each block gets its own spectral decomposition; blocks of one size
    share one.  A 1x1 block needs no solver: its eigenvalue is Re G_rr
    and its eigenvector 1, what LAPACK's ``zheevd`` returns for n = 1.
    Larger blocks go through ``eigh``.  Every block is 1x1 for the
    shipped families, whose damaged codewords of weight <= w share no
    occupation; only hand-built codes link them.
    Eigenvalues at or below 1e-14 times the largest are dropped.
    Returns the entries (r, q, value) of G^(-1/2) inside the blocks,
    the condition number of the kept spectrum and the dropped count.
    """
    block = _components(n, r, s)
    size = np.bincount(block)
    members = np.argsort(block, kind="stable")  # indices grouped by block
    position = np.empty(n, dtype=np.int64)
    position[members] = np.arange(n) - (np.cumsum(size) - size)[block[members]]
    spectra = []
    for b in np.flatnonzero(np.bincount(size)).tolist():  # the sizes, ascending
        rows = members[size[block[members]] == b].reshape(-1, b)
        slot = np.empty(len(size), dtype=np.int64)
        slot[block[rows[:, 0]]] = np.arange(len(rows))
        dense = np.zeros((len(rows), b, b), dtype=complex)
        in_b = size[block[r]] == b
        dense[slot[block[r[in_b]]], position[r[in_b]], position[s[in_b]]] = entries[in_b]
        if b == 1:  # eigenvalue Re G_rr, eigenvector 1
            spectra.append((rows, dense.real[:, :, 0], None))
        else:
            spectra.append((rows, *np.linalg.eigh(dense)))
    lam_max = max((float(eigvals.max()) for _, eigvals, _ in spectra), default=0.0)
    if lam_max <= 0.0:
        raise RuntimeError("recovery normalization matrix is numerically zero")
    lam_min, dropped = lam_max, 0
    out_r, out_q, out_value = [], [], []
    for rows, eigvals, eigvecs in spectra:
        keep = eigvals > lam_max * 1e-14
        dropped += int(np.count_nonzero(~keep))
        lam_min = min(lam_min, float(eigvals[keep].min(initial=lam_max)))
        scale = np.where(keep, 1.0 / np.sqrt(np.where(keep, eigvals, 1.0)), 0.0)
        if eigvecs is None:
            inv_sqrt = scale.astype(complex)
        else:
            inv_sqrt = (eigvecs * scale[:, None, :]) @ eigvecs.conj().swapaxes(1, 2)
        b = rows.shape[1]
        out_r.append(np.repeat(rows, b, axis=1).ravel())
        out_q.append(np.tile(rows, b).ravel())
        out_value.append(inv_sqrt.ravel())
    return (
        np.concatenate(out_r), np.concatenate(out_q), np.concatenate(out_value),
        lam_max / lam_min, dropped,
    )


def transpose_recovery(index: damaged.DamagedIndex, gamma: float) -> TransposeRecovery:
    """Build the transpose-channel recovery for the patterns of ``index``.

    M = sum_a A_a P A_a^dag is inverted (square-root) spectrally on its
    support via the Gram matrix of the damaged codewords.
    """
    kets = index.rows(gamma)
    live, row = np.unique(kets.row, return_inverse=True)
    vectors = damaged.SparseRows(len(live), row, kets.key, kets.value)
    r, q, inv_sqrt, condition, dropped = _inverse_sqrt(
        len(live), *damaged.overlaps(vectors, vectors)
    )
    # M and the Gram matrix share their nonzero spectrum, so
    # M^(-1/2) A_b |i> = sum_r G^(-1/2)[r, q] v_r with q the (b, i) column:
    # an overlap of the rows q of G^(-1/2)^* with the columns of V.
    by_occupation = damaged.sorted_rows(
        int(vectors.key.max()) + 1, vectors.key, vectors.row, vectors.value
    )
    q, occupation, value = damaged.overlaps(
        damaged.sorted_rows(len(live), q, r, inv_sqrt.conj()), by_occupation
    )
    bras = damaged.SparseRows(len(live), q, occupation, value)
    return TransposeRecovery(index.patterns, live, bras, condition, dropped)


def compose_recovery(branches: Branches, recovery: TransposeRecovery) -> Branches:
    """Apply every recovery branch R_b after every channel branch.

    The composed branch (b, a) maps |j> to sum_i <u_(b,i)|A_a j> |i>,
    so its states are held in codeword indices.
    """
    d = len(branches.code)
    n_recovery = len(recovery.patterns)
    q, s, value = damaged.overlaps(recovery.bras, branches.states)
    b, i = np.divmod(recovery.index_rows[q], d)
    a, j = np.divmod(s, d)
    identity = np.arange(d)
    return Branches(
        damaged.SparseRows(d, identity, identity, np.ones(d, dtype=complex)),
        damaged.sorted_rows(len(branches) * n_recovery * d, (a * n_recovery + b) * d + j, i, value),
    )


def compose_naive_recovery(branches: Branches, lift: np.ndarray) -> Branches:
    """Shift each loss branch a up by its decoded pattern: key offset ``lift[a]``.

    The syndrome of a damaged codeword depends only on the loss pattern,
    so the offset is one per branch at every gamma.  Branches whose
    syndrome falls outside the correctable lookup (ambiguous) have
    offset 0; they carry probability of order gamma^(w+1).  The decoded
    pattern never exceeds the loss, so the shift cannot pass a cutoff.
    """
    states = branches.states
    shift = lift[states.row // len(branches.code)]
    lifted = damaged.SparseRows(len(states), states.row, states.key + shift, states.value)
    return Branches(branches.code, lifted)


def recovery_infidelity(
    basis: LogicalBasis, index: damaged.DamagedIndex, gammas: Sequence[float]
) -> dict[str, list[dict[str, float]]]:
    """Entanglement infidelity of the naive and the transpose recovery
    applied after amplitude damping, one row per gamma for each.

    The channel keeps loss patterns of weight <= w+2, and the transpose
    recovery those of ``index``, which has weight w; both recoveries are
    composed onto the same channel branches.  The reported infidelity
    adds the channel's truncation tail as a worst case.
    """
    channel = damaged.DamagedIndex(basis, basis.spec.w + 2)
    # the naive recovery's key offset per channel pattern, at every gamma
    strides = damaged.occupation_strides(basis.spec.layout)
    lift = decode_patterns(channel.patterns, basis.spec.w) @ strides
    rows: dict[str, list[dict[str, float]]] = {"naive": [], "transpose": []}
    for gamma in gammas:
        branches, tail = code_channel(channel, gamma)
        fidelities = (
            entanglement_fidelity(compose_naive_recovery(branches, lift)),
            entanglement_fidelity(compose_recovery(branches, transpose_recovery(index, gamma))),
        )
        for column, fe in zip(rows.values(), fidelities):
            column.append({"fidelity": fe, "infidelity": max(0.0, 1.0 - fe) + tail, "tail": tail})
    return rows
