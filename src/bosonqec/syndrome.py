"""Syndrome read-out, decoding, and recovery channels.

The chain observables compare excitation of neighboring buffer modes,
the bridge observable compares the last buffer mode against the summed
data modes (both squared, modulo w+1), and the per-mode readouts measure
occupation modulo w+1.  Chain and bridge detect loss events; the mode
readouts localize them, which keeps decoding injective for every loss
weight up to w (the squared observables alone conflate residues once
w >= 2).  The observables are integer coefficient rows, and the
read-out is closed-form integer arithmetic on the loss pattern, in
pure Python.  Every extended binomial occupation is a multiple of w+1,
so each component of a damaged codeword A_a|i> gives the outcomes of
-a, a function of a mod (w+1) alone: ``expected_outcomes`` evaluates
the observables on -a, and ``decode_patterns``, the one decoder, reads
a mod (w+1) off the readouts, zeros past weight w.  ``diagnose`` does
both once per pattern.  The tests hold it to a measurement of one
state, observable by observable, and to the outcome-row lookup with
its chain/bridge cross-check.

Two recoveries are provided: the conditional re-excitation that shifts
each mode back up by the decoded loss (paper-literal, leaves the damping
envelope uncorrected) and the transpose channel built from the code
projector and adjoint Kraus operators (near-optimal for approximate
codes).  Both act on the loss branches of ``code_channel``
(``compose_naive_recovery``, ``compose_recovery``) and are scored by
``entanglement_fidelity``.  The decoded loss never exceeds the loss on
any mode, so the re-excitation cannot pass a cutoff.

The recovery pipeline runs on the pure-Python kernel in ``damaged``.
What depends on the places of the damaged codewords' entries alone, the
joins, the blocks of the Gram matrix, the lifted and the composed
branches, is computed once per ``damaged.Support`` and kept there, so
each gamma of a grid is C-level passes over amplitudes.  Gram blocks
larger than 1x1, of hand-built codes or of loss weights above w, take
the Jacobi step in ``spectral``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from functools import reduce
from itertools import compress, repeat
from operator import add, attrgetter, eq, floordiv, ge, mod, mul, ne, truediv
from typing import NamedTuple

# bound as modules, executed only once the recovery pipeline runs (damaged)
# or a Gram block is larger than 1x1 (spectral): syndrome executes neither
from . import damaged, spectral
from .channels import LossPattern
# read nowhere here: the binding bench/trace_child.py spans as syndrome.cc_overlap
from .channels import cc_overlap  # noqa: F401
from .codes import CodeSpec, LogicalBasis
from .fock import Frozen


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


def expected_outcomes(patterns, spec: CodeSpec) -> list[tuple[int, ...]]:
    """Outcomes of the damaged codewords A_a|i> of each of ``patterns``:
    the observables on -a, chain and bridge values squared, every value
    modulo w+1, since every codeword occupation is a multiple of w+1."""
    w, n = spec.w, spec.num_modes
    coeffs = _coefficients(w, n)
    if any(len(a) != n for a in patterns):
        raise ValueError(f"expected patterns of {n} losses")
    # a value on -a is minus the value on a; squaring drops the sign
    values = ([sum(map(mul, row, a)) for row in coeffs] for a in patterns)
    return [tuple((v * v if x < w else -v) % (w + 1) for x, v in enumerate(vs)) for vs in values]


def decode_patterns(patterns: Sequence[LossPattern], w: int) -> list[tuple[int, ...]]:
    """The decoded pattern of each of ``patterns``: a mod (w+1), which
    the mode readouts of ``expected_outcomes`` give, wherever its weight
    is at most w, and zeros elsewhere (the ambiguous syndromes).  Chain
    and bridge need no check: their outcomes are those of a mod (w+1).
    Also defined with fewer than w modes, unlike the observables.
    """
    lifts = [a if max(a) <= w else tuple(x % (w + 1) for x in a) for a in patterns]
    return [lift if sum(lift) <= w else (0,) * len(lift) for lift in lifts]


def diagnose(basis: LogicalBasis, patterns: Sequence[LossPattern]) -> tuple[list, ...]:
    """Syndrome, decoded pattern and verdict of every nonzero damaged
    codeword A_a|i>, a of ``patterns``.

    Every component of an extended binomial A_a|i> gives the outcomes of
    -a, so each measurement is deterministic, and the outcomes, decoded
    pattern and verdict of a pattern are shared by its codewords.
    Returns the lists ``(row, outcomes, decoded, ambiguous, match)``,
    one entry per nonzero damaged codeword, whose row in the
    ``DamagedIndex`` order is a * d + i.  A pattern is ambiguous where
    a mod (w+1) weighs more than w; ``match`` marks the rows decoded to
    their own pattern, which an ambiguous row never is.  Loss patterns
    that annihilate a codeword (possible once a pattern touches data
    modes whose label bits disagree) occur with probability zero and
    have no row.
    """
    spec, w = basis.spec, basis.spec.w
    syndrome_observables(spec)  # the outcomes of -a hold for the extended binomial family alone
    codewords = [basis.codewords[label].amplitudes for label in spec.labels]
    d = len(codewords)
    row = [
        p * d + i
        for p, a in enumerate(patterns)
        for i, codeword in enumerate(codewords)
        if any(all(map(ge, occupation, a)) for occupation in codeword)
    ]
    ambiguous = [sum(y % (w + 1) for y in a) > w for a in patterns]
    decoded = decode_patterns(patterns, w)
    match = [not bad and x == a for x, a, bad in zip(decoded, patterns, ambiguous)]
    columns = (expected_outcomes(patterns, spec), decoded, ambiguous, match)  # one per pattern
    return (row, *([column[r // d] for r in row] for column in columns))


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


def code_channel(index: damaged.DamagedIndex, gamma: float) -> tuple[Branches, float]:
    """Amplitude-damping branches of the patterns of ``index`` applied to
    every codeword, plus the worst-case truncation tail (max over
    codewords): 1 minus the sum of a codeword's branch norms ||B_m|j>||^2
    in branch order, each norm summed in key order.

    The norms are summed in one pass here, not through
    ``SparseRows.norms``: the channel has the largest support, and the
    row plan that method keeps would hold an index for every entry.
    """
    branches = Branches(index.code, index.rows(gamma))
    d = len(index.code)
    kept = [0.0] * d
    row, norm = 0, 0.0
    for r, v in zip(branches.states.row, branches.states.value):
        if r != row:
            kept[row % d] += norm
            row, norm = r, 0.0
        norm += v.real * v.real + v.imag * v.imag
    kept[row % d] += norm
    return branches, max(max(0.0, 1.0 - total) for total in kept)


def _traces(code: damaged.Support, states: damaged.Support) -> tuple[list[int], damaged.Sums]:
    """The places, in the join of ``code`` with ``states``, of the
    overlaps <j| B_m |j>, in order of m and then of j, and the sums of
    each branch m's ones."""
    d = code.n_rows
    r, s = code.derived(damaged.join, states)[:2]
    own = list(compress(range(len(r)), map(eq, r, map(mod, s, repeat(d)))))
    branch = list(map(floordiv, map(s.__getitem__, own), repeat(d)))
    order = sorted(range(len(own)), key=branch.__getitem__)  # j stays ascending
    branch = list(map(branch.__getitem__, order))
    return list(map(own.__getitem__, order)), damaged.Sums(damaged.runs(branch), len(own))


def entanglement_fidelity(branches: Branches) -> float:
    """F_e = sum_m |Tr(P B_m P) / d|^2 over the code subspace.

    Tr(P B_m P) sums the listed <j| B_m |j> over j in order; a branch
    with none has a zero trace and adds nothing.
    """
    d = len(branches.code)
    _, _, value = damaged.overlaps(branches.code, branches.states)
    own, sums = branches.code.support.derived(_traces, branches.states.support)
    traces = sums(list(map(value.__getitem__, own)), 0j)
    re = list(map(truediv, map(attrgetter("real"), traces), repeat(d)))
    im = list(map(truediv, map(attrgetter("imag"), traces), repeat(d)))
    return reduce(add, map(add, map(mul, re, re), map(mul, im, im)), 0.0)


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
    1e-14 times the largest, which the inverse square root leaves out,
    and ``condition`` is the ratio of the largest kept one to the
    smallest, a float.
    """

    patterns: tuple[LossPattern, ...]
    index_rows: tuple[int, ...]
    bras: damaged.SparseRows
    condition: float
    dropped: int


def _components(n: int, r, s) -> list[int]:
    """Connected component of each of n nodes under the links (r, s),
    numbered in order of their smallest node."""
    root = list(range(n))  # every root is the smallest node of its tree

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for x, y in zip(r, s):
        if x != y:
            x, y = find(x), find(y)
            root[max(x, y)] = min(x, y)
    for x in range(n):  # a node's parent is smaller, so its root is final
        root[x] = root[root[x]]
    number = dict(zip(dict.fromkeys(root), range(n)))
    return list(map(number.__getitem__, root))


def _blocks(n: int, r, s) -> tuple[list[int], list[list[int]], list[int], list[int]]:
    """The blocks of the n x n matrix with entries at (r, s), the groups
    of indices its entries link: the 1x1 ones, the larger ones in order
    of their smallest index, and the places (r, q) of the entries of a
    matrix on those blocks, in the order ``_inverse_sqrt`` gives them."""
    block = _components(n, r, s)
    size = list(map(Counter(block).__getitem__, block))  # of each index's block
    single = list(compress(range(n), map(eq, size, repeat(1))))
    members: dict[int, list[int]] = {}
    for x in compress(range(n), map(ne, size, repeat(1))):
        members.setdefault(block[x], []).append(x)
    larger = list(members.values())
    out_r = single + [x for m in larger for x in m for _ in m]
    out_q = single + [y for m in larger for _ in m for y in m]
    return single, larger, out_r, out_q


def _inverse_sqrt(n: int, r, s, entries):
    """G^(-1/2) on the support of the Hermitian n x n matrix G = (r, s, entries).

    G is block diagonal over the groups of indices its entries link.  A
    1x1 block needs no solver: its eigenvalue is Re G_rr and its
    eigenvector 1, what LAPACK's ``zheevd`` returns for n = 1.  Larger
    ones, which the shipped families have only above loss weight w and
    hand-built codes at any, take ``spectral``'s Jacobi step.
    Eigenvalues at or below 1e-14 times the largest are dropped.
    Returns the entries (r, q, value) of G^(-1/2) inside the blocks,
    the condition number of the kept spectrum and the dropped count.
    """
    single, larger, out_r, out_q = _blocks(n, r, s)
    diagonal = {x: entry.real for x, y, entry in zip(r, s, entries) if x == y}
    spectra = [([diagonal.get(x, 0.0) for x in single], None)]  # (eigenvalues, eigenvectors)
    spectra += [spectral.eigh(larger, r, s, entries)] if larger else []
    lam_max = max(max(eigvals, default=0.0) for eigvals, _ in spectra)
    if lam_max <= 0.0:
        raise RuntimeError("recovery normalization matrix is numerically zero")
    kept = [lam for eigvals, _ in spectra for lam in eigvals if lam > lam_max * 1e-14]
    dropped = sum(len(eigvals) for eigvals, _ in spectra) - len(kept)
    values: list[complex] = []
    for eigvals, eigvecs in spectra:
        scale = [1.0 / math.sqrt(lam) if lam > lam_max * 1e-14 else 0.0 for lam in eigvals]
        values += map(complex, scale) if eigvecs is None else spectral.rebuild(eigvecs, scale)
    return out_r, out_q, values, lam_max / min(kept), dropped


class _TransposePlan(NamedTuple):
    """What ``transpose_recovery`` computes from the support of the
    damaged codewords alone."""

    live: tuple[int, ...]          # the rows with entries
    vectors: damaged.Support       # their entries, the rows numbered in order
    by_occupation: damaged.Support  # the same entries, transposed
    transposed: list[int]          # the entry order of by_occupation
    weights: damaged.Support       # the entries (q, r) of G^(-1/2)
    weighted: list[int]            # their order from _inverse_sqrt's
    bras: damaged.Support          # the entries of M^(-1/2) A_b|i>


def _transpose_plan(kets: damaged.Support) -> _TransposePlan:
    live = tuple(dict.fromkeys(kets.row))
    position = dict(zip(live, range(len(live))))
    vectors = damaged.Support(len(live), list(map(position.__getitem__, kets.row)), kets.key)
    by_occupation, transposed = damaged.sorted_support(
        max(kets.key, default=-1) + 1, vectors.key, vectors.row
    )
    r, q = _blocks(len(live), *vectors.derived(damaged.join, vectors)[:2])[2:]
    weights, weighted = damaged.sorted_support(len(live), q, r)
    bras = damaged.Support(len(live), *weights.derived(damaged.join, by_occupation)[:2])
    return _TransposePlan(live, vectors, by_occupation, transposed, weights, weighted, bras)


def transpose_recovery(index: damaged.DamagedIndex, gamma: float) -> TransposeRecovery:
    """Build the transpose-channel recovery for the patterns of ``index``.

    M = sum_a A_a P A_a^dag is inverted (square-root) spectrally on its
    support via the Gram matrix of the damaged codewords.
    """
    kets = index.rows(gamma)
    plan = kets.support.derived(_transpose_plan)
    vectors = damaged.SparseRows(plan.vectors, kets.value)
    _, _, inv_sqrt, condition, dropped = _inverse_sqrt(
        len(plan.live), *damaged.overlaps(vectors, vectors)
    )
    # M and the Gram matrix share their nonzero spectrum, so
    # M^(-1/2) A_b |i> = sum_r G^(-1/2)[r, q] v_r with q the (b, i) column:
    # an overlap of the rows q of G^(-1/2)^* with the columns of V.
    weights = damaged.SparseRows(
        plan.weights, list(map(complex.conjugate, map(inv_sqrt.__getitem__, plan.weighted)))
    )
    by_occupation = damaged.SparseRows(
        plan.by_occupation, list(map(kets.value.__getitem__, plan.transposed))
    )
    bras = damaged.SparseRows(plan.bras, damaged.overlaps(weights, by_occupation)[2])
    return TransposeRecovery(index.patterns, plan.live, bras, condition, dropped)


def _composed(bras: damaged.Support, states: damaged.Support, index_rows: tuple[int, ...],
              n_recovery: int, d: int) -> tuple[damaged.Support, damaged.Support, list[int]]:
    """The code and branch supports of the recovery with bras on ``bras``
    composed after the branches on ``states``, and the order that takes
    the overlaps of the two to the branch entries."""
    q, s = bras.derived(damaged.join, states)[:2]
    bra_rows = list(map(index_rows.__getitem__, q))  # b * d + i
    branches, order = damaged.sorted_support(
        states.n_rows * n_recovery,
        [(a // d * n_recovery + bi // d) * d + a % d for a, bi in zip(s, bra_rows)],
        [bi % d for bi in bra_rows],
    )
    identity = list(range(d))
    return damaged.Support(d, identity, identity), branches, order


def compose_recovery(branches: Branches, recovery: TransposeRecovery) -> Branches:
    """Apply every recovery branch R_b after every channel branch.

    The composed branch (b, a) maps |j> to sum_i <u_(b,i)|A_a j> |i>,
    so its states are held in codeword indices.
    """
    d = len(branches.code)
    _, _, value = damaged.overlaps(recovery.bras, branches.states)
    code, states, order = recovery.bras.support.derived(
        _composed, branches.states.support, recovery.index_rows, len(recovery.patterns), d
    )
    return Branches(
        damaged.SparseRows(code, [1 + 0j] * d),
        damaged.SparseRows(states, list(map(value.__getitem__, order))),
    )


def _lifted(states: damaged.Support, lift: tuple[int, ...], d: int) -> damaged.Support:
    """``states`` with the keys of each branch a, rows a * d to a * d + d - 1,
    raised by ``lift[a]``."""
    key = states.key[:]
    for a in compress(range(len(lift)), lift):  # the branches with a nonzero offset
        lo, hi = bisect_left(states.row, a * d), bisect_left(states.row, (a + 1) * d)
        key[lo:hi] = map(add, key[lo:hi], repeat(lift[a]))
    return damaged.Support(states.n_rows, states.row, key)


def compose_naive_recovery(branches: Branches, lift: tuple[int, ...]) -> Branches:
    """Shift each loss branch a up by its decoded pattern: key offset ``lift[a]``
    (a tuple, the key of the lifted support kept on the branches' one).

    The syndrome of a damaged codeword depends only on the loss pattern,
    so the offset is one per branch at every gamma.  Branches whose
    syndrome falls outside the correctable lookup (ambiguous) have
    offset 0; they carry probability of order gamma^(w+1).  The decoded
    pattern never exceeds the loss, so the shift cannot pass a cutoff.
    """
    states = branches.states
    support = states.support.derived(_lifted, lift, len(branches.code))
    return Branches(branches.code, damaged.SparseRows(support, states.value))


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
    lifts = decode_patterns(channel.patterns, basis.spec.w)
    lift = tuple(map(sum, map(map, repeat(mul), lifts, repeat(strides))))
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
