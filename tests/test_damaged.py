"""The array kernel against sparse-state references.

The references are built from ``apply_loss_pattern`` and ``fock.inner``,
one damaged codeword and one inner product at a time, with no shared
index and no join.
"""

import math

import numpy as np
import pytest

from bosonqec.channels import apply_loss_pattern, enumerate_loss_patterns
from bosonqec.codes import FAMILIES, CodeSpec, LogicalBasis, logical_basis
from bosonqec.damaged import DamagedIndex, Sums, occupation_strides, overlaps, state_rows
from bosonqec.fock import ModeLayout, PureState, inner
from bosonqec.kl import diagonal_deviation, kl_matrix
from bosonqec.syndrome import (
    _inverse_sqrt,
    code_channel,
    entanglement_fidelity,
    expected_outcomes,
    recovery_infidelity,
    transpose_recovery,
)
from reference import decode_lookup, reexcite

GAMMAS = (0.0, 1e-3, 1e-2)
TOL = 1e-13

SMALL_SPECS = [
    CodeSpec(family, w, k)
    for family in FAMILIES
    for w in (1, 2)
    for k in (1, 2)
    if k == 1 or family not in ("one_mode_binomial", "two_mode_binomial")
]


# every family x (w, k) the CLI accepts
CLI_SPECS = [
    CodeSpec(family, w, k)
    for family in FAMILIES
    for w in (1, 2, 3)
    for k in (1, 2, 3)
    if k == 1 or family not in ("one_mode_binomial", "two_mode_binomial")
]


def spec_id(spec):
    return f"{spec.family}-w{spec.w}k{spec.k}"


def damaged_states(basis, patterns, gamma):
    return {
        (a, label): apply_loss_pattern(basis.codewords[label], a, gamma)
        for a in patterns
        for label in basis.spec.labels
    }


# The references take the damaged codewords of every pattern of weight
# <= w+2 at one gamma, from ``damaged_states``.


def reference_kl(basis, damaged):
    spec = basis.spec
    labels = spec.labels
    patterns = enumerate_loss_patterns(spec.num_modes, spec.w)
    offdiag = cross = diag_dev = 0.0
    for k in patterns:
        for ell in patterns:
            for i in labels:
                for j in labels:
                    value = abs(inner(damaged[(k, i)], damaged[(ell, j)]))
                    if i != j:
                        offdiag = max(offdiag, value)
                    elif k != ell:
                        cross = max(cross, value)
    for k in patterns:
        zero = inner(damaged[(k, labels[0])], damaged[(k, labels[0])])
        for i in labels:
            diag_dev = max(diag_dev, abs(inner(damaged[(k, i)], damaged[(k, i)]) - zero))
    return offdiag, cross, diag_dev


def reference_tail(basis, damaged):
    return max(
        max(0.0, 1.0 - sum(v.norm_squared() for (_, lab), v in damaged.items() if lab == label))
        for label in basis.spec.labels
    )


def readout_decode(state, w):
    """The loss pattern read off a damaged codeword as every mode's
    occupation mod (w+1), or None past weight w.

    Codeword occupations are multiples of w+1, so the readout is the
    same on every occupation of the state.
    """
    readouts = {tuple(-n % (w + 1) for n in occ) for occ in state.amplitudes}
    assert len(readouts) == 1
    decoded = readouts.pop()
    return decoded if sum(decoded) <= w else None


def reference_fidelity(basis, damaged, recovery):
    """Entanglement fidelity of the weight <= w+2 channel after ``recovery``."""
    spec = basis.spec
    labels = spec.labels
    d = len(labels)
    channel = enumerate_loss_patterns(spec.num_modes, spec.w + 2)
    if recovery == "transpose":
        recovery_patterns = enumerate_loss_patterns(spec.num_modes, spec.w)
        keys = [
            (b, label)
            for b in recovery_patterns
            for label in labels
            if damaged[(b, label)].norm_squared() > 0.0
        ]
        gram = np.array([[inner(damaged[u], damaged[v]) for v in keys] for u in keys])
        eigvals, eigvecs = np.linalg.eigh(gram)
        keep = eigvals > eigvals[-1] * 1e-14
        inv_sqrt = (eigvecs[:, keep] / np.sqrt(eigvals[keep])) @ eigvecs[:, keep].conj().T
        columns = [
            (a, label) for a in channel for label in labels
            if damaged[(a, label)].norm_squared() > 0.0
        ]
        supports = {key: damaged[key].amplitudes.keys() for key in keys + columns}
        overlap = np.array([
            [
                0.0 if supports[u].isdisjoint(supports[v]) else inner(damaged[u], damaged[v])
                for v in columns
            ]
            for u in keys
        ])
        by_label = {label: [x for x, (_, j) in enumerate(columns) if j == label] for label in labels}
        # <u_q| A_a j> with u_q = sum_r G^(-1/2)[r, q] v_r
        recovered = inv_sqrt.conj().T @ overlap
        traces = {}
        for q, (b, label) in enumerate(keys):
            for x in by_label[label]:  # <j| R_b A_a |j>
                a = columns[x][0]
                traces[(b, a)] = traces.get((b, a), 0.0) + recovered[q, x]
        fe = sum(abs(t / d) ** 2 for t in traces.values())
        return fe
    if recovery == "naive" and spec.num_modes >= spec.w:
        lookup, ambiguous = decode_lookup(expected_outcomes(channel, spec), spec)
    fe = 0.0
    for p, a in enumerate(channel):
        trace = 0.0
        for label in labels:
            state = damaged[(a, label)]
            decoded = None
            if recovery == "naive" and spec.num_modes >= spec.w:
                decoded = None if ambiguous[p] else lookup[p]
            elif recovery == "naive" and len(state):
                decoded = readout_decode(state, spec.w)
            if decoded is not None:
                state = reexcite(state, decoded)
            trace += inner(basis.codewords[label], state)
        fe += abs(trace / d) ** 2
    return fe


def test_rows_are_apply_loss_pattern_bit_for_bit():
    for spec in SMALL_SPECS:
        basis = logical_basis(spec)
        index = DamagedIndex(basis, spec.w + 2)
        patterns = index.patterns
        assert list(patterns) == enumerate_loss_patterns(spec.num_modes, spec.w + 2)
        code = state_rows([basis.codewords[label] for label in spec.labels])
        assert all(
            np.array_equal(getattr(index.code, f), getattr(code, f)) for f in ("row", "key", "value")
        )
        for gamma in GAMMAS + (0.3,):
            got = index.rows(gamma)
            damaged = damaged_states(basis, patterns, gamma)
            want = state_rows([damaged[(a, label)] for a in patterns for label in spec.labels])
            assert len(got) == len(want)
            assert np.array_equal(got.row, want.row)
            assert np.array_equal(got.key, want.key)
            assert np.array_equal(got.value, want.value)


def test_unpruned_rows_share_the_index_support():
    # the joins a grid needs are computed once on the index's support; a
    # gamma that prunes gets its own, and a support keeps one join
    basis = logical_basis(CodeSpec("extended_binomial", 1, 2))
    index = DamagedIndex(basis, 3)
    first, second = index.rows(1e-3), index.rows(1e-2)
    assert first.support is second.support is index.support
    assert overlaps(first, first)[0] is overlaps(second, second)[0]
    pruned = index.rows(0.0)
    assert pruned.support is not index.support
    assert len(pruned.value) < len(first.value)
    for gamma in (0.0, 1e-3, 0.0):
        rows = index.rows(gamma)
        overlaps(index.code, rows)
    assert len(index.code.support._derived) == 1


def test_overlaps_match_inner_on_shared_supports():
    # random complex states on few occupations, so many rows share keys
    rng = np.random.default_rng(11)
    layout = ModeLayout((2, 3))
    occupations = list(layout.all_occupations())
    states = []
    for _ in range(9):
        picks = rng.choice(len(occupations), size=int(rng.integers(0, 6)), replace=False)
        states.append(PureState(layout, {
            occupations[p]: complex(rng.standard_normal(), rng.standard_normal()) for p in picks
        }))
    r, s, value = overlaps(state_rows(states[:5]), state_rows(states))
    listed = {(int(a), int(b)): v for a, b, v in zip(r, s, value)}
    assert list(listed) == sorted(listed)
    for a in range(5):
        for b in range(len(states)):
            shared = set(states[a].amplitudes) & set(states[b].amplitudes)
            if shared:
                assert listed[(a, b)] == inner(states[a], states[b])
            else:
                assert (a, b) not in listed


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=spec_id)
def test_kernel_matches_sparse_reference(spec):
    basis = logical_basis(spec)
    channel = enumerate_loss_patterns(spec.num_modes, spec.w + 2)
    rows = recovery_infidelity(basis, DamagedIndex(basis, spec.w), GAMMAS)
    for x, gamma in enumerate(GAMMAS):
        damaged = damaged_states(basis, channel, gamma)
        report = kl_matrix(basis, gamma)
        offdiag, cross, diag_dev = reference_kl(basis, damaged)
        assert abs(report.offdiag_max - offdiag) <= TOL
        assert abs(report.cross_max - cross) <= TOL
        assert abs(report.diag_deviation - diag_dev) <= TOL
        assert abs(diagonal_deviation(DamagedIndex(basis, spec.w), gamma) - diag_dev) <= TOL
        branches, tail = code_channel(DamagedIndex(basis, spec.w + 2), gamma)
        assert abs(tail - reference_tail(basis, damaged)) <= TOL
        unrecovered = reference_fidelity(basis, damaged, "none")
        assert abs(entanglement_fidelity(branches) - unrecovered) <= TOL
        for recovery in ("naive", "transpose"):
            row = rows[recovery][x]
            assert abs(row["fidelity"] - reference_fidelity(basis, damaged, recovery)) <= TOL
            assert row["infidelity"] == max(0.0, 1.0 - row["fidelity"]) + row["tail"]
            assert math.isclose(row["tail"], tail, abs_tol=0.0)


def test_transpose_recovery_on_linked_damaged_codewords():
    # one loss on either mode takes (|1,0> + |0,1>)/sqrt(2) to |0,0>, so
    # those two damaged codewords form a rank-one 2x2 Gram block
    spec = CodeSpec("extended_binomial", 1, 1)
    layout = spec.layout
    half = 1 / math.sqrt(2)
    basis = LogicalBasis(spec, {
        "0": PureState(layout, {(1, 0): half, (0, 1): half}),
        "1": PureState(layout, {(2, 2): 1.0}),
    })
    for gamma in (1e-3, 1e-2):
        recovery = transpose_recovery(DamagedIndex(basis, spec.w), gamma)
        assert len(recovery.bras) == 6 and recovery.dropped == 1
        channel = enumerate_loss_patterns(spec.num_modes, spec.w + 2)
        damaged = damaged_states(basis, channel, gamma)
        [row] = recovery_infidelity(basis, DamagedIndex(basis, spec.w), (gamma,))["transpose"]
        assert abs(row["fidelity"] - reference_fidelity(basis, damaged, "transpose")) <= TOL


def linked_basis():
    """One loss on either mode takes (|1,0> + |0,1>)/sqrt(2) to |0,0>, so
    those two damaged codewords share an occupation."""
    spec = CodeSpec("extended_binomial", 1, 1)
    half = 1 / math.sqrt(2)
    return LogicalBasis(spec, {
        "0": PureState(spec.layout, {(1, 0): half, (0, 1): half}),
        "1": PureState(spec.layout, {(2, 2): 1.0}),
    })


def test_linked_gram_block_is_numpys_eigh():
    # the rank-one 2x2 Gram block takes spectral's Jacobi step; numpy's
    # eigh of the same matrix is the reference the recovery is held to
    basis = linked_basis()
    spec = basis.spec
    strides = occupation_strides(spec.layout)
    for gamma in (1e-3, 1e-2):
        index = DamagedIndex(basis, spec.w)
        recovery = transpose_recovery(index, gamma)
        damaged = damaged_states(basis, index.patterns, gamma)
        live = [damaged[(a, label)] for a in index.patterns for label in spec.labels
                if len(damaged[(a, label)])]
        assert len(recovery.index_rows) == len(live) == 6
        gram = np.array([[inner(u, v) for v in live] for u in live])
        eigvals, eigvecs = np.linalg.eigh(gram)
        keep = eigvals > eigvals.max() * 1e-14
        assert recovery.dropped == np.count_nonzero(~keep) == 1
        assert type(recovery.condition) is float
        assert math.isclose(recovery.condition, eigvals.max() / eigvals[keep].min(), rel_tol=1e-12)
        inv_sqrt = (eigvecs[:, keep] / np.sqrt(eigvals[keep])) @ eigvecs[:, keep].conj().T
        def key(occ):
            return sum(n * s for n, s in zip(occ, strides))

        keys = sorted({key(occ) for v in live for occ in v.amplitudes})
        vectors = np.zeros((len(live), len(keys)), dtype=complex)
        for q, v in enumerate(live):
            for occ, amp in v.amplitudes.items():
                vectors[q, keys.index(key(occ))] = amp
        want = inv_sqrt.T @ vectors  # row q is sum_r G^(-1/2)[r, q] v_r
        got = np.zeros_like(want)
        for q, key, value in zip(recovery.bras.row, recovery.bras.key, recovery.bras.value):
            got[q, keys.index(key)] = value
        assert np.abs(got - want).max() <= 1e-13


def test_sums_add_each_run_in_its_order():
    # runs in shuffled lengths, so the sums come back through a
    # permutation, in the first case one of period two
    rng = np.random.default_rng(8)
    terms = (10.0 ** rng.uniform(-20, 0, 60) * rng.choice([-1, 1], 60)).tolist()

    def sequential(starts, total):
        sums = []
        for a, b in zip(starts, [*starts[1:], total]):
            acc = 0.0
            for term in terms[a:b]:
                acc += term
            sums.append(acc)
        return sums

    cuts = sorted(rng.choice(np.arange(1, 60), 20, replace=False).tolist())
    for starts, total in (([0, 1, 3], 6), ([0, 2, 3, 6], 8), ([0, *cuts], 60)):
        assert Sums(starts, total)(terms, 0.0) == sequential(starts, total)
    assert Sums([], 0)(terms, 0.0) == []


@pytest.mark.parametrize("spec", CLI_SPECS, ids=spec_id)
def test_every_gram_block_is_one_by_one(spec):
    """No two weight-w damaged codewords of a shipped code share an
    occupation, so the Gram matrix of the transpose recovery is diagonal.

    The codeword component c is read back from a damaged occupation
    o = c - a, a of weight <= w.  In the binomial and extended binomial
    families every occupation of c is a multiple of w+1 and a removes at
    most w from any mode, so c is o rounded up to multiples of w+1.  In
    qubit-shor each block of w+1 modes of c is all 0 or all 1, and a
    cannot empty a whole block, so c's block is all 1 where o's has a 1.
    Then c gives a = c - o, and its label: no component lies in two
    codewords.
    """
    basis = logical_basis(spec)
    index = DamagedIndex(basis, spec.w)
    # at the largest gamma accepted no amplitude is pruned
    rows = index.rows(0.05)
    r, s, _ = overlaps(rows, rows)
    assert np.array_equal(r, s)
    assert np.array_equal(r, np.unique(rows.row))


def test_one_by_one_gram_step_is_eigh_bit_for_bit():
    # a diagonal Gram matrix over 17 decades, with an exact zero and
    # entries below 1e-14 times the largest, which are dropped
    rng = np.random.default_rng(5)
    gram = np.concatenate([[0.0, 7.3e4, 3.1e-12], 10.0 ** rng.uniform(-12.0, 5.0, 40)])
    rng.shuffle(gram)
    n = len(gram)
    diagonal = np.arange(n)
    r, q, value, condition, dropped = _inverse_sqrt(n, diagonal, diagonal, gram.astype(complex))
    # numpy's eigh on the (n, 1, 1) stack of 1x1 blocks, which the 1x1 path
    # equals bit for bit without calling a solver
    eigvals, eigvecs = np.linalg.eigh(gram.astype(complex).reshape(n, 1, 1))
    keep = eigvals > eigvals.max() * 1e-14
    scale = np.where(keep, 1.0 / np.sqrt(np.where(keep, eigvals, 1.0)), 0.0)
    inv_sqrt = (eigvecs * scale[:, None, :]) @ eigvecs.conj().swapaxes(1, 2)
    assert np.array_equal(r, diagonal) and np.array_equal(q, diagonal)
    assert np.array_equal(value, inv_sqrt.ravel())
    assert condition == eigvals.max() / eigvals[keep].min()
    assert dropped == np.count_nonzero(~keep) >= 2
