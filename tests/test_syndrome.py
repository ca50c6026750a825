import math
from itertools import product

import numpy as np
import pytest

from bosonqec.channels import (
    CC_BLOCK,
    apply_cc,
    apply_loss_pattern,
    cc_overlap,
    enumerate_loss_patterns,
)
from bosonqec.codes import FAMILIES, CodeSpec, logical_basis
from bosonqec.damaged import DamagedIndex, overlaps, state_rows
from bosonqec.fock import (
    ModeLayout, PureState, add_states, inner, measure_integer_observable,
)
from bosonqec.syndrome import (
    code_channel,
    compose_recovery,
    decode_patterns,
    diagnose,
    entanglement_fidelity,
    expected_outcomes,
    recovery_infidelity,
    syndrome_observables,
    transpose_recovery,
)
from bosonqec.cli import GRID_HI, GRID_LO, GRID_POINTS
from bosonqec.kl import fit_order
from reference import decode_lookup, extract_syndrome, measure_squared_observable, reexcite

rng = np.random.default_rng(2718)

GRID = tuple(np.geomspace(GRID_LO, GRID_HI, GRID_POINTS).tolist())

SPEC11 = CodeSpec("extended_binomial", 1, 1)
BASIS11 = logical_basis(SPEC11)


def damaged(basis, label, pattern, gamma=0.4):
    state = apply_loss_pattern(basis.codewords[label], pattern, gamma)
    return state.normalized()


def sequential_decode(state, spec):
    """Post-measurement state and decoded pattern of one state, measured
    observable by observable."""
    record = extract_syndrome(state, spec)
    [decoded], [ambiguous] = decode_lookup([record.outcomes], spec)
    assert not ambiguous
    return record.post_state, decoded


def reference_decode(outcomes, spec):
    """The lookup of one outcome tuple, with the chain and bridge
    outcomes of the decoded pattern written out: the readouts give the
    pattern, or None past weight w or on a chain/bridge mismatch."""
    w, m = spec.w, spec.w + 1
    decoded = tuple(-r % m for r in outcomes[w:])
    chain = [(decoded[i + 1] - decoded[i]) ** 2 % m for i in range(w - 1)]
    bridge = (sum(decoded[w:]) - decoded[w - 1]) ** 2 % m
    if sum(decoded) > w or tuple(chain) + (bridge,) != tuple(outcomes[:w]):
        return None
    return decoded


EXT_BIN = [CodeSpec("extended_binomial", w, k) for w, k in product((1, 2, 3), (1, 2, 3))]


def test_observable_counts():
    for w, k in [(1, 1), (2, 2), (3, 1)]:
        obs = syndrome_observables(CodeSpec("extended_binomial", w, k))
        chain, readouts = obs[: w - 1], obs[w:]
        assert len(chain) == w - 1
        assert len(readouts) == w + k
        assert np.array_equal(readouts, np.eye(w + k))
    with pytest.raises(ValueError):
        syndrome_observables(CodeSpec("qubit_shor_ad", 1, 1))


def test_extract_single_loss_example():
    record = extract_syndrome(damaged(BASIS11, "0", (1, 0)), SPEC11)
    # (bridge, readout_0, readout_1) for the state proportional to |1,2>
    assert record.outcomes == (1, 1, 0)


def test_extract_undamaged_all_zero():
    for label in ("0", "1"):
        record = extract_syndrome(BASIS11.codewords[label], SPEC11)
        assert record.outcomes == (0, 0, 0)


def test_squared_observables_conflate_residues_w2():
    # chain and bridge outcomes agree for losses 2 and 1 on mode 0, the
    # per-mode readouts tell them apart
    spec = CodeSpec("extended_binomial", 2, 1)
    basis = logical_basis(spec)
    rec2 = extract_syndrome(damaged(basis, "0", (2, 0, 0)), spec)
    rec1 = extract_syndrome(damaged(basis, "0", (1, 0, 0)), spec)
    assert rec2.outcomes[:2] == rec1.outcomes[:2] == (1, 0)
    assert rec2.outcomes[2:] == (1, 0, 0)
    assert rec1.outcomes[2:] == (2, 0, 0)


def test_decode_examples():
    decoded, ambiguous = decode_lookup([(1, 1, 0), (0, 0, 0)], SPEC11)
    assert decoded == [(1, 0), (0, 0)]
    assert not any(ambiguous)
    assert decode_lookup([], SPEC11) == ([], [])
    with pytest.raises(ValueError):
        decode_lookup([(1, 1, 0), (0, 0)], SPEC11)
    # a pattern of the wrong length, and fewer modes than chain observables
    with pytest.raises(ValueError):
        expected_outcomes([(1, 0, 0)], SPEC11)
    with pytest.raises(ValueError):
        expected_outcomes([(0,)], CodeSpec("one_mode_binomial", 2))


def test_decode_flags_inconsistent_outcomes():
    # readouts claiming losses on both modes exceed weight 1, and a
    # bridge outcome contradicting the readouts
    decoded, ambiguous = decode_lookup([(0, 1, 1), (0, 1, 0)], SPEC11)
    assert ambiguous == [True, True]
    assert not any(map(any, decoded))


def test_syndrome_determinism_on_damaged_codewords():
    # every component of a damaged codeword gives the same outcome of
    # every observable, so each measurement has one branch and leaves
    # the state alone
    for spec in EXT_BIN:
        basis = logical_basis(spec)
        obs = syndrome_observables(spec)
        # chain and bridge squared, the per-mode readouts not
        measures = [measure_squared_observable] * spec.w
        measures += [measure_integer_observable] * (len(obs) - spec.w)
        modulus = spec.w + 1
        for a in enumerate_loss_patterns(spec.num_modes, spec.w + 2):
            for label, cw in basis.codewords.items():
                state = apply_loss_pattern(cw, a, 0.3)
                if state.norm_squared() == 0.0:
                    continue
                state = state.normalized()
                for measure, coeffs in zip(measures, obs):
                    [branch] = measure(state, coeffs, modulus)
                    assert abs(branch.probability - 1.0) < 1e-12
                    assert add_states(branch.state, state, 1.0, -1.0).norm() < 1e-12


@pytest.mark.parametrize("spec", EXT_BIN, ids=lambda s: f"w{s.w}k{s.k}")
def test_diagnose_is_the_sequential_measurement(spec):
    # row by row against extract_syndrome on each nonzero damaged
    # codeword and the written-out lookup, past the correctable weight
    basis = logical_basis(spec)
    patterns = enumerate_loss_patterns(spec.num_modes, spec.w + 2)
    row, outcomes, decoded, ambiguous, match = diagnose(basis, patterns)
    d = len(spec.labels)
    want = {}
    for p, a in enumerate(patterns):
        for i, label in enumerate(spec.labels):
            state = apply_loss_pattern(basis.codewords[label], a, 0.3)
            if state.norm_squared() > 0.0:
                want[p * d + i] = extract_syndrome(state.normalized(), spec).outcomes
    assert row == list(want)
    assert outcomes == list(want.values())
    lookup = [reference_decode(o, spec) for o in want.values()]
    assert ambiguous == [x is None for x in lookup]
    assert decoded == [x or (0,) * spec.num_modes for x in lookup]
    assert 0 < sum(ambiguous) < len(row)
    # the verdict: decoded to its own pattern
    assert match == [x == patterns[r // d] for x, r in zip(lookup, row)]


@pytest.mark.parametrize("spec", EXT_BIN, ids=lambda s: f"w{s.w}k{s.k}")
def test_diagnose_matches_nothing_past_weight_w(spec):
    # one loss on each of w+1 modes reads back as itself, of weight w+1 > w
    basis = logical_basis(spec)
    pattern = (1,) * (spec.w + 1) + (0,) * (spec.num_modes - spec.w - 1)
    row, _, decoded, ambiguous, match = diagnose(basis, [pattern])
    assert len(row) > 0
    assert all(ambiguous) and not any(match) and not any(map(any, decoded))
    # a loss past every occupation annihilates every codeword: no rows
    huge = (99999999999999999999,) + (0,) * (spec.num_modes - 1)
    assert [len(v) for v in diagnose(basis, [huge])] == [0] * 5


# every code whose box of patterns with at most w+1 losses per mode is
# small: w <= 2 at every K, and w3k1
BOX_SPECS = [spec for spec in EXT_BIN if (spec.w + 2) ** spec.num_modes <= 1024]


@pytest.mark.parametrize("spec", BOX_SPECS, ids=lambda s: f"w{s.w}k{s.k}")
def test_diagnose_is_the_lookup_on_the_whole_box(spec):
    # every pattern with at most w+1 losses per mode, up to weight
    # n(w+1): row by row against extract_syndrome on each nonzero damaged
    # codeword and the lookup of those outcomes with its chain/bridge
    # cross-check
    basis = logical_basis(spec)
    patterns = list(product(range(spec.w + 2), repeat=spec.num_modes))
    row, outcomes, decoded, ambiguous, match = diagnose(basis, patterns)
    d = len(spec.labels)
    want = {}
    for p, a in enumerate(patterns):
        for i, label in enumerate(spec.labels):
            state = apply_loss_pattern(basis.codewords[label], a, 0.3)
            if state.norm_squared() > 0.0:
                want[p * d + i] = extract_syndrome(state.normalized(), spec).outcomes
    assert row == list(want)
    assert outcomes == list(want.values())
    lookup, flagged = decode_lookup(outcomes, spec)
    assert (decoded, ambiguous) == (lookup, flagged)
    assert match == [not bad and x == patterns[r // d] for r, x, bad in zip(row, lookup, flagged)]
    # past weight w+2, patterns whose residues vanish decode to zeros
    # without being ambiguous, (2, 2, 2, 0) at w1k3 among them
    assert any(
        not bad and not any(x)
        for r, x, bad in zip(row, decoded, ambiguous)
        if sum(patterns[r // d]) > spec.w + 2
    )


def test_decoder_exhaustive_small_grid():
    for w, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        spec = CodeSpec("extended_binomial", w, k)
        basis = logical_basis(spec)
        patterns = enumerate_loss_patterns(spec.num_modes, w)
        row, outcomes, decoded, ambiguous, match = diagnose(basis, patterns)
        a = [patterns[r // len(spec.labels)] for r in row]
        assert decoded == a
        assert not any(ambiguous)
        assert all(match)
        assert expected_outcomes(a, spec) == outcomes


# one code per (modes, w) the CLI accepts, wherever the w chain
# observables of ``expected_outcomes`` exist; decoding depends on nothing else
LOOKUP_SPECS = {
    (spec.num_modes, spec.w): spec
    for spec in (
        CodeSpec(family, w, k)
        for family in FAMILIES
        for w in (1, 2, 3)
        for k in (1, 2, 3)
        if k == 1 or family not in ("one_mode_binomial", "two_mode_binomial")
    )
    if spec.num_modes >= spec.w
}


@pytest.mark.parametrize("spec", LOOKUP_SPECS.values(), ids=lambda s: f"n{s.num_modes}w{s.w}")
def test_decode_patterns_is_the_syndrome_lookup(spec):
    patterns = enumerate_loss_patterns(spec.num_modes, spec.w + 2)
    lookup, ambiguous = decode_lookup(expected_outcomes(patterns, spec), spec)
    decoded = decode_patterns(patterns, spec.w)
    assert np.array_equal(decoded, lookup)
    # the outcomes of a pattern are those of its residues, so a pattern
    # is ambiguous exactly where its residues weigh more than w
    residues = np.array(patterns) % (spec.w + 1)
    assert np.array_equal(ambiguous, residues.sum(axis=1) > spec.w)
    # never above the loss on any mode: re-excitation stays in the cutoffs
    assert np.all(decoded <= np.array(patterns))


def test_chain_bridge_consistency_reconstruction():
    spec = CodeSpec("extended_binomial", 3, 2)
    m = spec.w + 1
    patterns = enumerate_loss_patterns(spec.num_modes, spec.w)
    for a, outcomes in zip(patterns, expected_outcomes(patterns, spec), strict=True):
        assert list(outcomes[spec.w :]) == [-x % m for x in a]
        for i in range(spec.w - 1):
            assert outcomes[i] == (a[i + 1] - a[i]) ** 2 % m
        assert outcomes[spec.w - 1] == (sum(a[spec.w :]) - a[spec.w - 1]) ** 2 % m


def test_recover_naive_shift_and_identity():
    recovered = reexcite(*sequential_decode(damaged(BASIS11, "0", (1, 0)), SPEC11)).normalized()
    assert set(recovered.amplitudes) == {(2, 2)}
    untouched = reexcite(*sequential_decode(BASIS11.codewords["1"], SPEC11)).normalized()
    assert add_states(untouched, BASIS11.codewords["1"], 1.0, -1.0).norm() < 1e-12


def test_recover_naive_overflow():
    post_state, _ = sequential_decode(damaged(BASIS11, "0", (1, 0)), SPEC11)
    with pytest.raises(ValueError):
        reexcite(post_state, (2, 0))


def test_recover_naive_branch_structure():
    # re-excitation returns every branch to the spacing lattice, but a
    # loss annihilates the components with nothing to lose on that mode,
    # so a single-loss branch keeps only 1/sqrt(2) overlap with the
    # codeword; the no-loss branch keeps the damping envelope and loses
    # only O(gamma^2).  The channel-level O(gamma) gap is covered by the
    # slope checks below.
    for gamma in (1e-3, 1e-2):
        branch = apply_loss_pattern(BASIS11.codewords["0"], (0, 1), gamma).normalized()
        recovered = reexcite(*sequential_decode(branch, SPEC11)).normalized()
        assert all(n % 2 == 0 for occ in recovered.amplitudes for n in occ)
        overlap = abs(inner(BASIS11.codewords["0"], recovered))
        assert abs(overlap - 1 / math.sqrt(2)) < 1e-12
        no_loss = apply_loss_pattern(BASIS11.codewords["0"], (0, 0), gamma).normalized()
        recovered = reexcite(*sequential_decode(no_loss, SPEC11)).normalized()
        envelope_overlap = abs(inner(BASIS11.codewords["0"], recovered))
        assert 1.0 - envelope_overlap < gamma**2


def code_matrices(branches):
    """<i| B_m |j> of branches held in codeword indices, shape (m, i, j)."""
    d = len(branches.code)
    out = np.zeros((len(branches), d, d), dtype=complex)
    row = np.array(branches.states.row)
    out[row // d, branches.states.key, row % d] = branches.states.value
    return out


def test_transpose_recovery_identity_at_gamma_zero():
    index = DamagedIndex(BASIS11, 1)
    rec = transpose_recovery(index, 0.0)
    branches, _ = code_channel(index, 0.0)
    composed = compose_recovery(branches, rec)
    assert len(composed) == len(index.patterns) ** 2
    # recovery b after loss a is branch a * n_b + b
    labels = [(b, a) for a in index.patterns for b in rec.patterns]
    for (b, a), matrix in zip(labels, code_matrices(composed), strict=True):
        expected = np.eye(2) if b == a == (0, 0) else np.zeros((2, 2))
        assert np.abs(matrix - expected).max() < 1e-12


def test_transpose_recovery_kraus_completeness():
    # sum_b R_b^dag R_b acts as the identity on range(M) and as zero on
    # its orthogonal complement
    gamma = 5e-3
    for w, k in [(1, 1), (1, 2)]:
        basis = logical_basis(CodeSpec("extended_binomial", w, k))
        rec = transpose_recovery(DamagedIndex(basis, w), gamma)
        support = []
        for a in rec.patterns:
            for label, cw in basis.codewords.items():
                v = apply_loss_pattern(cw, a, gamma)
                if v.norm_squared() > 0.0:
                    support.append(v.normalized())
        assert len(rec.bras) == len(support) and rec.dropped == 0
        _, s, value = overlaps(rec.bras, state_rows(support))
        total = np.bincount(s, np.abs(value) ** 2, minlength=len(support))
        assert np.abs(total - 1.0).max() < 1e-10
        # a ket outside every damaged support is annihilated
        outside = PureState(basis.spec.layout, {(1,) * basis.spec.num_modes: 1.0})
        _, _, value = overlaps(rec.bras, state_rows([outside]))
        assert np.sum(np.abs(value) ** 2) < 1e-20


def test_recover_transpose_composes_ensemble():
    gamma = 1e-2
    for family in FAMILIES:
        for w, k in [(1, 1), (1, 2)]:
            if k > 1 and family in ("one_mode_binomial", "two_mode_binomial"):
                continue
            basis = logical_basis(CodeSpec(family, w, k))
            index = DamagedIndex(basis, w + 2)
            branches, _ = code_channel(index, gamma)
            composed = compose_recovery(branches, transpose_recovery(DamagedIndex(basis, w), gamma))
            d = len(basis.spec.labels)
            assert len(branches) == len(index.patterns)
            assert len(composed) == len(branches) * math.comb(basis.spec.num_modes + w, w)
            # recovered branches live in the code space: their states are
            # held in codeword indices, in which the code is the identity
            code = composed.code
            assert np.array_equal(code.row, np.arange(d)) and np.array_equal(code.key, code.row)
            assert code.value == [1.0] * d
            assert 0 <= min(composed.states.key) and max(composed.states.key) < d
            # recovery is trace-preserving on the correctable subspace, so
            # only the mass of weight > w branches can escape; with at most
            # ``top`` excitations that mass is below C(top, w+1) gamma^(w+1)
            top = max(sum(occ) for cw in basis.codewords.values() for occ in cw.amplitudes)
            channel = np.array(branches.states.norms()).reshape(len(branches), -1)
            recovered = np.array(composed.states.norms()).reshape(len(composed), -1)
            correctable_rows = [sum(a) <= w for a in index.patterns]
            for j in range(d):
                total = recovered[:, j].sum()
                correctable = channel[correctable_rows, j].sum()
                assert total <= 1.0 + 1e-12
                assert total >= correctable - 1e-12
                assert 1.0 - correctable < math.comb(top, w + 1) * gamma ** (w + 1)


def test_entanglement_fidelity_identity_channel():
    branches, tail = code_channel(DamagedIndex(BASIS11, 2), 0.0)
    assert tail < 1e-12
    assert abs(entanglement_fidelity(branches) - 1.0) < 1e-12


def test_unrecovered_channel_first_order_loss():
    # the weight-(w+2) channel with no recovery, scored as recovery_infidelity does
    channel = DamagedIndex(BASIS11, SPEC11.w + 2)
    for gamma in (1e-3, 1e-2):
        branches, tail = code_channel(channel, gamma)
        infidelity = max(0.0, 1.0 - entanglement_fidelity(branches)) + tail
        assert 0.5 * gamma < infidelity < 4.0 * gamma


def test_transpose_infidelity_small_and_quadratic():
    index = DamagedIndex(BASIS11, SPEC11.w)
    [row] = recovery_infidelity(BASIS11, index, (1e-2,))["transpose"]
    assert row["infidelity"] <= 5e-4
    rows = recovery_infidelity(BASIS11, index, GRID)["transpose"]
    slope = fit_order(GRID, [row["infidelity"] for row in rows]).slope
    assert abs(slope - 2.0) <= 0.2


def test_recovery_slopes_match_order():
    for w, k in [(1, 1), (1, 2)]:
        basis = logical_basis(CodeSpec("extended_binomial", w, k))
        rows = recovery_infidelity(basis, DamagedIndex(basis, w), GRID)
        transpose, naive = (
            fit_order(GRID, [row["infidelity"] for row in rows[name]]).slope
            for name in ("transpose", "naive")
        )
        assert abs(transpose - (w + 1)) <= 0.2
        assert naive >= 1.0


# qubit-shor's loss channel is ext-bin's (README, design notes): losing a_b
# of the w+1 qubits of block b, in any of C(w+1, a_b) ways, is ext-bin's
# loss of a_b quanta from mode b.  Each check compares two floating-point
# evaluations of one exact value, so they agree to the sum of two
# first-order rounding-error bounds (the second-order terms are below
# 1e-25), counted in units of U = 2^-53 from two rules (Higham, Accuracy
# and Stability of Numerical Algorithms, ch. 3-4):
# - a product of P factors, each correct to relative e, is correct to
#   P (e + U);
# - a sum of N nonnegative terms, each correct to relative e, summed in
#   order, is correct to e + (N - 1) U.
# Nothing cancels: every norm, overlap and trace here is a sum of
# nonnegative products.  ``loss_amplitude(n, x, gamma)``, n <= w+1, is
# correct to (w + 6) U / 2: 1 - gamma (U) raised to at most w+1 (w+1 U),
# the two powers themselves (2 U) and two products (2 U), all halved by
# the square root, which adds U / 2.  A damaged amplitude is the codeword
# amplitude, the same float in both families, times one such factor per
# occupied mode: at most F = num_modes factors.

U = 2.0**-53


def amplitude_error(spec) -> float:
    """Relative error bound, in U, of a damaged amplitude of ``spec``."""
    return spec.num_modes * ((spec.w + 6) / 2 + 1)


def norm_error(spec) -> float:
    """Relative error bound, in U, of a squared norm ||A_a|i>||^2 of
    ``spec``: at most 2^w squares (2 A + 1) summed."""
    return 2 * amplitude_error(spec) + 2**spec.w


def fidelity_error(spec) -> float:
    """Error bound, in U, of F_e <= 1 (so absolute as well as relative)
    for ``spec``'s transpose recovery after the loss channel; the naive
    recovery's terms, conj(c) (c f) with c f a damaged amplitude, have
    fewer factors.

    With A = ``amplitude_error`` and N = ``norm_error``: a composed
    overlap <u_(b,j)| A_a j> sums at most 2^w products of g = G_qq^(-1/2)
    (every weight-w Gram block is 1x1; g, a norm square-rooted and
    inverted, is correct to N / 2 + 3/2), the bra's and the ket's
    amplitudes, and two products: 3 A + 2^(w-1) + 7/2.  A trace sums the
    overlaps of the d labels, d 2^w products in all, and |trace / d|^2
    (d a power of 2) doubles that and adds U.  Only the branches of loss
    weight <= w, one per pattern, C(F + w, w) of them, have a nonzero
    trace: a heavier loss moves a codeword component onto no component
    of its own codeword, since two components differ in at least two
    blocks and a block holds w+1 quanta.
    """
    w, d, n_modes = spec.w, 2**spec.k, spec.num_modes
    term = 3 * amplitude_error(spec) + 2 ** (w - 1) + 3.5 + d * 2**w - 1
    return 2 * term + 1 + math.comb(n_modes + w, w) - 1


def block_losses(pattern, w: int) -> tuple[int, ...]:
    """The ext-bin pattern of a qubit-shor pattern: its losses per block of w+1 modes."""
    return tuple(sum(pattern[b : b + w + 1]) for b in range(0, len(pattern), w + 1))


@pytest.mark.parametrize("w,k", list(product((1, 2, 3), repeat=2)))
def test_shor_damaged_norms_sum_to_ext_bins(w, k):
    shor, ext = (CodeSpec(family, w, k) for family in ("qubit_shor_ad", "extended_binomial"))
    shor_index, ext_index = (DamagedIndex(logical_basis(spec), w) for spec in (shor, ext))
    assert shor_index.labels == ext_index.labels
    n_labels = len(ext_index.labels)
    members = {a: [] for a in ext_index.patterns}  # the shor patterns of each ext-bin one
    for p, a in enumerate(shor_index.patterns):
        members[block_losses(a, w)].append(p)
    assert all(members.values())
    bad = []
    for gamma in (1e-3, 1e-2):
        shor_norms, ext_norms = shor_index.rows(gamma).norms(), ext_index.rows(gamma).norms()
        for q, a in enumerate(ext_index.patterns):
            tol = (norm_error(shor) + len(members[a]) - 1 + norm_error(ext)) * U
            for i in range(n_labels):
                summed = sum(shor_norms[p * n_labels + i] for p in members[a])
                ext_norm = ext_norms[q * n_labels + i]
                if abs(summed - ext_norm) > tol * ext_norm:
                    bad.append((gamma, a, i, summed, ext_norm))
    assert bad == []


# w3k3 is left out for time (4.6 s); (3, 1) and (3, 2) carry w = 3
@pytest.mark.parametrize("w,k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_shor_recovery_fidelities_are_ext_bins(w, k):
    # F_e, not 1 - F_e, which loses digits to cancellation at small gamma
    shor, ext = (CodeSpec(family, w, k) for family in ("qubit_shor_ad", "extended_binomial"))
    rows = []
    for spec in (shor, ext):
        basis = logical_basis(spec)
        rows.append(recovery_infidelity(basis, DamagedIndex(basis, w), GRID))
    tol = (fidelity_error(shor) + fidelity_error(ext)) * U
    for column in ("naive", "transpose"):
        fidelities = [[row["fidelity"] for row in side[column]] for side in rows]
        assert [abs(x - y) for x, y in zip(*fidelities) if abs(x - y) > tol] == []

def test_cc_invariance_ce_codewords():
    for w, k in [(1, 1), (1, 2), (2, 1)]:
        basis = logical_basis(CodeSpec("ce_extended_binomial", w, k))
        dts = rng.uniform(0.0, 10.0, 100)
        for label, cw in basis.codewords.items():
            assert all(abs(v - 1.0) < 1e-12 for v in cc_overlap([cw], dts)[0])


def test_cc_overlap_non_ce_two_component_phase():
    zero = BASIS11.codewords["0"]
    dts = rng.uniform(0.0, 10.0, 50)
    expected = [abs(1.0 + complex(math.cos(4 * dt), -math.sin(4 * dt))) / 2.0 for dt in dts]
    overlaps = cc_overlap([zero], dts)[0]
    assert len(overlaps) == len(expected)
    assert all(abs(v - e) < 1e-12 for v, e in zip(overlaps, expected))


# zero, values near 1e3, unsorted and repeated entries, then random ones
CC_DTS = [0.0, 3.7, 1e3, 0.25, 999.9999999999, 1e3 + 1e-9, 0.25, 1e-300, 0.0, 7.5]
CC_DTS += np.random.default_rng(1618).uniform(0.0, 10.0, 40).tolist()


def scalar_cc_overlaps(state, dts):
    """The reference: one phased state and one ``inner`` per duration."""
    return [abs(inner(state, apply_cc(state, dt))) for dt in dts]


def swept(states, dts):
    """``cc_overlap``'s arrays of doubles as lists, compared exactly."""
    return [list(column) for column in cc_overlap(states, dts)]


@pytest.mark.parametrize(
    "family, w, k",
    [(family, w, 1) for family in FAMILIES for w in (1, 2, 3)]
    + [
        (family, w, k)
        for family in ("qubit_shor_ad", "extended_binomial", "ce_extended_binomial")
        for w, k in [(1, 2), (2, 3), (3, 2), (3, 3)]
    ],
)
def test_cc_overlap_equals_scalar_overlaps(family, w, k):
    # all codewords in one call, which shares one phase table among them
    codewords = list(logical_basis(CodeSpec(family, w, k)).codewords.values())
    assert swept(codewords, CC_DTS) == [scalar_cc_overlaps(cw, CC_DTS) for cw in codewords]


def test_cc_overlap_equals_scalar_overlaps_on_complex_states():
    # complex amplitudes over several total excitations; the 1e-15
    # components sit at the pruning threshold, so the phase can push
    # them below it at some durations, which drops them from U_cc|psi>
    layout = ModeLayout((3, 3))
    occupations = list(layout.all_occupations())
    draws = np.random.default_rng(1414)
    for trial in range(5):
        picks = draws.choice(len(occupations), size=6, replace=False)
        amps = {occupations[p]: complex(*draws.standard_normal(2)) for p in picks}
        amps[occupations[picks[0]]] = 1e-15
        amps[occupations[picks[1]]] = complex(6e-16, 8e-16)
        state = PureState(layout, amps)
        assert swept([state], CC_DTS) == [scalar_cc_overlaps(state, CC_DTS)]
    # near dt = pi/2 the two large components cancel to ~1e-14, so
    # whether a 1e-30 term is pruned shows in the last bits of the overlap
    state = PureState(
        layout,
        {(0, 0): 2**-0.5, (1, 1): 2**-0.5, (1, 0): 1e-15, (0, 3): complex(6e-16, 8e-16)},
    )
    dts = [math.pi / 2 + j * 1e-16 for j in range(-100, 100)]
    assert swept([state], dts) == [scalar_cc_overlaps(state, dts)]
    assert swept([state], []) == [[]]
    with pytest.raises(ValueError):
        cc_overlap([state], [0.5, -1.0])


@pytest.mark.parametrize("n", [CC_BLOCK - 1, CC_BLOCK, CC_BLOCK + 1, 2 * CC_BLOCK + 1])
def test_cc_overlap_is_exact_across_duration_blocks(n):
    # the durations are swept in blocks; a sweep that ends just before,
    # at or just after a block edge equals the one-duration reference,
    # and so does a state whose 1e-15 components are pruned at some dts
    dts = np.random.default_rng(n).uniform(0.0, 10.0, n).tolist()
    dts[n // 2 :: 7] = [math.pi / 2 + j * 1e-16 for j in range(len(dts[n // 2 :: 7]))]
    layout = ModeLayout((3, 3))
    pruned = PureState(
        layout,
        {(0, 0): 2**-0.5, (1, 1): 2**-0.5, (1, 0): 1e-15, (0, 3): complex(6e-16, 8e-16)},
    )
    states = [*logical_basis(CodeSpec("extended_binomial", 2, 2)).codewords.values(), pruned]
    overlaps = cc_overlap(states, dts)
    assert all(len(column) == n for column in overlaps)
    assert [list(column) for column in overlaps] == [scalar_cc_overlaps(s, dts) for s in states]
