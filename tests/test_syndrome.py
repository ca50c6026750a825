import math

import numpy as np
import pytest

from bosonqec.channels import apply_loss_pattern, enumerate_loss_patterns, pattern_weight
from bosonqec.codes import FAMILIES, CodeSpec, logical_basis
from bosonqec.fock import add_states, basis_state, inner, measure_integer_observable
from bosonqec.syndrome import (
    cc_overlap,
    code_channel,
    compose_recovery,
    decode_lookup,
    diagnose,
    entanglement_fidelity,
    expected_outcomes,
    extract_syndrome,
    infidelity_slope,
    recovery_infidelity,
    reexcite,
    syndrome_observables,
    transpose_recovery,
)
from bosonqec.kl import default_gamma_grid

rng = np.random.default_rng(2718)

SPEC11 = CodeSpec("extended_binomial", 1, 1)
BASIS11 = logical_basis(SPEC11)


def damaged(basis, label, pattern, gamma=0.4):
    state = apply_loss_pattern(basis.codewords[label], pattern, gamma)
    return state.normalized()


def test_observable_counts():
    for w, k in [(1, 1), (2, 2), (3, 1)]:
        obs = syndrome_observables(CodeSpec("extended_binomial", w, k))
        assert len(obs.chain) == w - 1
        assert len(obs.readouts) == w + k


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
    assert decode_lookup((1, 1, 0), SPEC11) == (1, 0)
    assert decode_lookup((0, 0, 0), SPEC11) == (0, 0)


def test_decode_flags_inconsistent_outcomes():
    # readouts claiming losses on both modes exceed weight 1
    assert decode_lookup((0, 1, 1), SPEC11) is None
    # bridge outcome contradicting the readouts
    assert decode_lookup((0, 1, 0), SPEC11) is None


def test_syndrome_determinism_on_damaged_codewords():
    spec = CodeSpec("extended_binomial", 2, 2)
    basis = logical_basis(spec)
    obs = syndrome_observables(spec)
    modulus = spec.w + 1
    for a in enumerate_loss_patterns(spec.num_modes, spec.w):
        for label, cw in basis.codewords.items():
            state = apply_loss_pattern(cw, a, 0.3)
            if state.norm_squared() == 0.0:
                continue
            state = state.normalized()
            for coeffs in obs.chain + (obs.bridge,):
                branches = measure_integer_observable(state, coeffs, modulus, squared=True)
                assert len(branches) == 1
                assert abs(branches[0].probability - 1.0) < 1e-12


def test_decoder_exhaustive_small_grid():
    for w, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        spec = CodeSpec("extended_binomial", w, k)
        basis = logical_basis(spec)
        for a in enumerate_loss_patterns(spec.num_modes, w):
            for label, cw in basis.codewords.items():
                state = apply_loss_pattern(cw, a, 0.25)
                if state.norm_squared() == 0.0:
                    continue
                record = diagnose(state.normalized(), spec)
                assert record.decoded == a
                assert not record.ambiguous
                assert expected_outcomes(a, spec) == record.outcomes


def test_chain_bridge_consistency_reconstruction():
    spec = CodeSpec("extended_binomial", 3, 2)
    m = spec.w + 1
    for a in enumerate_loss_patterns(spec.num_modes, spec.w):
        outcomes = expected_outcomes(a, spec)
        for i in range(spec.w - 1):
            assert outcomes[i] == (a[i + 1] - a[i]) ** 2 % m
        assert outcomes[spec.w - 1] == (sum(a[spec.w :]) - a[spec.w - 1]) ** 2 % m


def test_recover_naive_shift_and_identity():
    record = diagnose(damaged(BASIS11, "0", (1, 0)), SPEC11)
    recovered = reexcite(record.post_state, record.decoded).normalized()
    assert set(recovered.amplitudes) == {(2, 2)}
    clean = diagnose(BASIS11.codewords["1"], SPEC11)
    untouched = reexcite(clean.post_state, clean.decoded).normalized()
    assert add_states(untouched, BASIS11.codewords["1"], 1.0, -1.0).norm() < 1e-12


def test_recover_naive_overflow():
    record = diagnose(damaged(BASIS11, "0", (1, 0)), SPEC11)
    with pytest.raises(ValueError):
        reexcite(record.post_state, (2, 0))


def test_recover_naive_branch_structure():
    # re-excitation returns every branch to the spacing lattice, but a
    # loss annihilates the components with nothing to lose on that mode,
    # so a single-loss branch keeps only 1/sqrt(2) overlap with the
    # codeword; the no-loss branch keeps the damping envelope and loses
    # only O(gamma^2).  The channel-level O(gamma) gap is covered by the
    # slope checks below.
    for gamma in (1e-3, 1e-2):
        branch = apply_loss_pattern(BASIS11.codewords["0"], (0, 1), gamma).normalized()
        record = diagnose(branch, SPEC11)
        recovered = reexcite(record.post_state, record.decoded).normalized()
        assert all(n % 2 == 0 for occ in recovered.amplitudes for n in occ)
        overlap = abs(inner(BASIS11.codewords["0"], recovered))
        assert abs(overlap - 1 / math.sqrt(2)) < 1e-12
        no_loss = apply_loss_pattern(BASIS11.codewords["0"], (0, 0), gamma).normalized()
        record = diagnose(no_loss, SPEC11)
        recovered = reexcite(record.post_state, record.decoded).normalized()
        envelope_overlap = abs(inner(BASIS11.codewords["0"], recovered))
        assert 1.0 - envelope_overlap < gamma**2


def test_transpose_recovery_identity_at_gamma_zero():
    rec = transpose_recovery(BASIS11, 0.0)
    for label, cw in BASIS11.codewords.items():
        out = rec.apply((0, 0), cw)
        assert add_states(out, cw, 1.0, -1.0).norm() < 1e-12


def test_transpose_recovery_kraus_completeness():
    # sum_b R_b^dag R_b acts as the identity on range(M) and as zero on
    # its orthogonal complement
    gamma = 5e-3
    for w, k in [(1, 1), (1, 2)]:
        basis = logical_basis(CodeSpec("extended_binomial", w, k))
        rec = transpose_recovery(basis, gamma)
        support = []
        for a in rec.patterns:
            for label, cw in basis.codewords.items():
                v = apply_loss_pattern(cw, a, gamma)
                if v.norm_squared() > 0.0:
                    support.append(v.normalized())
        for v in support:
            total = sum(rec.apply(b, v).norm_squared() for b in rec.patterns)
            assert abs(total - 1.0) < 1e-10
        # a ket outside every damaged support is annihilated
        outside = basis_state(basis.spec.layout, (1,) * basis.spec.num_modes)
        assert sum(rec.apply(b, outside).norm_squared() for b in rec.patterns) < 1e-20


def test_recover_transpose_composes_ensemble():
    gamma = 1e-2
    for family in FAMILIES:
        for w, k in [(1, 1), (1, 2)]:
            if k > 1 and family in ("one_mode_binomial", "two_mode_binomial"):
                continue
            basis = logical_basis(CodeSpec(family, w, k))
            branches, _ = code_channel(basis, gamma, w + 2)
            composed = compose_recovery(branches, transpose_recovery(basis, gamma))
            # recovered branches live in the code space
            code_support = set().union(*(cw.amplitudes for cw in basis.codewords.values()))
            for branch in composed:
                for state in branch.states.values():
                    assert set(state.amplitudes) <= code_support
            # recovery is trace-preserving on the correctable subspace, so
            # only the mass of weight > w branches can escape; with at most
            # ``top`` excitations that mass is below C(top, w+1) gamma^(w+1)
            top = max(cw.total_excitation_bound() for cw in basis.codewords.values())
            for label in basis.spec.labels:
                total = sum(branch.states[label].norm_squared() for branch in composed)
                correctable = sum(
                    branch.states[label].norm_squared()
                    for branch in branches
                    if pattern_weight(branch.label) <= w
                )
                assert total <= 1.0 + 1e-12
                assert total >= correctable - 1e-12
                assert 1.0 - correctable < math.comb(top, w + 1) * gamma ** (w + 1)


def test_entanglement_fidelity_identity_channel():
    branches, tail = code_channel(BASIS11, 0.0, 2)
    assert tail < 1e-12
    assert abs(entanglement_fidelity(branches, BASIS11) - 1.0) < 1e-12


def test_unrecovered_channel_first_order_loss():
    for gamma in (1e-3, 1e-2):
        row = recovery_infidelity(BASIS11, gamma, "none")
        assert 0.5 * gamma < row["infidelity"] < 4.0 * gamma


def test_transpose_infidelity_small_and_quadratic():
    row = recovery_infidelity(BASIS11, 1e-2, "transpose")
    assert row["infidelity"] <= 5e-4
    rows = [recovery_infidelity(BASIS11, g, "transpose") for g in default_gamma_grid()]
    slope = infidelity_slope(rows)
    assert abs(slope - 2.0) <= 0.2


def test_recovery_slopes_match_order():
    for w, k in [(1, 1), (1, 2)]:
        basis = logical_basis(CodeSpec("extended_binomial", w, k))
        transpose, naive = (
            infidelity_slope([recovery_infidelity(basis, g, name) for g in default_gamma_grid()])
            for name in ("transpose", "naive")
        )
        assert abs(transpose - (w + 1)) <= 0.2
        assert naive >= 1.0


def test_cc_invariance_ce_codewords():
    for w, k in [(1, 1), (1, 2), (2, 1)]:
        basis = logical_basis(CodeSpec("ce_extended_binomial", w, k))
        dts = rng.uniform(0.0, 10.0, 100)
        for label, cw in basis.codewords.items():
            for dt in dts:
                assert abs(cc_overlap(cw, dt) - 1.0) < 1e-12


def test_cc_overlap_non_ce_two_component_phase():
    zero = BASIS11.codewords["0"]
    for dt in rng.uniform(0.0, 10.0, 50):
        expected = abs(1.0 + complex(math.cos(4 * dt), -math.sin(4 * dt))) / 2.0
        assert abs(cc_overlap(zero, dt) - expected) < 1e-12
