import math

import numpy as np
import pytest

from bosonqec.channels import (
    CCParams,
    apply_cc,
    apply_loss_pattern,
    cc_unitary,
    damping_from_lifetime,
    enumerate_loss_patterns,
    multi_mode_kraus,
    pattern_weight,
    single_mode_kraus,
    validate_gamma,
)
from bosonqec.codes import FAMILIES, CodeSpec, logical_basis
from bosonqec.fock import (
    ModeLayout,
    PureState,
    add_states,
    apply,
    basis_state,
    compose,
    max_deviation_from_identity,
)
from bosonqec.syndrome import code_channel

rng = np.random.default_rng(7)

# codewords of every family at small (w, k)
SMALL_BASES = [
    logical_basis(CodeSpec(family, w, k))
    for family in FAMILIES
    for w, k in [(1, 1), (2, 1), (1, 2)]
    if k == 1 or family not in ("one_mode_binomial", "two_mode_binomial")
]


def test_gamma_validation():
    assert validate_gamma(0.0) == 0.0
    with pytest.raises(ValueError):
        validate_gamma(1.0)
    with pytest.raises(ValueError):
        validate_gamma(-0.1)


def test_single_mode_kraus_gamma_zero():
    ident = single_mode_kraus(0, 0.0, 3)
    assert max_deviation_from_identity(ident) == 0.0
    assert len(single_mode_kraus(1, 0.0, 3)) == 0
    assert len(single_mode_kraus(2, 0.0, 3)) == 0


def test_single_mode_kraus_element():
    # <1| A_1 |2> = sqrt(2 gamma (1-gamma)); at gamma = 1/2 this is sqrt(1/2)
    m = single_mode_kraus(1, 0.5, 2)
    assert abs(m.entries[((1,), (2,))] - math.sqrt(0.5)) < 1e-15
    out = apply(m, basis_state(ModeLayout((2,)), (2,)))
    assert abs(out.amplitudes[(1,)] - math.sqrt(0.5)) < 1e-15


def test_single_mode_kraus_bounds():
    with pytest.raises(ValueError):
        single_mode_kraus(3, 0.1, 2)
    with pytest.raises(ValueError):
        single_mode_kraus(-1, 0.1, 2)


def test_kraus_completeness_binomial_theorem():
    # sum_l A_l^dag A_l = identity on occupations <= cutoff
    cutoff = 5
    layout = ModeLayout((cutoff,))
    for gamma in (0.1, 0.37, 0.9):
        total = {}
        for ell in range(cutoff + 1):
            m = single_mode_kraus(ell, gamma, cutoff)
            prod = compose(m.adjoint(), m)
            for key, val in prod.entries.items():
                total[key] = total.get(key, 0.0) + val
        for n in range(cutoff + 1):
            assert abs(total[((n,), (n,))] - 1.0) < 1e-12


def test_multi_mode_kraus_identity_and_weight():
    layout = ModeLayout((2, 2))
    ident = multi_mode_kraus((0, 0), 0.0, layout)
    assert max_deviation_from_identity(ident) == 0.0
    assert pattern_weight((1, 0, 2)) == 3


def test_multi_mode_kraus_on_code_state():
    gamma = 0.3
    layout = ModeLayout((2, 2))
    code = PureState(layout, {(0, 0): 1 / math.sqrt(2), (2, 2): 1 / math.sqrt(2)})
    out = apply(multi_mode_kraus((1, 0), gamma, layout), code)
    expected = math.sqrt(2 * gamma * (1 - gamma)) * (1 - gamma) / math.sqrt(2)
    assert set(out.amplitudes) == {(1, 2)}
    assert abs(out.amplitudes[(1, 2)] - expected) < 1e-14


def test_apply_loss_pattern_matches_materialized_map():
    layout = ModeLayout((3, 2))
    occs = list(layout.all_occupations())
    for _ in range(10):
        picks = rng.choice(len(occs), size=4, replace=False)
        s = PureState(
            layout,
            {occs[p]: complex(rng.standard_normal(), rng.standard_normal()) for p in picks},
        ).normalized()
        for a in enumerate_loss_patterns(2, 2):
            if any(x > c for x, c in zip(a, layout.cutoffs)):
                continue
            via_map = apply(multi_mode_kraus(a, 0.2, layout), s)
            direct = apply_loss_pattern(s, a, 0.2)
            assert add_states(via_map, direct, 1.0, -1.0).norm() < 1e-13


def test_pattern_enumeration_examples():
    assert enumerate_loss_patterns(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert enumerate_loss_patterns(1, 0) == [(0,)]
    pats = enumerate_loss_patterns(2, 2)
    assert len(pats) == math.comb(4, 2)


def test_pattern_enumeration_lexicographic_complete():
    for n, w in [(1, 3), (3, 2), (4, 3)]:
        pats = enumerate_loss_patterns(n, w)
        assert pats == sorted(set(pats))
        assert len(pats) == math.comb(n + w, n)
        assert all(pattern_weight(a) <= w for a in pats)


def test_damping_from_lifetime():
    assert damping_from_lifetime(0.0, 1.0) == 0.0
    assert abs(damping_from_lifetime(1.0, 1.0) - (1 - math.exp(-1))) < 1e-15
    assert damping_from_lifetime(100.0, 1.0) > 1 - 1e-12
    with pytest.raises(ValueError):
        damping_from_lifetime(1.0, 0.0)


def test_cc_unitary_identity_phase_and_unitarity():
    layout = ModeLayout((2, 2))
    assert max_deviation_from_identity(cc_unitary(CCParams(0.0), layout)) == 0.0
    dt = 0.37
    u = cc_unitary(CCParams(dt), layout)
    out = apply(u, basis_state(layout, (2, 2)))
    phase = complex(math.cos(4 * dt), -math.sin(4 * dt))
    assert abs(out.amplitudes[(2, 2)] - phase) < 1e-14
    assert max_deviation_from_identity(compose(u.adjoint(), u)) < 1e-12


def test_cc_commutes_with_loss_up_to_weight_phase():
    layout = ModeLayout((3, 3))
    dt, gamma = 0.81, 0.2
    cc = CCParams(dt)
    for a in [(1, 0), (0, 2), (1, 1)]:
        for occ in [(3, 3), (2, 1), (3, 2)]:
            ket = basis_state(layout, occ)
            lhs = apply_loss_pattern(apply_cc(ket, cc), a, gamma)
            rhs = apply_cc(apply_loss_pattern(ket, a, gamma), cc)
            w = pattern_weight(a)
            phase = complex(math.cos(w * dt), -math.sin(w * dt))
            assert add_states(lhs, rhs, 1.0, -phase).norm() < 1e-13


def test_loss_support_shift():
    layout = ModeLayout((3, 3))
    s = PureState(layout, {(3, 1): 0.6, (2, 2): 0.8})
    out = apply_loss_pattern(s, (2, 1), 0.4)
    assert set(out.amplitudes) <= {(1, 0), (0, 1)}


def test_ad_channel_gamma_zero_single_branch():
    for basis in SMALL_BASES:
        branches, tail = code_channel(basis, 0.0, basis.spec.w + 2)
        assert tail < 1e-12
        for branch in branches:
            target = 1.0 if pattern_weight(branch.label) == 0 else 0.0
            for state in branch.states.values():
                assert abs(state.norm_squared() - target) < 1e-12


def test_ad_channel_complete_at_total_excitation():
    for basis in SMALL_BASES:
        top = max(cw.total_excitation_bound() for cw in basis.codewords.values())
        _, tail = code_channel(basis, 0.23, top)
        assert tail < 1e-12


def test_ad_channel_trace_preservation_with_tail():
    # the tail is the mass of the worst-kept codeword beyond the truncation
    for basis in SMALL_BASES:
        for gamma in (0.05, 0.3):
            branches, tail = code_channel(basis, gamma, 1)
            masses = [
                sum(branch.states[label].norm_squared() for branch in branches)
                for label in basis.spec.labels
            ]
            assert tail > 0.0
            assert max(masses) <= 1.0 + 1e-12
            assert abs(min(masses) + tail - 1.0) < 1e-12


def test_cc_then_ad_operator_order():
    # loss after the CC phase is the operator product A_a U_cc
    layout = ModeLayout((2, 2))
    code = PureState(layout, {(0, 0): 1 / math.sqrt(2), (2, 2): 1 / math.sqrt(2)})
    dt, gamma = 0.59, 0.1
    product = compose(multi_mode_kraus((1, 0), gamma, layout), cc_unitary(CCParams(dt), layout))
    expected = apply(product, code)
    got = apply_loss_pattern(apply_cc(code, CCParams(dt)), (1, 0), gamma)
    assert add_states(got, expected, 1.0, -1.0).norm() < 1e-13
