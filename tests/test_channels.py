import math
from itertools import product

import numpy as np
import pytest

from bosonqec.channels import (
    apply_cc,
    apply_loss_pattern,
    enumerate_loss_patterns,
    loss_amplitude,
    validate_gamma,
)
from bosonqec.codes import FAMILIES, CodeSpec, logical_basis
from bosonqec.fock import (
    ModeLayout,
    PureState,
    add_states,
    compose,
    max_deviation_from_identity,
)
from bosonqec.damaged import DamagedIndex
from bosonqec.syndrome import code_channel
from reference import apply, cc_unitary, multi_mode_kraus

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
    # at gamma = 0, A_0 is the identity and every A_l with l > 0 vanishes
    for n in range(4):
        assert loss_amplitude(n, 0, 0.0) == 1.0
        assert all(loss_amplitude(n, ell, 0.0) == 0.0 for ell in range(1, 4))


def test_single_mode_kraus_element():
    # <1| A_1 |2> = sqrt(2 gamma (1-gamma)); at gamma = 1/2 this is sqrt(1/2)
    assert abs(loss_amplitude(2, 1, 0.5) - math.sqrt(0.5)) < 1e-15
    assert abs(loss_amplitude(3, 2, 0.2) - math.sqrt(3 * 0.8 * 0.2**2)) < 1e-15
    assert loss_amplitude(1, 2, 0.5) == 0.0  # more losses than excitations


def test_kraus_completeness_binomial_theorem():
    # A_l maps |n> to |n-l> only, so sum_l A_l^dag A_l = identity is
    # sum_l <n-l| A_l |n>^2 = 1 for every occupation n
    for gamma in (0.1, 0.37, 0.9):
        for n in range(6):
            total = sum(loss_amplitude(n, ell, gamma) ** 2 for ell in range(n + 1))
            assert abs(total - 1.0) < 1e-12


def test_multi_mode_kraus_identity_and_weight():
    layout = ModeLayout((2, 2))
    ident = multi_mode_kraus((0, 0), 0.0, layout)
    assert max_deviation_from_identity(ident) == 0.0
    assert len(multi_mode_kraus((1, 0), 0.0, layout)) == 0  # no loss at gamma = 0


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
        assert all(sum(a) <= w for a in pats)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("w", range(5))
def test_pattern_enumeration_is_the_filtered_product(n, w):
    # the brute-force reference: every occupation of n modes up to w, kept
    # when its weight is at most w; product yields lexicographic order
    reference = [a for a in product(range(w + 1), repeat=n) if sum(a) <= w]
    assert enumerate_loss_patterns(n, w) == reference
    assert len(reference) == math.comb(n + w, w)


def test_cc_unitary_identity_phase_and_unitarity():
    layout = ModeLayout((2, 2))
    assert max_deviation_from_identity(cc_unitary(0.0, layout)) == 0.0
    dt = 0.37
    u = cc_unitary(dt, layout)
    out = apply(u, PureState(layout, {(2, 2): 1.0}))
    phase = complex(math.cos(4 * dt), -math.sin(4 * dt))
    assert abs(out.amplitudes[(2, 2)] - phase) < 1e-14
    assert max_deviation_from_identity(compose(u.adjoint(), u)) < 1e-12


def test_cc_commutes_with_loss_up_to_weight_phase():
    layout = ModeLayout((3, 3))
    dt, gamma = 0.81, 0.2
    for a in [(1, 0), (0, 2), (1, 1)]:
        for occ in [(3, 3), (2, 1), (3, 2)]:
            ket = PureState(layout, {occ: 1.0})
            lhs = apply_loss_pattern(apply_cc(ket, dt), a, gamma)
            rhs = apply_cc(apply_loss_pattern(ket, a, gamma), dt)
            w = sum(a)
            phase = complex(math.cos(w * dt), -math.sin(w * dt))
            assert add_states(lhs, rhs, 1.0, -phase).norm() < 1e-13


def test_loss_support_shift():
    layout = ModeLayout((3, 3))
    s = PureState(layout, {(3, 1): 0.6, (2, 2): 0.8})
    out = apply_loss_pattern(s, (2, 1), 0.4)
    assert set(out.amplitudes) <= {(1, 0), (0, 1)}


def test_ad_channel_gamma_zero_single_branch():
    for basis in SMALL_BASES:
        index = DamagedIndex(basis, basis.spec.w + 2)
        branches, tail = code_channel(index, 0.0)
        assert tail < 1e-12
        assert len(branches) == len(index.patterns)
        # loss branch a is row a of the norms
        norms = np.array(branches.states.norms()).reshape(len(branches), -1)
        for pattern, masses in zip(index.patterns, norms):
            target = 1.0 if sum(pattern) == 0 else 0.0
            assert np.all(np.abs(masses - target) < 1e-12)


def test_ad_channel_complete_at_total_excitation():
    for basis in SMALL_BASES:
        top = max(sum(occ) for cw in basis.codewords.values() for occ in cw.amplitudes)
        _, tail = code_channel(DamagedIndex(basis, top), 0.23)
        assert tail < 1e-12


def test_ad_channel_trace_preservation_with_tail():
    # the tail is the mass of the worst-kept codeword beyond the truncation
    for basis in SMALL_BASES:
        index = DamagedIndex(basis, 1)
        for gamma in (0.05, 0.3):
            branches, tail = code_channel(index, gamma)
            masses = np.array(branches.states.norms()).reshape(len(branches), -1).sum(axis=0)
            assert len(masses) == len(basis.spec.labels)
            assert tail > 0.0
            assert max(masses) <= 1.0 + 1e-12
            assert abs(min(masses) + tail - 1.0) < 1e-12


def test_cc_then_ad_operator_order():
    # loss after the CC phase is the operator product A_a U_cc
    layout = ModeLayout((2, 2))
    code = PureState(layout, {(0, 0): 1 / math.sqrt(2), (2, 2): 1 / math.sqrt(2)})
    dt, gamma = 0.59, 0.1
    product = compose(multi_mode_kraus((1, 0), gamma, layout), cc_unitary(dt, layout))
    expected = apply(product, code)
    got = apply_loss_pattern(apply_cc(code, dt), (1, 0), gamma)
    assert add_states(got, expected, 1.0, -1.0).norm() < 1e-13
