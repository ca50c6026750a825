import math
from itertools import product

import numpy as np
import pytest

from bosonqec.codes import (
    FAMILIES,
    CodeSpec,
    codeword,
    logical_basis,
    max_excitation,
    mean_excitation,
)
from bosonqec.fock import (
    ModeLayout,
    PureState,
    add_states,
    inner,
    tensor,
    total_number_expectation,
)
from reference import merge_modes_to_single

rng = np.random.default_rng(42)

R = 1 / math.sqrt(2)


def two_ket(layout_cutoff, *occs):
    layout = ModeLayout((layout_cutoff,) * len(occs[0]))
    return PureState(layout, {tuple(o): R for o in occs})


def dist(a, b):
    return add_states(a, b, 1.0, -1.0).norm()


def cw(family, w, k, label):
    return codeword(CodeSpec(family, w, k), label)


# --- tabulated smallest codewords ------------------------------------------


def test_one_mode_binomial_w1():
    assert dist(cw("one_mode_binomial", 1, 1, "0"), two_ket(4, (0,), (4,))) < 1e-12
    one = PureState(ModeLayout((4,)), {(2,): 1.0})
    assert dist(cw("one_mode_binomial", 1, 1, "1"), one) < 1e-12


def test_two_mode_binomial_w1():
    zero = cw("two_mode_binomial", 1, 1, "0")
    one = cw("two_mode_binomial", 1, 1, "1")
    assert dist(zero, two_ket(4, (0, 4), (4, 0))) < 1e-12
    assert set(one.amplitudes) == {(2, 2)}
    for state in (zero, one):
        assert all(sum(occ) == 4 for occ in state.amplitudes)


def test_qubit_shor_smallest():
    assert dist(cw("qubit_shor_ad", 1, 1, "0"), two_ket(1, (0, 0, 0, 0), (1, 1, 1, 1))) < 1e-12
    assert dist(cw("qubit_shor_ad", 1, 1, "1"), two_ket(1, (0, 0, 1, 1), (1, 1, 0, 0))) < 1e-12
    assert (
        dist(cw("qubit_shor_ad", 1, 2, "11"), two_ket(1, (0, 0, 1, 1, 1, 1), (1, 1, 0, 0, 0, 0)))
        < 1e-12
    )


def test_extended_binomial_smallest():
    assert dist(cw("extended_binomial", 1, 1, "0"), two_ket(2, (0, 0), (2, 2))) < 1e-12
    assert dist(cw("extended_binomial", 1, 1, "1"), two_ket(2, (0, 2), (2, 0))) < 1e-12
    assert dist(cw("extended_binomial", 1, 2, "00"), two_ket(2, (0, 0, 0), (2, 2, 2))) < 1e-12
    assert dist(cw("extended_binomial", 1, 2, "01"), two_ket(2, (0, 0, 2), (2, 2, 0))) < 1e-12


def test_ce_extended_binomial_smallest():
    assert (
        dist(cw("ce_extended_binomial", 1, 1, "0"), two_ket(2, (0, 2, 0, 2), (2, 0, 2, 0)))
        < 1e-12
    )
    assert (
        dist(cw("ce_extended_binomial", 1, 1, "1"), two_ket(2, (0, 2, 2, 0), (2, 0, 0, 2)))
        < 1e-12
    )


def test_ce_constant_total_excitation():
    for w, k in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
        target = (w + k) * (w + 1)
        for label in CodeSpec("ce_extended_binomial", w, k).labels:
            state = cw("ce_extended_binomial", w, k, label)
            assert all(sum(occ) == target for occ in state.amplitudes)


# --- structural invariants ---------------------------------------------------


def test_orthonormality_all_families():
    for family in ("qubit_shor_ad", "extended_binomial", "ce_extended_binomial"):
        for w, k in product((1, 2, 3), (1, 2, 3)):
            basis = logical_basis(CodeSpec(family, w, k))
            assert basis.gram_deviation() < 1e-12
    for family in ("one_mode_binomial", "two_mode_binomial"):
        for w in (1, 2, 3):
            basis = logical_basis(CodeSpec(family, w))
            assert basis.gram_deviation() < 1e-12


def test_support_disjoint_across_labels():
    for family in ("extended_binomial", "ce_extended_binomial"):
        for w, k in [(1, 2), (2, 2), (3, 2)]:
            basis = logical_basis(CodeSpec(family, w, k))
            supports = [set(cw.amplitudes) for cw in basis.codewords.values()]
            for i in range(len(supports)):
                for j in range(i + 1, len(supports)):
                    assert not supports[i] & supports[j]


def test_occupations_are_spacing_multiples():
    for family in ("extended_binomial", "ce_extended_binomial"):
        for w, k in [(1, 1), (2, 2), (3, 1)]:
            basis = logical_basis(CodeSpec(family, w, k))
            for cw in basis.codewords.values():
                for occ in cw.amplitudes:
                    assert all(n % (w + 1) == 0 for n in occ)


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_shape_is_tight(family):
    # the mode count and cutoff read off BLOCKS are the codewords' own:
    # every component sets every mode, and some component reaches the cutoff
    for w, k in product((1, 2, 3), (1, 2, 3)):
        if k > 1 and family in ("one_mode_binomial", "two_mode_binomial"):
            continue
        spec = CodeSpec(family, w, k)
        occs = [occ for label in spec.labels for occ in codeword(spec, label).amplitudes]
        assert {len(occ) for occ in occs} == {spec.num_modes}, (w, k)
        assert max(map(max, occs)) == spec.mode_cutoff, (w, k)


# --- pipeline construction oracle -------------------------------------------


def pipeline_extended_binomial(w, k, label, literal_sign=False):
    """Independent constructor: inner kets, plus/minus states, buffered
    combination.  With ``literal_sign`` the two halves combine with the
    parity sign (-1)^wt(label) instead of uniformly with +."""
    mode = ModeLayout((w + 1,))
    lo, hi = PureState(mode, {(0,): 1.0}), PureState(mode, {(w + 1,): 1.0})
    plus = add_states(lo, hi).scaled(R)
    minus = add_states(lo, hi, 1.0, -1.0).scaled(R)

    def rep(bits):
        state = hi if bits[0] == "1" else lo
        for ch in bits[1:]:
            state = tensor(state, hi if ch == "1" else lo)
        return state

    comp = "".join("1" if c == "0" else "0" for c in label)
    data_plus = add_states(rep(label), rep(comp)).scaled(R)
    data_minus = add_states(rep(label), rep(comp), 1.0, -1.0).scaled(R)

    def buffered(buffer_state, data):
        state = buffer_state
        for _ in range(w - 1):
            state = tensor(state, buffer_state)
        return tensor(state, data)

    sign = (-1.0) ** label.count("1") if literal_sign else 1.0
    return add_states(buffered(plus, data_plus), buffered(minus, data_minus), 1.0, sign).scaled(R)


def test_pipeline_matches_direct_expansion():
    for w, k in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]:
        for label in CodeSpec("extended_binomial", w, k).labels:
            assert dist(pipeline_extended_binomial(w, k, label), cw("extended_binomial", w, k, label)) < 1e-12


def test_literal_sign_variant_collapses_labels():
    # documenting why the uniform combination is used: with the parity
    # sign the odd-weight labels reproduce other codewords (label 1
    # collapses onto label 0 for w=1, k=1) instead of staying orthogonal
    literal_one = pipeline_extended_binomial(1, 1, "1", literal_sign=True)
    zero = cw("extended_binomial", 1, 1, "0")
    assert abs(abs(inner(literal_one, zero)) - 1.0) < 1e-12


# --- mean excitation ----------------------------------------------------------


def test_mean_excitation_closed_form():
    # every codeword of every family over the whole grid the CLI accepts,
    # and the largest total excitation of any of their components
    for family in FAMILIES:
        for w, k in product((1, 2, 3), (1, 2, 3)):
            if k > 1 and family in ("one_mode_binomial", "two_mode_binomial"):
                continue
            spec = CodeSpec(family, w, k)
            expected = mean_excitation(spec)
            top = 0
            for label in spec.labels:
                state = codeword(spec, label)
                mean = total_number_expectation(state)
                assert abs(mean - expected) < 1e-12, (family, w, k, label)
                top = max(top, *map(sum, state.amplitudes))
            assert max_excitation(spec) == top, (family, w, k)
    assert mean_excitation(CodeSpec("extended_binomial", 1, 2)) == 3.0


def test_mean_excitation_binomial_rows():
    # table1 reports K one-mode binomial qubits as K times the closed form
    pair = tensor(cw("one_mode_binomial", 1, 1, "0"), cw("one_mode_binomial", 1, 1, "1"))
    expected = 2 * mean_excitation(CodeSpec("one_mode_binomial", 1))
    assert abs(total_number_expectation(pair) - expected) < 1e-12
    assert expected == 4.0


def test_mean_excitation_random_code_superpositions():
    # cross terms vanish because distinct labels have disjoint supports
    for w, k in [(1, 2), (2, 1), (2, 2)]:
        basis = logical_basis(CodeSpec("extended_binomial", w, k))
        target = (w + 1) * (w + k) / 2.0
        labels = basis.spec.labels
        for _ in range(10):
            coeffs = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
            state = None
            for c, lab in zip(coeffs, labels):
                term = basis.codewords[lab].scaled(c)
                state = term if state is None else add_states(state, term)
            assert abs(total_number_expectation(state.normalized()) - target) < 1e-12


# --- excitation merging --------------------------------------------------------


def test_merge_matches_one_mode_binomial():
    for w in (1, 2):
        for label in ("0", "1"):
            merged = merge_modes_to_single(cw("qubit_shor_ad", w, 1, label))
            assert dist(merged, cw("one_mode_binomial", w, 1, label)) < 1e-12


def test_merge_w2_coefficients():
    # coefficient-collection oracle: weight-m sectors of the w=2 codeword
    # carry sqrt(C(3, m) / 4) on |3m>
    merged = merge_modes_to_single(cw("qubit_shor_ad", 2, 1, "0"))
    assert abs(merged.amplitudes[(0,)] - math.sqrt(1 / 4)) < 1e-12
    assert abs(merged.amplitudes[(6,)] - math.sqrt(3 / 4)) < 1e-12


def test_merge_rejects_bosonic_modes():
    with pytest.raises(ValueError):
        merge_modes_to_single(cw("extended_binomial", 1, 1, "0"))


# --- spec validation ------------------------------------------------------------


def test_code_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec("no_such_family", 1, 1)
    with pytest.raises(ValueError):
        CodeSpec("extended_binomial", 0, 1)
    with pytest.raises(ValueError):
        CodeSpec("one_mode_binomial", 1, 2)
    with pytest.raises(ValueError):
        cw("extended_binomial", 1, 2, "012")
    with pytest.raises(ValueError):
        cw("extended_binomial", 1, 2, "0")
    spec = CodeSpec("qubit_shor_ad", 2, 2)
    assert spec.num_modes == 12 and spec.mode_cutoff == 1
    assert CodeSpec("ce_extended_binomial", 1, 1).num_modes == 4
    assert codeword(CodeSpec("two_mode_binomial", 1), "1").amplitudes.keys() == {(2, 2)}


def test_code_spec_refuses_no_logical_qubits():
    with pytest.raises(ValueError, match="k must be >= 1"):
        CodeSpec("extended_binomial", 1, 0)


def test_code_spec_is_a_value():
    spec = CodeSpec("extended_binomial", 2, 3)
    assert spec == CodeSpec("extended_binomial", 2, 3)
    assert spec != CodeSpec("extended_binomial", 2, 2) and spec != ("extended_binomial", 2, 3)
    assert CodeSpec("one_mode_binomial", 1) == CodeSpec("one_mode_binomial", 1, 1)
    assert hash(spec) == hash(("extended_binomial", 2, 3))
    # logical_basis's error message prints it
    assert repr(spec) == "CodeSpec(family='extended_binomial', w=2, k=3)"
