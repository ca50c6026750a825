import json
import math

import numpy as np
import pytest

from bosonqec.fock import (
    LinearMap,
    ModeLayout,
    PureState,
    add_states,
    compose,
    inner,
    max_deviation_from_identity,
    measure_integer_observable,
    state_components,
    tensor,
    total_number_expectation,
)
from reference import apply, measure_squared_observable

rng = np.random.default_rng(20240817)


def random_state(layout, n_components=4):
    occs = list(layout.all_occupations())
    picks = rng.choice(len(occs), size=min(n_components, len(occs)), replace=False)
    amps = {
        occs[p]: complex(rng.standard_normal(), rng.standard_normal()) for p in picks
    }
    return PureState(layout, amps).normalized()


def dist(a, b):
    return add_states(a, b, 1.0, -1.0).norm()


def ket(layout, occ):
    return PureState(layout, {occ: 1.0})


def identity(layout):
    return LinearMap(layout, {(occ, occ): 1.0 for occ in layout.all_occupations()})


def test_layout_is_a_value():
    # equal cutoffs, of any sequence type, give equal layouts and hashes
    layout = ModeLayout([2, 3])
    assert layout == ModeLayout((2, 3))
    assert layout != ModeLayout((3, 2)) and layout != (2, 3)
    assert hash(layout) == hash(((2, 3),))
    assert repr(layout) == "ModeLayout(cutoffs=(2, 3))"


def test_layout_validation():
    with pytest.raises(ValueError):
        ModeLayout(())
    with pytest.raises(ValueError):
        ModeLayout((0,))
    layout = ModeLayout((2, 3))
    assert layout.num_modes == 2
    assert layout.contains((2, 3))
    assert not layout.contains((3, 0))
    with pytest.raises(ValueError):
        PureState(layout, {(0, 4): 1.0})


def test_tensor_basis_product():
    a = ket(ModeLayout((2,)), (0,))
    b = ket(ModeLayout((2,)), (2,))
    t = tensor(a, b)
    assert t.amplitudes == {(0, 2): 1.0 + 0.0j}


def test_tensor_distributes():
    layout = ModeLayout((2,))
    plus = PureState(layout, {(0,): 1 / math.sqrt(2), (2,): 1 / math.sqrt(2)})
    t = tensor(plus, ket(layout, (0,)))
    assert abs(t.amplitudes[(0, 0)] - 1 / math.sqrt(2)) < 1e-15
    assert abs(t.amplitudes[(2, 0)] - 1 / math.sqrt(2)) < 1e-15


def test_tensor_norm_multiplicative():
    # oracle: direct multiplication of norms for random sparse states
    for _ in range(20):
        a = random_state(ModeLayout((3, 2))).scaled(0.7)
        b = random_state(ModeLayout((2,))).scaled(1.3)
        assert abs(tensor(a, b).norm() - a.norm() * b.norm()) < 1e-12


def test_inner_normalization_and_orthogonality():
    layout = ModeLayout((2, 2))
    psi = random_state(layout)
    assert abs(inner(psi, psi) - 1.0) < 1e-12
    assert inner(ket(layout, (0, 0)), ket(layout, (2, 2))) == 0.0


def test_inner_layout_mismatch():
    with pytest.raises(ValueError):
        inner(ket(ModeLayout((2,)), (0,)), ket(ModeLayout((3,)), (0,)))


def test_inner_conjugate_symmetry():
    layout = ModeLayout((2, 2))
    for _ in range(20):
        a, b = random_state(layout), random_state(layout)
        assert abs(inner(a, b) - inner(b, a).conjugate()) < 1e-13


def test_apply_identity_and_eigenstate():
    layout = ModeLayout((4,))
    ident = identity(layout)
    psi = random_state(layout)
    assert dist(apply(ident, psi), psi) < 1e-13
    number = LinearMap(layout, {((n,), (n,)): n for n in range(5)})
    assert dist(apply(number, ket(layout, (3,))), ket(layout, (3,)).scaled(3.0)) < 1e-13


def test_apply_linearity():
    layout = ModeLayout((3, 2))
    entries = {}
    occs = list(layout.all_occupations())
    for _ in range(20):
        o1, o2 = occs[rng.integers(len(occs))], occs[rng.integers(len(occs))]
        entries[(o1, o2)] = complex(rng.standard_normal(), rng.standard_normal())
    m = LinearMap(layout, entries)
    for _ in range(10):
        s1, s2 = random_state(layout), random_state(layout)
        al = complex(rng.standard_normal(), rng.standard_normal())
        be = complex(rng.standard_normal(), rng.standard_normal())
        lhs = apply(m, add_states(s1, s2, al, be))
        rhs = add_states(apply(m, s1), apply(m, s2), al, be)
        assert dist(lhs, rhs) < 1e-12


def test_apply_layout_mismatch():
    layout = ModeLayout((2,))
    m = identity(layout)
    with pytest.raises(ValueError):
        apply(m, ket(ModeLayout((2, 2)), (0, 0)))


def test_compose_and_adjoint():
    layout = ModeLayout((2,))
    lower = LinearMap(layout, {((n - 1,), (n,)): math.sqrt(n) for n in (1, 2)})
    n_op = compose(lower.adjoint(), lower)
    assert dist(apply(n_op, ket(layout, (2,))), ket(layout, (2,)).scaled(2.0)) < 1e-13
    assert max_deviation_from_identity(identity(layout)) == 0.0


def test_total_number_expectation_values():
    one = PureState(ModeLayout((4,)), {(0,): 1 / math.sqrt(2), (4,): 1 / math.sqrt(2)})
    assert abs(total_number_expectation(one) - 2.0) < 1e-12
    two = PureState(ModeLayout((2, 2)), {(0, 0): 1 / math.sqrt(2), (2, 2): 1 / math.sqrt(2)})
    assert abs(total_number_expectation(two) - 2.0) < 1e-12
    three = PureState(
        ModeLayout((2, 2, 2)), {(0, 0, 0): 1 / math.sqrt(2), (2, 2, 2): 1 / math.sqrt(2)}
    )
    assert abs(total_number_expectation(three) - 3.0) < 1e-12


def test_total_number_expectation_requires_normalization():
    layout = ModeLayout((2,))
    with pytest.raises(ValueError):
        total_number_expectation(ket(layout, (2,)).scaled(0.9))


def test_measure_squared_difference():
    s = ket(ModeLayout((2, 2)), (1, 2))
    branches = measure_squared_observable(s, (1, -1), 2)
    assert len(branches) == 1
    assert branches[0].outcome == 1
    assert abs(branches[0].probability - 1.0) < 1e-12


def test_measure_code_state_deterministic():
    code = PureState(ModeLayout((2, 2)), {(0, 0): 1 / math.sqrt(2), (2, 2): 1 / math.sqrt(2)})
    branches = measure_squared_observable(code, (1, -1), 2)
    assert len(branches) == 1 and branches[0].outcome == 0


def test_measure_basis_ket_single_outcome():
    s = ket(ModeLayout((3, 3)), (2, 1))
    branches = measure_integer_observable(s, (1, 1), 3)
    assert len(branches) == 1 and branches[0].outcome == 0


def test_measure_probabilities_sum_and_normalized_posts():
    layout = ModeLayout((3, 3))
    for _ in range(10):
        s = random_state(layout, n_components=8)
        branches = measure_integer_observable(s, (1, 2), 3)
        assert abs(sum(b.probability for b in branches) - 1.0) < 1e-12
        for b in branches:
            assert abs(b.state.norm() - 1.0) < 1e-12


def test_measure_rejects_empty_state():
    layout = ModeLayout((2,))
    with pytest.raises(ValueError):
        measure_integer_observable(PureState(layout, {}), (1,), 2)


def test_canonicalization_prunes_and_sorts():
    layout = ModeLayout((3, 3))
    s = PureState(layout, {(2, 0): 1e-16, (1, 1): 0.6, (0, 0): 0.8})
    assert list(s.amplitudes) == [(0, 0), (1, 1)]
    # idempotent: rebuilding from the canonical map changes nothing
    again = PureState(layout, s.amplitudes)
    assert list(again.amplitudes) == list(s.amplitudes)


def test_serialization_round_trip_is_stable():
    layout = ModeLayout((3, 3))
    s = random_state(layout, n_components=6)
    blob1 = json.dumps(state_components(s))
    restored = PureState(
        layout, {tuple(c["occupation"]): complex(c["re"], c["im"]) for c in json.loads(blob1)}
    )
    blob2 = json.dumps(state_components(restored))
    assert blob1 == blob2


def test_states_are_immutable():
    s = ket(ModeLayout((2,)), (0,))
    with pytest.raises(AttributeError):
        s.layout = None

