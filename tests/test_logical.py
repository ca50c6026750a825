import cmath
import math
from itertools import product

import numpy as np
import pytest

from bosonqec.codes import CodeSpec, logical_basis
from bosonqec.fock import (
    LinearMap,
    ModeLayout,
    PureState,
    add_states,
    apply_on_modes,
    compose,
    inner,
    max_deviation_from_identity,
    measure_integer_observable,
)
from bosonqec import logical
from bosonqec.cli import EXACT_TOL
from bosonqec.logical import (
    CHECKS,
    KINDS,
    LogicalOperator,
    build_logical_operator,
    run_encoding_protocol,
    verify_logical_algebra,
)

from reference import apply
from test_cli import count_calls

rng = np.random.default_rng(99)

SPEC11 = CodeSpec("extended_binomial", 1, 1)
BASIS11 = logical_basis(SPEC11)


def dist(a, b):
    return add_states(a, b, 1.0, -1.0).norm()


def act(op, s):
    return apply_on_modes(op.map, op.modes, s)


def random_state(layout, size):
    occupations = list(layout.all_occupations())
    picks = rng.choice(len(occupations), size=min(size, len(occupations)), replace=False)
    return PureState(layout, {
        occupations[p]: complex(rng.standard_normal(), rng.standard_normal()) for p in picks
    })


# --- full-space reference: every operator as one map on the whole layout ----


def _swap_entries(spec, mode):
    """|0><w+1| + |w+1><0| + identity on levels 1..w, embedded at ``mode``."""
    top = spec.w + 1
    entries = {}
    for occ in spec.layout.all_occupations():
        n = occ[mode]
        if n == 0:
            out = occ[:mode] + (top,) + occ[mode + 1 :]
        elif n == top:
            out = occ[:mode] + (0,) + occ[mode + 1 :]
        else:
            out = occ
        entries[(out, occ)] = 1.0
    return entries


def _phase_entries(spec, modes):
    """Product of exp(i pi n_j / (w+1)) over ``modes``, diagonal."""
    top = spec.w + 1
    entries = {}
    for occ in spec.layout.all_occupations():
        total = sum(occ[m] for m in modes)
        entries[(occ, occ)] = cmath.exp(1j * math.pi * total / top)
    return entries


def full_space_operator(kind, ell, spec):
    w, k = spec.w, spec.k
    if kind == "X":
        entries = _swap_entries(spec, w + ell)
    elif kind == "X_all":
        entries = _swap_entries(spec, 0)
    elif kind == "Z":
        entries = _phase_entries(spec, tuple(range(w)) + (w + ell,))
    else:
        modes = ()
        for q in range(k):
            modes += tuple(range(w)) + (w + q,)
        entries = _phase_entries(spec, modes)
    return LinearMap(spec.layout, spec.layout, entries)


def operator_requests(spec):
    for kind in KINDS:
        for ell in range(spec.k) if kind in ("X", "Z") else (None,):
            yield kind, ell


def test_x_flips_smallest_codewords():
    x = build_logical_operator("X", 0, SPEC11)
    assert dist(act(x, BASIS11.codewords["0"]), BASIS11.codewords["1"]) < 1e-12
    assert dist(act(x, BASIS11.codewords["1"]), BASIS11.codewords["0"]) < 1e-12


def test_z_phases_smallest_codewords():
    z = build_logical_operator("Z", 0, SPEC11)
    assert dist(act(z, BASIS11.codewords["0"]), BASIS11.codewords["0"]) < 1e-12
    assert dist(act(z, BASIS11.codewords["1"]), BASIS11.codewords["1"].scaled(-1.0)) < 1e-12


def test_x_all_flips_every_qubit():
    spec = CodeSpec("extended_binomial", 1, 2)
    basis = logical_basis(spec)
    x_all = build_logical_operator("X_all", None, spec)
    assert dist(act(x_all, basis.codewords["00"]), basis.codewords["11"]) < 1e-12
    assert dist(act(x_all, basis.codewords["01"]), basis.codewords["10"]) < 1e-12


def test_operators_are_one_mode_factors():
    for w, k in product((1, 2, 3), (1, 2, 3)):
        spec = CodeSpec("extended_binomial", w, k)
        buffers = tuple(range(w))
        for kind, ell in operator_requests(spec):
            op = build_logical_operator(kind, ell, spec)
            assert op.map.in_layout == op.map.out_layout == ModeLayout((w + 1,))
            assert len(op.map.entries) == w + 2
            if kind == "X":
                assert op.modes == (w + ell,)
            elif kind == "X_all":
                assert op.modes == (0,)
            elif kind == "Z":
                assert op.modes == buffers + (w + ell,)
            else:  # every buffer mode once per qubit, every data mode once
                assert sorted(op.modes) == sorted(buffers * k + tuple(range(w, w + k)))
        z = build_logical_operator("Z", 0, spec).map.entries
        assert z[((0,), (0,))] == 1.0 and z[((w + 1,), (w + 1,))] == -1.0


def test_operators_unitary_on_truncated_space():
    # the full-space reference is unitary and the factor applied on its
    # modes acts as it does on any state
    for w, k in [(1, 1), (2, 2)]:
        spec = CodeSpec("extended_binomial", w, k)
        for kind, ell in operator_requests(spec):
            op = build_logical_operator(kind, ell, spec)
            full = full_space_operator(kind, ell, spec)
            assert max_deviation_from_identity(compose(op.map.adjoint(), op.map)) < 1e-12
            assert max_deviation_from_identity(compose(full.adjoint(), full)) < 1e-12
            for size in (1, 5, 40):
                state = random_state(spec.layout, size)
                assert dist(act(op, state), apply(full, state)) < 1e-13


def test_swap_operator_hermitian():
    spec = CodeSpec("extended_binomial", 2, 1)
    x = build_logical_operator("X", 0, spec).map
    adj = x.adjoint()
    assert x.entries.keys() == adj.entries.keys()
    assert all(abs(x.entries[k] - adj.entries[k]) < 1e-15 for k in x.entries)


def test_phase_operator_hermitian_on_code_space():
    # as a matrix the phase analog carries complex phases on intermediate
    # levels; restricted to the codewords it is a real +-1 diagonal
    spec = CodeSpec("extended_binomial", 2, 2)
    basis = logical_basis(spec)
    z = build_logical_operator("Z", 1, spec)
    labels = spec.labels
    for a in labels:
        for b in labels:
            lhs = inner(basis.codewords[a], act(z, basis.codewords[b]))
            rhs = inner(basis.codewords[b], act(z, basis.codewords[a])).conjugate()
            assert abs(lhs - rhs) < 1e-12


def test_logical_algebra_small_specs():
    for w, k in [(1, 1), (2, 2)]:
        spec = CodeSpec("extended_binomial", w, k)
        checks = verify_logical_algebra(logical_basis(spec))
        assert all(v <= EXACT_TOL for v in checks.values()), checks


def test_anticommutator_on_code_space():
    x = build_logical_operator("X", 0, SPEC11)
    z = build_logical_operator("Z", 0, SPEC11)
    for cw in BASIS11.codewords.values():
        anti = add_states(act(x, act(z, cw)), act(z, act(x, cw)))
        assert anti.norm() < 1e-12


def _remap(op, entries):
    factor = op.map
    return LogicalOperator(
        op.kind, op.ell, op.modes, LinearMap(factor.in_layout, factor.out_layout, entries)
    )


# each breaks one operator kind; together they fire all ten checks
BROKEN = {
    "X factor doubled": ("X", lambda op, spec: _remap(
        op, {key: 2.0 * c for key, c in op.map.entries.items()})),
    "swap with -1 on |w+1> -> |0>": ("X", lambda op, spec: _remap(
        op, {**op.map.entries, ((0,), (spec.w + 1,)): -1.0})),
    "Z the identity": ("Z", lambda op, spec: _remap(op, dict.fromkeys(op.map.entries, 1.0))),
    "X on buffer mode 0": ("X", lambda op, spec: op._replace(modes=(0,))),
    "X_all on the last data mode": ("X_all", lambda op, spec: op._replace(
        modes=(spec.num_modes - 1,))),
    "Z_all with each buffer mode once": ("Z_all", lambda op, spec: op._replace(
        modes=tuple(range(spec.num_modes)))),
    "X on no modes": ("X", lambda op, spec: op._replace(modes=())),
}


@pytest.mark.parametrize("w, k", [(1, 2), (2, 2)])
def test_every_algebra_check_catches_a_broken_operator(monkeypatch, w, k):
    spec = CodeSpec("extended_binomial", w, k)
    basis = logical_basis(spec)
    build = logical.build_logical_operator
    fired = set()
    for broken_kind, breaker in BROKEN.values():
        def broken_build(kind, ell, spec, broken_kind=broken_kind, breaker=breaker):
            op = build(kind, ell, spec)
            return breaker(op, spec) if kind == broken_kind else op

        monkeypatch.setattr(logical, "build_logical_operator", broken_build)
        checks = verify_logical_algebra(basis)
        fired |= {name for name, value in checks.items() if value > EXACT_TOL}
    assert fired == set(CHECKS)


@pytest.mark.parametrize("w, k", [(1, 1), (2, 2), (1, 3)])
def test_each_operator_acts_on_each_codeword_once(monkeypatch, w, k):
    spec = CodeSpec("extended_binomial", w, k)
    basis = logical_basis(spec)
    calls = count_calls(monkeypatch, logical, "apply_on_modes")
    assert all(v <= EXACT_TOL for v in verify_logical_algebra(basis).values())
    codewords = {id(cw) for cw in basis.codewords.values()}
    on_codewords = [(id(m), modes, id(s)) for m, modes, s in calls if id(s) in codewords]
    # X and Z of every qubit, X_all and Z_all, each once per codeword
    assert len(on_codewords) == (2 * k + 2) * 2**k
    assert len(set(on_codewords)) == len(on_codewords)


def test_invalid_operator_requests():
    with pytest.raises(ValueError):
        build_logical_operator("X", 3, SPEC11)
    with pytest.raises(ValueError):
        build_logical_operator("W", 0, SPEC11)
    with pytest.raises(ValueError):
        build_logical_operator("X", 0, CodeSpec("ce_extended_binomial", 1, 1))


# --- encoding protocol -------------------------------------------------------


def test_protocol_basis_input():
    traces = run_encoding_protocol(1.0, 0.0, SPEC11)
    assert len(traces) == 4
    for t in traces:
        assert abs(t.fidelity_to_target - 1.0) < 1e-12
        assert abs(t.probability - 0.25) < 1e-12
        assert dist(t.final_state, BASIS11.codewords["0"]) < 1e-12


def test_protocol_entangled_intermediate_state():
    r = 1 / math.sqrt(2)
    traces = run_encoding_protocol(r, r, SPEC11)
    plus_plus = [t for t in traces if t.outcomes == (1, 1)][0]
    layout = ModeLayout((1,)).concat(SPEC11.layout)
    expected = PureState(layout, {(0, 0, 0): 0.5, (0, 2, 2): 0.5, (1, 0, 2): 0.5, (1, 2, 0): 0.5})
    assert dist(plus_plus.entangled_state, expected) < 1e-12


def test_protocol_random_inputs_all_branches():
    for _ in range(20):
        v = rng.standard_normal(4)
        alpha = complex(v[0], v[1])
        beta = complex(v[2], v[3])
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / norm, beta / norm
        traces = run_encoding_protocol(alpha, beta, SPEC11)
        assert len(traces) == 4
        for t in traces:
            assert abs(t.fidelity_to_target - 1.0) < 1e-12
            assert abs(t.probability - 0.25) < 1e-12


def per_occupation_flip(x_full, spec, joint):
    """X on the code modes of a joint (qubit, code) state, one occupation at a time."""
    flipped = {}
    for occ, amp in joint.amplitudes.items():
        corrected = apply(x_full, PureState(spec.layout, {occ[1:]: amp}))
        for c_occ, c_amp in corrected.amplitudes.items():
            key = occ[:1] + c_occ
            flipped[key] = flipped.get(key, 0.0) + c_amp
    return PureState(joint.layout, flipped)


def test_protocol_flip_matches_per_occupation_reference():
    for w in (1, 2, 3):
        spec = CodeSpec("extended_binomial", w, 1)
        x = build_logical_operator("X", 0, spec)
        x_full = full_space_operator("X", 0, spec)
        shifted = tuple(m + 1 for m in x.modes)
        layout = ModeLayout((1,)).concat(spec.layout)
        for size in (1, 7, 30):
            joint = random_state(layout, size)
            got = apply_on_modes(x.map, shifted, joint)
            assert dist(got, per_occupation_flip(x_full, spec, joint)) == 0.0
        # the -1 branch of the joint-Z measurement, flipped as the protocol does
        basis = logical_basis(spec)
        plus = add_states(basis.codewords["0"], basis.codewords["1"]).scaled(1 / math.sqrt(2))
        alpha, beta = 0.6, 0.8j
        joint = PureState(layout, {
            **{(0,) + occ: alpha * amp for occ, amp in plus.amplitudes.items()},
            **{(1,) + occ: beta * amp for occ, amp in plus.amplitudes.items()},
        })
        coeffs = [w + 1] + [1] * (w + 1)
        minus = [
            b.state for b in measure_integer_observable(joint, coeffs, 2 * (w + 1))
            if b.outcome == w + 1
        ][0]
        expected = per_occupation_flip(x_full, spec, minus)
        for trace in run_encoding_protocol(alpha, beta, spec):
            if trace.outcomes[0] == -1:
                assert dist(trace.entangled_state, expected) == 0.0


def test_protocol_w2():
    spec = CodeSpec("extended_binomial", 2, 1)
    traces = run_encoding_protocol(0.6, 0.8j, spec)
    for t in traces:
        assert abs(t.fidelity_to_target - 1.0) < 1e-12
        assert abs(t.probability - 0.25) < 1e-12


def test_protocol_sampled_reproducible():
    one = run_encoding_protocol(0.6, 0.8, SPEC11, seed=5)
    two = run_encoding_protocol(0.6, 0.8, SPEC11, seed=5)
    assert len(one) == len(two) == 1
    assert one[0].outcomes == two[0].outcomes


def test_protocol_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_encoding_protocol(1.0, 0.0, CodeSpec("extended_binomial", 1, 2))
    with pytest.raises(ValueError):
        run_encoding_protocol(1.0, 0.5, SPEC11)
