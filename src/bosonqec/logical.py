"""Logical operators and the measurement-based encoding protocol.

Per-mode primitives on the extended binomial layout: the bit-flip analog
swaps |0> and |w+1> (identity on intermediate levels, so it is Hermitian
and unitary on the truncated space) and the phase analog is
exp(i pi n / (w+1)), which gives +1 on |0> and -1 on |w+1>.  Logical
X of qubit l acts on data mode w+l alone; logical Z of qubit l combines
the phase analog on all buffer modes with data mode w+l; the global
bit flip of all K qubits needs only the swap on buffer mode 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, LogicalBasis, logical_basis
from .fock import (
    LinearMap,
    ModeLayout,
    Occupation,
    PureState,
    add_states,
    apply,
    compose,
    inner,
    max_deviation_from_identity,
    measure_integer_observable,
)

KINDS = ("X", "Z", "X_all", "Z_all")
ALGEBRA_TOL = 1e-12  # max deviation each algebra check allows


@dataclass(frozen=True)
class LogicalOperator:
    kind: str
    ell: int | None
    map: LinearMap


def _swap_entries(spec: CodeSpec, mode: int) -> dict:
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


def _phase_entries(spec: CodeSpec, modes: tuple[int, ...]) -> dict:
    """Product of exp(i pi n_j / (w+1)) over ``modes``, diagonal."""
    top = spec.w + 1
    entries = {}
    for occ in spec.layout.all_occupations():
        total = sum(occ[m] for m in modes)
        entries[(occ, occ)] = cmath.exp(1j * math.pi * total / top)
    return entries


def build_logical_operator(kind: str, ell: int | None, spec: CodeSpec) -> LogicalOperator:
    """Construct a logical operator as a concrete map on the code layout."""
    if spec.family != "extended_binomial":
        raise ValueError("logical operators are defined for the extended binomial family")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    w, k = spec.w, spec.k
    layout = spec.layout
    if kind in ("X", "Z"):
        if ell is None or not 0 <= ell < k:
            raise ValueError(f"qubit index {ell} out of range for k={k}")
    if kind == "X":
        entries = _swap_entries(spec, w + ell)
    elif kind == "X_all":
        entries = _swap_entries(spec, 0)
    elif kind == "Z":
        entries = _phase_entries(spec, tuple(range(w)) + (w + ell,))
    else:  # Z_all: product of the K per-qubit phase operators
        modes: tuple[int, ...] = ()
        for q in range(k):
            modes += tuple(range(w)) + (w + q,)
        entries = _phase_entries(spec, modes)
    return LogicalOperator(kind, ell, LinearMap(layout, layout, entries))


def _flip(label: str, ell: int) -> str:
    bits = list(label)
    bits[ell] = "1" if bits[ell] == "0" else "0"
    return "".join(bits)


@dataclass(frozen=True)
class LogicalAlgebraReport:
    spec: CodeSpec
    checks: dict[str, float]  # check name -> max deviation

    @property
    def passed(self) -> bool:
        return all(v <= ALGEBRA_TOL for v in self.checks.values())


def verify_logical_algebra(
    spec: CodeSpec, basis: LogicalBasis | None = None
) -> LogicalAlgebraReport:
    """Check the Pauli algebra of the logical operators on the code space.

    Unitarity is verified on the full truncated space; involution,
    (anti)commutation, and the action table are verified against the
    codewords, where the phase operator acts as a real +-1.
    """
    if basis is None:
        basis = logical_basis(spec)
    k = spec.k
    xs = [build_logical_operator("X", ell, spec).map for ell in range(k)]
    zs = [build_logical_operator("Z", ell, spec).map for ell in range(k)]
    x_all = build_logical_operator("X_all", None, spec).map
    z_all = build_logical_operator("Z_all", None, spec).map
    checks: dict[str, float] = {}

    unitary_dev = 0.0
    for op in xs + zs + [x_all, z_all]:
        unitary_dev = max(
            unitary_dev, max_deviation_from_identity(compose(op.adjoint(), op))
        )
    checks["unitarity"] = unitary_dev

    action_x = 0.0
    action_z = 0.0
    involution = 0.0
    anticommute = 0.0
    commute = 0.0
    for label, cw in basis.codewords.items():
        for ell in range(k):
            flipped = basis.codewords[_flip(label, ell)]
            diff = add_states(apply(xs[ell], cw), flipped, 1.0, -1.0)
            action_x = max(action_x, diff.norm())
            sign = -1.0 if label[ell] == "1" else 1.0
            diff = add_states(apply(zs[ell], cw), cw, 1.0, -sign)
            action_z = max(action_z, diff.norm())
            for op in (xs[ell], zs[ell]):
                diff = add_states(apply(op, apply(op, cw)), cw, 1.0, -1.0)
                involution = max(involution, diff.norm())
            anti = add_states(
                apply(xs[ell], apply(zs[ell], cw)), apply(zs[ell], apply(xs[ell], cw))
            )
            anticommute = max(anticommute, anti.norm())
            for m in range(k):
                if m == ell:
                    continue
                comm = add_states(
                    apply(xs[ell], apply(zs[m], cw)),
                    apply(zs[m], apply(xs[ell], cw)),
                    1.0,
                    -1.0,
                )
                commute = max(commute, comm.norm())
    checks["action_x"] = action_x
    checks["action_z"] = action_z
    checks["involution"] = involution
    checks["anticommutation"] = anticommute
    checks["cross_commutation"] = commute

    x_all_dev = 0.0
    z_all_dev = 0.0
    for label, cw in basis.codewords.items():
        product = cw
        for ell in range(k):
            product = apply(xs[ell], product)
        diff = add_states(apply(x_all, cw), product, 1.0, -1.0)
        x_all_dev = max(x_all_dev, diff.norm())
        sign = -1.0 if label.count("1") % 2 else 1.0
        diff = add_states(apply(z_all, cw), cw, 1.0, -sign)
        z_all_dev = max(z_all_dev, diff.norm())
    checks["x_all_vs_product"] = x_all_dev
    checks["z_all_action"] = z_all_dev

    # derived operators: Y = -i Z X squares to +1, H = (X+Z)/sqrt(2) is
    # unitary on the code space
    y_dev = 0.0
    h_dev = 0.0
    for label, cw in basis.codewords.items():
        for ell in range(k):
            y_cw = apply(zs[ell], apply(xs[ell], cw)).scaled(-1j)
            y2 = apply(zs[ell], apply(xs[ell], y_cw)).scaled(-1j)
            y_dev = max(y_dev, add_states(y2, cw, 1.0, -1.0).norm())
            h_cw = add_states(apply(xs[ell], cw), apply(zs[ell], cw)).scaled(
                1.0 / math.sqrt(2.0)
            )
            h_dev = max(h_dev, abs(h_cw.norm() - 1.0))
    checks["y_squared"] = y_dev
    checks["h_isometry"] = h_dev

    return LogicalAlgebraReport(spec, checks)


# ---------------------------------------------------------------------------
# Measurement-based encoding protocol (K = 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolTrace:
    alpha: complex
    beta: complex
    outcomes: tuple[int, int]      # +-1 for the joint-Z and physical-X steps
    probability: float
    entangled_state: PureState     # joint state after the conditional bit flip
    final_state: PureState
    fidelity_to_target: float


def _measure_joint_z(state: PureState, spec: CodeSpec):
    """Projective measurement of (physical Z) x (logical Z).

    On the joint layout all occupations are multiples of w+1 except the
    physical mode, so the +-1 eigenvalue is read from the integer
    functional (w+1)*n_phys + sum(buffer) + n_data modulo 2(w+1):
    outcome 0 is +1 and outcome w+1 is -1.
    """
    w = spec.w
    coeffs = [w + 1] + [1] * w + [1]
    branches = measure_integer_observable(state, coeffs, 2 * (w + 1), squared=False)
    by_sign = {}
    for branch in branches:
        if branch.outcome == 0:
            by_sign[+1] = branch
        elif branch.outcome == w + 1:
            by_sign[-1] = branch
        else:
            raise ValueError("state left the code-plus-qubit subspace")
    return by_sign


def _project_physical_x(state: PureState, sign: int) -> tuple[float, PureState]:
    """Project the leading occupation-1 mode onto |+> or |-> and drop it."""
    rest_layout = ModeLayout(state.layout.cutoffs[1:])
    amps: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        weight = amp / math.sqrt(2.0) * (sign if occ[0] == 1 else 1.0)
        rest = occ[1:]
        amps[rest] = amps.get(rest, 0.0) + weight
    reduced = PureState(rest_layout, amps)
    return reduced.norm_squared(), reduced


def run_encoding_protocol(
    alpha: complex,
    beta: complex,
    spec: CodeSpec,
    outcome_selector: str = "enumerate_all",
    seed: int | None = None,
    basis: LogicalBasis | None = None,
) -> list[ProtocolTrace]:
    """Teleport an unknown physical qubit into the code space.

    Steps: prepare the logical plus state alongside the physical qubit,
    measure joint Z, flip logically on -1, measure physical X, discard
    the qubit, and apply logical Z on -1.  With ``enumerate_all`` all
    four outcome branches are returned; with ``sampled`` one branch is
    drawn per the branch probabilities using ``seed``.
    """
    if spec.k != 1:
        raise ValueError("the encoding protocol is defined for k = 1")
    alpha, beta = complex(alpha), complex(beta)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-12:
        raise ValueError("input amplitudes must be normalized")
    if outcome_selector not in ("enumerate_all", "sampled"):
        raise ValueError(f"unknown outcome selector {outcome_selector!r}")
    if basis is None:
        basis = logical_basis(spec)
    zero, one = basis.codewords["0"], basis.codewords["1"]
    target = add_states(zero, one, alpha, beta)
    x_bar = build_logical_operator("X", 0, spec).map
    z_bar = build_logical_operator("Z", 0, spec).map

    qubit_layout = ModeLayout((1,))
    joint_layout = qubit_layout.concat(spec.layout)
    plus_bar = add_states(zero, one).scaled(1.0 / math.sqrt(2.0))
    amps: dict[Occupation, complex] = {}
    for occ, amp in plus_bar.amplitudes.items():
        if abs(alpha) > 0.0:
            amps[(0,) + occ] = alpha * amp
        if abs(beta) > 0.0:
            amps[(1,) + occ] = beta * amp
    joint = PureState(joint_layout, amps)

    z_branches = _measure_joint_z(joint, spec)

    rng = np.random.default_rng(seed) if outcome_selector == "sampled" else None
    traces: list[ProtocolTrace] = []
    for z_sign in (+1, -1):
        if z_sign not in z_branches:
            continue
        z_branch = z_branches[z_sign]
        entangled = z_branch.state
        if z_sign == -1:
            # logical bit flip on the code modes, identity on the qubit
            flipped: dict[Occupation, complex] = {}
            for occ, amp in entangled.amplitudes.items():
                corrected = apply(x_bar, PureState(spec.layout, {occ[1:]: amp}))
                for c_occ, c_amp in corrected.amplitudes.items():
                    key = occ[:1] + c_occ
                    flipped[key] = flipped.get(key, 0.0) + c_amp
            entangled = PureState(joint_layout, flipped)
        for x_sign in (+1, -1):
            cond_prob, reduced = _project_physical_x(entangled, x_sign)
            if cond_prob == 0.0:
                continue
            final = reduced.normalized()
            if x_sign == -1:
                final = apply(z_bar, final)
            fidelity = abs(inner(target, final)) ** 2
            traces.append(
                ProtocolTrace(
                    alpha,
                    beta,
                    (z_sign, x_sign),
                    z_branch.probability * cond_prob,
                    entangled,
                    final,
                    fidelity,
                )
            )
    if outcome_selector == "sampled":
        r = rng.random()
        acc = 0.0
        for trace in traces:
            acc += trace.probability
            if r <= acc:
                return [trace]
        return [traces[-1]]
    return traces
