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
from typing import NamedTuple

# rng is bound as a module, executed only by a sampled protocol run
from . import rng
from .codes import CodeSpec, LogicalBasis, logical_basis
from .fock import (
    EQ_TOL,
    LinearMap,
    ModeLayout,
    Occupation,
    PureState,
    add_states,
    apply_on_modes,
    compose,
    inner,
    max_deviation_from_identity,
    measure_integer_observable,
    tensor,
)

KINDS = ("X", "Z", "X_all", "Z_all")
CHECKS = (
    "unitarity", "action_x", "action_z", "involution", "anticommutation",
    "cross_commutation", "x_all_vs_product", "z_all_action", "y_squared", "h_isometry",
)


class LogicalOperator(NamedTuple):
    """The one-mode factor ``map`` applied to each of ``modes`` in turn
    (``fock.apply_on_modes``); a mode listed twice gets it twice."""

    kind: str
    ell: int | None
    modes: tuple[int, ...]
    map: LinearMap


def build_logical_operator(kind: str, ell: int | None, spec: CodeSpec) -> LogicalOperator:
    """Construct a logical operator as a one-mode factor and its modes.

    The factor lives on the (w+2)-level mode: the swap |0> <-> |w+1> for
    X and X_all, the phase exp(i pi n / (w+1)) for Z and Z_all, exactly
    +1 on |0> and -1 on |w+1>.
    """
    if spec.family != "extended_binomial":
        raise ValueError("logical operators are defined for the extended binomial family")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    w, k = spec.w, spec.k
    if kind in ("X", "Z"):
        if ell is None or not 0 <= ell < k:
            raise ValueError(f"qubit index {ell} out of range for k={k}")
    top = w + 1
    if kind in ("X", "X_all"):
        modes = (w + ell,) if kind == "X" else (0,)
        swap = {0: top, top: 0}
        entries = {((swap.get(n, n),), (n,)): 1.0 for n in range(top + 1)}
    else:
        # Z_all is the product of the K per-qubit phase operators
        qubits = (ell,) if kind == "Z" else range(k)
        modes = tuple(m for q in qubits for m in (*range(w), w + q))
        phases = [1.0] + [cmath.exp(1j * math.pi * n / top) for n in range(1, top)] + [-1.0]
        entries = {((n,), (n,)): phase for n, phase in enumerate(phases)}
    one_mode = ModeLayout((top,))
    return LogicalOperator(kind, ell, modes, LinearMap(one_mode, one_mode, entries))


def _act(op: LogicalOperator, state: PureState) -> PureState:
    return apply_on_modes(op.map, op.modes, state)


def _flip(label: str, ell: int) -> str:
    bits = list(label)
    bits[ell] = "1" if bits[ell] == "0" else "0"
    return "".join(bits)


def verify_logical_algebra(basis: LogicalBasis) -> dict[str, float]:
    """Check the Pauli algebra of the logical operators on the code space:
    the max deviation of each check in ``CHECKS``, by name.

    Unitarity is verified on the (w+2)-level factor of each operator: a
    unitary factor embedded on one mode, or repeated as commuting
    diagonal phases on several, is unitary on the full truncated space
    exactly when the factor is.  Involution, (anti)commutation, and the
    action table are verified against the codewords, where the phase
    operator acts as a real +-1.  Each operator acts on each codeword
    once; every check reads those states, plus the one further
    application it needs.  The derived operators are Y = -i Z X, which
    squares to +1, and H = (X+Z)/sqrt(2), unitary on the code space.
    """
    spec = basis.spec
    k = spec.k
    xs = [build_logical_operator("X", ell, spec) for ell in range(k)]
    zs = [build_logical_operator("Z", ell, spec) for ell in range(k)]
    x_all = build_logical_operator("X_all", None, spec)
    z_all = build_logical_operator("Z_all", None, spec)
    checks = dict.fromkeys(CHECKS, 0.0)

    def fold(name: str, value: float) -> None:
        checks[name] = max(checks[name], value)

    def gap(name: str, a: PureState, b: PureState, cb: complex = -1.0) -> None:
        fold(name, add_states(a, b, 1.0, cb).norm())

    for op in xs + zs + [x_all, z_all]:
        fold("unitarity", max_deviation_from_identity(compose(op.map.adjoint(), op.map)))
    for label, cw in basis.codewords.items():
        x_cw = [_act(x, cw) for x in xs]
        z_cw = [_act(z, cw) for z in zs]
        for ell, (x, z) in enumerate(zip(xs, zs)):
            gap("action_x", x_cw[ell], basis.codewords[_flip(label, ell)])
            gap("action_z", z_cw[ell], cw, 1.0 if label[ell] == "1" else -1.0)
            gap("involution", _act(x, x_cw[ell]), cw)
            gap("involution", _act(z, z_cw[ell]), cw)
            zx = _act(z, x_cw[ell])
            gap("anticommutation", _act(x, z_cw[ell]), zx, 1.0)
            for m in range(k):
                if m != ell:
                    gap("cross_commutation", _act(x, z_cw[m]), _act(zs[m], x_cw[ell]))
            gap("y_squared", _act(z, _act(x, zx.scaled(-1j))).scaled(-1j), cw)
            h_cw = add_states(x_cw[ell], z_cw[ell]).scaled(1.0 / math.sqrt(2.0))
            fold("h_isometry", abs(h_cw.norm() - 1.0))
        product = x_cw[0]
        for x in xs[1:]:
            product = _act(x, product)
        gap("x_all_vs_product", _act(x_all, cw), product)
        gap("z_all_action", _act(z_all, cw), cw, 1.0 if label.count("1") % 2 else -1.0)
    return checks


# ---------------------------------------------------------------------------
# Measurement-based encoding protocol (K = 1)
# ---------------------------------------------------------------------------


class ProtocolTrace(NamedTuple):
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
    branches = measure_integer_observable(state, coeffs, 2 * (w + 1))
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
    alpha: complex, beta: complex, spec: CodeSpec, seed: int | None = None
) -> list[ProtocolTrace]:
    """Teleport an unknown physical qubit into the code space.

    Steps: prepare the logical plus state alongside the physical qubit,
    measure joint Z, flip logically on -1, measure physical X, discard
    the qubit, and apply logical Z on -1.  Without ``seed`` all four
    outcome branches are returned; with one, a single branch is drawn
    per the branch probabilities from ``rng.Generator(seed)``.
    """
    if spec.k != 1:
        raise ValueError("the encoding protocol is defined for k = 1")
    alpha, beta = complex(alpha), complex(beta)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > EQ_TOL:
        raise ValueError("input amplitudes must be normalized")
    codewords = logical_basis(spec).codewords
    zero, one = codewords["0"], codewords["1"]
    target = add_states(zero, one, alpha, beta)
    x_bar = build_logical_operator("X", 0, spec)
    z_bar = build_logical_operator("Z", 0, spec)

    plus_bar = add_states(zero, one).scaled(1.0 / math.sqrt(2.0))
    joint = tensor(PureState(ModeLayout((1,)), {(0,): alpha, (1,): beta}), plus_bar)

    z_branches = _measure_joint_z(joint, spec)

    traces: list[ProtocolTrace] = []
    for z_sign in (+1, -1):
        if z_sign not in z_branches:
            continue
        z_branch = z_branches[z_sign]
        entangled = z_branch.state
        if z_sign == -1:
            # logical bit flip on the code modes, which follow the qubit
            entangled = apply_on_modes(
                x_bar.map, tuple(m + 1 for m in x_bar.modes), entangled
            )
        for x_sign in (+1, -1):
            cond_prob, reduced = _project_physical_x(entangled, x_sign)
            if cond_prob == 0.0:
                continue
            final = reduced.normalized()
            if x_sign == -1:
                final = _act(z_bar, final)
            fidelity = abs(inner(target, final)) ** 2
            traces.append(
                ProtocolTrace(
                    (z_sign, x_sign),
                    z_branch.probability * cond_prob,
                    entangled,
                    final,
                    fidelity,
                )
            )
    if seed is not None:
        r = rng.Generator(seed).random()
        acc = 0.0
        for trace in traces:
            acc += trace.probability
            if r <= acc:
                return [trace]
        return [traces[-1]]
    return traces
