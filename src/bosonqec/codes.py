"""Constructors for the five supported code families.

Families
--------
one_mode_binomial / two_mode_binomial
    Classic binomial codewords on one or two oscillators, spacing w+1.
qubit_shor_ad
    Shor-style qubit codewords correcting weight-w amplitude damping,
    on (w+1)(w+K) occupation-1 modes: w buffer blocks in even/odd parity
    superposition paired with K data blocks carrying the label or its
    bitwise complement.
extended_binomial
    The bosonic analog on w+K oscillators truncated at w+1: each qubit
    block becomes one mode with basis {|0>, |w+1>}.
ce_extended_binomial
    Constant-excitation variant: every mode is paired with its
    complement, so each component carries total excitation (w+K)(w+1)
    and collective-coherent evolution acts as a global phase.

Buffer parity convention: even-parity buffer strings pair with the
label string, odd-parity strings with its complement, uniformly for all
labels.  This reproduces every explicitly tabulated codeword and keeps
all 2^K codewords orthogonal for every (w, K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .fock import EQ_TOL, ModeLayout, Occupation, PureState, inner

FAMILIES = (
    "one_mode_binomial",
    "two_mode_binomial",
    "qubit_shor_ad",
    "extended_binomial",
    "ce_extended_binomial",
)


@dataclass(frozen=True)
class CodeSpec:
    """Code family plus parameters: correctable loss weight w, logical qubits K."""

    family: str
    w: int
    k: int = 1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.family in ("one_mode_binomial", "two_mode_binomial") and self.k != 1:
            raise ValueError(f"{self.family} encodes a single qubit (k=1)")

    @property
    def num_modes(self) -> int:
        w, k = self.w, self.k
        return {
            "one_mode_binomial": 1,
            "two_mode_binomial": 2,
            "qubit_shor_ad": (w + 1) * (w + k),
            "extended_binomial": w + k,
            "ce_extended_binomial": 2 * (w + k),
        }[self.family]

    @property
    def mode_cutoff(self) -> int:
        if self.family in ("one_mode_binomial", "two_mode_binomial"):
            return (self.w + 1) ** 2
        if self.family == "qubit_shor_ad":
            return 1
        return self.w + 1

    @property
    def layout(self) -> ModeLayout:
        return ModeLayout((self.mode_cutoff,) * self.num_modes)

    @property
    def labels(self) -> list[str]:
        return ["".join(bits) for bits in product("01", repeat=self.k)]


def _check_label(label: str, k: int) -> str:
    label = str(label)
    if len(label) != k or any(ch not in "01" for ch in label):
        raise ValueError(f"label {label!r} is not a {k}-bit string")
    return label


def _complement(label: str) -> str:
    return "".join("1" if ch == "0" else "0" for ch in label)


def _buffer_strings(w: int) -> list[tuple[int, ...]]:
    return sorted(product((0, 1), repeat=w))


def binomial_codeword(w: int, label: str, variant: str = "one_mode") -> PureState:
    """One- or two-mode binomial codeword with spacing w+1.

    Coefficients sqrt(C(w+1, n) / 2^w) on the kets |n(w+1)>, restricted
    to i <= n <= w+1 with n-i even; the two-mode variant appends the
    excitation-complement ket |(w+1-n)(w+1)>.
    """
    if variant not in ("one_mode", "two_mode"):
        raise ValueError(f"unknown variant {variant!r}")
    i = int(_check_label(label, 1))
    if w < 1:
        raise ValueError("w must be >= 1")
    spacing = w + 1
    cutoff = spacing * spacing
    amps: dict[Occupation, float] = {}
    for n in range(i, w + 2):
        if (n - i) % 2 != 0:
            continue
        coeff = math.sqrt(math.comb(w + 1, n) / 2.0**w)
        if variant == "one_mode":
            amps[(n * spacing,)] = coeff
        else:
            amps[(n * spacing, (w + 1 - n) * spacing)] = coeff
    layout = ModeLayout((cutoff,) * (1 if variant == "one_mode" else 2))
    return PureState(layout, amps).normalized()


def _parity_split_components(
    w: int, k: int, label: str, block
) -> dict[Occupation, float]:
    """Shared expansion for the shor-type and extended-binomial families.

    ``block(bit)`` maps one logical bit to the occupation tuple of one
    group (a qubit block or a single oscillator).  Even-parity buffer
    strings carry the label, odd-parity strings its complement.
    """
    label = _check_label(label, k)
    comp = _complement(label)
    amp = 1.0 / math.sqrt(2.0**w)
    amps: dict[Occupation, float] = {}
    for buffer in _buffer_strings(w):
        data = label if sum(buffer) % 2 == 0 else comp
        occ: tuple[int, ...] = ()
        for bit in buffer:
            occ += block(bit)
        for ch in data:
            occ += block(int(ch))
        amps[occ] = amp
    return amps


def qubit_shor_codeword(w: int, k: int, label: str) -> PureState:
    """Shor-type qubit codeword on (w+1)(w+K) occupation-1 modes."""
    spec = CodeSpec("qubit_shor_ad", w, k)
    amps = _parity_split_components(w, k, label, lambda bit: (bit,) * (w + 1))
    return PureState(spec.layout, amps).normalized()


def extended_binomial_codeword(w: int, k: int, label: str) -> PureState:
    """Bosonic codeword on w+K modes with per-mode basis {|0>, |w+1>}."""
    spec = CodeSpec("extended_binomial", w, k)
    amps = _parity_split_components(w, k, label, lambda bit: (bit * (w + 1),))
    return PureState(spec.layout, amps).normalized()


def ce_extended_binomial_codeword(w: int, k: int, label: str) -> PureState:
    """Constant-excitation codeword: every mode paired with its complement.

    The pairing maps (|0>, |w+1>) to (|0>|w+1>, |w+1>|0>), so every
    component carries total excitation (w+K)(w+1) exactly.
    """
    spec = CodeSpec("ce_extended_binomial", w, k)
    amps = _parity_split_components(
        w, k, label, lambda bit: (bit * (w + 1), (1 - bit) * (w + 1))
    )
    return PureState(spec.layout, amps).normalized()


def codeword(spec: CodeSpec, label: str) -> PureState:
    if spec.family == "one_mode_binomial":
        return binomial_codeword(spec.w, label, "one_mode")
    if spec.family == "two_mode_binomial":
        return binomial_codeword(spec.w, label, "two_mode")
    if spec.family == "qubit_shor_ad":
        return qubit_shor_codeword(spec.w, spec.k, label)
    if spec.family == "extended_binomial":
        return extended_binomial_codeword(spec.w, spec.k, label)
    return ce_extended_binomial_codeword(spec.w, spec.k, label)


@dataclass(frozen=True)
class LogicalBasis:
    """All 2^K codewords of a code, keyed by label string."""

    spec: CodeSpec
    codewords: dict[str, PureState]

    def gram_deviation(self) -> float:
        """Max deviation of the codeword Gram matrix from the identity."""
        labels = self.spec.labels
        dev = 0.0
        for a in labels:
            for b in labels:
                g = inner(self.codewords[a], self.codewords[b])
                target = 1.0 if a == b else 0.0
                dev = max(dev, abs(g - target))
        return dev


def logical_basis(spec: CodeSpec) -> LogicalBasis:
    basis = LogicalBasis(spec, {label: codeword(spec, label) for label in spec.labels})
    if basis.gram_deviation() > EQ_TOL:
        raise ValueError(f"codewords of {spec} are not orthonormal")
    return basis


def merge_modes_to_single(s: PureState) -> PureState:
    """Collapse an occupation-1 multi-mode state onto a single oscillator.

    Components map to |sum_j n_j>; colliding components are collected in
    quadrature (the new magnitude is the root of the summed squared
    magnitudes, keeping the phase of the amplitude sum), which preserves
    the norm and reproduces the binomial envelope of the merged shor-type
    codewords.  The result is normalized.
    """
    if any(c != 1 for c in s.layout.cutoffs):
        raise ValueError("merging requires occupation-1 modes")
    collected: dict[int, list[complex]] = {}
    for occ, amp in s.amplitudes.items():
        collected.setdefault(sum(occ), []).append(amp)
    total = s.layout.num_modes
    amps: dict[Occupation, complex] = {}
    for weight in sorted(collected):
        group = collected[weight]
        magnitude = math.sqrt(sum(abs(a) ** 2 for a in group))
        phase_sum = sum(group)
        phase = phase_sum / abs(phase_sum) if abs(phase_sum) > 0.0 else 1.0
        amps[(weight,)] = magnitude * phase
    return PureState(ModeLayout((total,)), amps).normalized()


def mean_excitation(spec: CodeSpec) -> float:
    """Closed-form total excitation <n> of every codeword of ``spec``.

    A one-mode binomial codeword holds (w+1)/2 quanta of spacing w+1 on
    average; shor-type and extended binomial codewords excite half of
    their w+K blocks of w+1 quanta.  The two-mode and constant-excitation
    families pair every mode with its complement, which doubles the total.
    """
    w, k = spec.w, spec.k
    return {
        "one_mode_binomial": (w + 1) ** 2 / 2.0,
        "two_mode_binomial": float((w + 1) ** 2),
        "qubit_shor_ad": (w + 1) * (w + k) / 2.0,
        "extended_binomial": (w + 1) * (w + k) / 2.0,
        "ce_extended_binomial": float((w + 1) * (w + k)),
    }[spec.family]
