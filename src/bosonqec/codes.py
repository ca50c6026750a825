"""The five supported code families and their one codeword constructor.

Families
--------
one_mode_binomial / two_mode_binomial
    Classic binomial codewords on one or two oscillators, spacing w+1.
qubit_shor_ad
    Shor-style qubit codewords correcting weight-w amplitude damping:
    w buffer blocks of w+1 occupation-1 modes in even/odd parity
    superposition paired with K data blocks carrying the label or its
    bitwise complement.
extended_binomial
    The bosonic analog: each qubit block becomes one oscillator with
    basis {|0>, |w+1>}.
ce_extended_binomial
    Constant-excitation variant: every mode is paired with its
    complement, so each component carries total excitation (w+K)(w+1)
    and collective-coherent evolution acts as a global phase.

Every non-binomial family writes each of its w+K bits as its ``BLOCKS``
entry, one group of modes whose width and top occupation fix the layout.

Buffer parity convention: even-parity buffer strings pair with the
label string, odd-parity strings with its complement, uniformly for all
labels.  This reproduces every explicitly tabulated codeword and keeps
all 2^K codewords orthogonal for every (w, K).
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from .fock import EQ_TOL, Frozen, ModeLayout, Occupation, PureState, inner

# how many oscillators each binomial family writes its one logical qubit on
BINOMIAL = {"one_mode_binomial": 1, "two_mode_binomial": 2}

# how the shor-type and extended-binomial families write one logical bit
# as the occupations of one group of modes: a qubit block, one
# oscillator, or one oscillator paired with its complement
BLOCKS = {
    "qubit_shor_ad": lambda bit, w: (bit,) * (w + 1),
    "extended_binomial": lambda bit, w: (bit * (w + 1),),
    "ce_extended_binomial": lambda bit, w: (bit * (w + 1), (1 - bit) * (w + 1)),
}

FAMILIES = (*BINOMIAL, *BLOCKS)


class CodeSpec(Frozen):
    """Code family plus parameters: correctable loss weight w, logical qubits K.

    Equal, with equal hashes, when family, w and k are equal.
    """

    __slots__ = ("family", "w", "k")

    def __init__(self, family: str, w: int, k: int = 1):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if w < 1:
            raise ValueError("w must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        if family not in BLOCKS and k != 1:
            raise ValueError(f"{family} encodes a single qubit (k=1)")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "k", k)

    def __repr__(self) -> str:
        return f"CodeSpec(family={self.family!r}, w={self.w!r}, k={self.k!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.w, self.k) == (other.family, other.w, other.k)

    def __hash__(self) -> int:
        return hash((self.family, self.w, self.k))

    @property
    def num_modes(self) -> int:
        if self.family in BINOMIAL:
            return BINOMIAL[self.family]
        return (self.w + self.k) * len(BLOCKS[self.family](0, self.w))

    @property
    def mode_cutoff(self) -> int:
        if self.family in BINOMIAL:
            return (self.w + 1) ** 2
        block = BLOCKS[self.family]
        return max(block(1, self.w) + block(0, self.w))

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


def codeword(spec: CodeSpec, label: str) -> PureState:
    """The normalized codeword of ``label`` in the code ``spec``.

    Binomial codewords carry sqrt(C(w+1, n) / 2^w) on the kets |n(w+1)>
    for i <= n <= w+1 with n-i even; the two-mode family appends the
    excitation-complement ket |(w+1-n)(w+1)>.  Every other family writes
    each buffer string and the label (even-parity buffer) or its
    complement (odd parity) block by block through ``BLOCKS``, with
    amplitude 2^(-w/2).
    """
    label = _check_label(label, spec.k)
    w = spec.w
    amps: dict[Occupation, float] = {}
    if spec.family in BLOCKS:
        block = BLOCKS[spec.family]
        comp = _complement(label)
        amp = 1.0 / math.sqrt(2.0**w)
        for buffer in _buffer_strings(w):
            data = label if sum(buffer) % 2 == 0 else comp
            occ: tuple[int, ...] = ()
            for bit in buffer + tuple(int(ch) for ch in data):
                occ += block(bit, w)
            amps[occ] = amp
    else:
        spacing = w + 1
        for n in range(int(label), w + 2, 2):
            occ = (n * spacing,)
            if spec.family == "two_mode_binomial":
                occ += ((w + 1 - n) * spacing,)
            amps[occ] = math.sqrt(math.comb(w + 1, n) / 2.0**w)
    return PureState(spec.layout, amps).normalized()


class LogicalBasis(NamedTuple):
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


def max_excitation(spec: CodeSpec) -> int:
    """Closed-form largest total excitation of any component of any
    codeword of ``spec``: (w+1)(w+K), every block of w+1 quanta excited.

    Some shor-type and extended binomial codeword excites every block
    (all-ones buffer with all-ones data at even w, or the complement of
    the all-zeros label at odd w); every constant-excitation component
    has that total, and the one- and two-mode binomial codes (K = 1)
    reach (w+1)^2.
    """
    return (spec.w + 1) * (spec.w + spec.k)
