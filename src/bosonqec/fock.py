"""Sparse linear algebra on truncated multi-mode Fock spaces.

States are sparse maps from occupation vectors to complex amplitudes,
operators are sparse square operators on one layout.  Everything is
immutable after construction and every reduction sums left to right
from zero in lexicographic key order, so identical inputs reproduce
bit-identical outputs on every Python version.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import sqrt
from operator import add
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

PRUNE_TOL = 1e-15  # amplitudes below this magnitude are dropped
EQ_TOL = 1e-12     # default closeness / normalization tolerance
NORM_TOL = 1e-9    # norm deviation total_number_expectation accepts

Occupation = tuple[int, ...]


class Frozen:
    """Base of the immutable classes: ``__init__`` sets each slot once
    through ``object.__setattr__``, and any later assignment or deletion
    of an attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ModeLayout(Frozen):
    """Truncated multi-mode Fock space: one inclusive occupation cutoff per mode.

    Equal, with equal hashes, when the cutoffs are equal.
    """

    __slots__ = ("cutoffs",)

    def __init__(self, cutoffs: Iterable[int]):
        cutoffs = tuple(int(c) for c in cutoffs)
        if len(cutoffs) < 1:
            raise ValueError("layout needs at least one mode")
        if any(c < 1 for c in cutoffs):
            raise ValueError(f"every cutoff must be >= 1, got {cutoffs}")
        object.__setattr__(self, "cutoffs", cutoffs)

    def __repr__(self) -> str:
        return f"ModeLayout(cutoffs={self.cutoffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.cutoffs == other.cutoffs

    def __hash__(self) -> int:
        return hash((self.cutoffs,))

    @property
    def num_modes(self) -> int:
        return len(self.cutoffs)

    def contains(self, occ: Occupation) -> bool:
        return len(occ) == len(self.cutoffs) and all(
            0 <= n <= c for n, c in zip(occ, self.cutoffs)
        )

    def validate(self, occ: Occupation) -> Occupation:
        occ = tuple(int(n) for n in occ)
        if not self.contains(occ):
            raise ValueError(f"occupation {occ} invalid for cutoffs {self.cutoffs}")
        return occ

    def all_occupations(self) -> Iterator[Occupation]:
        """Lexicographic enumeration of the full truncated basis.

        Intended for small layouts (operator materialization, unitarity
        checks); the basis size is prod(cutoff+1).
        """
        return product(*(range(c + 1) for c in self.cutoffs))

    def concat(self, other: "ModeLayout") -> "ModeLayout":
        return ModeLayout(self.cutoffs + other.cutoffs)


class PureState(Frozen):
    """Sparse pure state over a :class:`ModeLayout`.

    The amplitude map is canonicalized on construction: keys validated
    against the layout, sorted lexicographically, magnitudes below
    ``PRUNE_TOL`` dropped.  Instances are treated as immutable.
    """

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: ModeLayout, amplitudes: Mapping[Occupation, complex]):
        canonical: dict[Occupation, complex] = {}
        for occ in sorted(amplitudes):
            amp = complex(amplitudes[occ])
            if abs(amp) < PRUNE_TOL:
                continue
            canonical[layout.validate(occ)] = amp
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", canonical)

    def __repr__(self) -> str:
        terms = ", ".join(f"{occ}: {amp:.6g}" for occ, amp in self.amplitudes.items())
        return f"PureState({terms})"

    def __len__(self) -> int:
        return len(self.amplitudes)

    def norm_squared(self) -> float:
        return reduce(add, (abs(a) ** 2 for a in self.amplitudes.values()), 0.0)

    def norm(self) -> float:
        return sqrt(self.norm_squared())

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> "PureState":
        return PureState(
            self.layout, {occ: factor * amp for occ, amp in self.amplitudes.items()}
        )


def add_states(
    a: PureState, b: PureState, ca: complex = 1.0, cb: complex = 1.0
) -> PureState:
    """Linear combination ca*a + cb*b on a shared layout."""
    if a.layout != b.layout:
        raise ValueError("cannot add states on different layouts")
    amps = {occ: ca * amp for occ, amp in a.amplitudes.items()}
    for occ, amp in b.amplitudes.items():
        amps[occ] = amps.get(occ, 0.0) + cb * amp
    return PureState(a.layout, amps)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; the result layout concatenates the factor layouts."""
    layout = a.layout.concat(b.layout)
    amps = {}
    for occ_a, amp_a in a.amplitudes.items():
        for occ_b, amp_b in b.amplitudes.items():
            amps[occ_a + occ_b] = amp_a * amp_b
    return PureState(layout, amps)


def inner(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>, conjugate-linear in ``a``."""
    if a.layout != b.layout:
        raise ValueError("inner product requires identical layouts")
    acc = 0.0 + 0.0j
    for occ, amp_a in a.amplitudes.items():
        amp_b = b.amplitudes.get(occ)
        if amp_b is not None:
            acc += amp_a.conjugate() * amp_b
    return acc


def total_number_expectation(s: PureState) -> float:
    """Expectation of the summed number operator; input must be normalized."""
    if abs(s.norm() - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {s.norm():.3e} deviates from 1 beyond {NORM_TOL:.1e}")
    return reduce(add, (abs(amp) ** 2 * sum(occ) for occ, amp in s.amplitudes.items()), 0.0)


class LinearMap(Frozen):
    """Sparse square operator on one truncated Fock layout.

    Entries are keyed ``(out_occupation, in_occupation)``.  A per-input
    column index is built eagerly so application to sparse states costs
    O(support * fanout).
    """

    __slots__ = ("layout", "entries", "columns")

    def __init__(
        self, layout: ModeLayout, entries: Mapping[tuple[Occupation, Occupation], complex]
    ):
        canonical: dict[tuple[Occupation, Occupation], complex] = {}
        columns: dict[Occupation, list[tuple[Occupation, complex]]] = {}
        for out_occ, in_occ in sorted(entries, key=lambda k: (k[1], k[0])):
            coeff = complex(entries[(out_occ, in_occ)])
            if abs(coeff) < PRUNE_TOL:
                continue
            out_occ = layout.validate(out_occ)
            in_occ = layout.validate(in_occ)
            canonical[(out_occ, in_occ)] = coeff
            columns.setdefault(in_occ, []).append((out_occ, coeff))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "entries", canonical)
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return len(self.entries)

    def adjoint(self) -> "LinearMap":
        return LinearMap(self.layout, {(i, o): c.conjugate() for (o, i), c in self.entries.items()})


def apply_on_modes(m: LinearMap, modes: Sequence[int], s: PureState) -> PureState:
    """The one-mode map ``m`` applied to each of ``modes`` of ``s`` in turn.

    Other modes are left alone, and a mode listed twice gets ``m``
    twice.  Costs O(support * fanout) per listed mode.
    """
    if m.layout.num_modes != 1:
        raise ValueError("apply_on_modes needs a one-mode map")
    amps: Mapping[Occupation, complex] = s.amplitudes
    for mode in modes:
        if s.layout.cutoffs[mode] != m.layout.cutoffs[0]:
            raise ValueError(f"mode {mode} cutoff does not match the map")
        acc: dict[Occupation, complex] = {}
        for occ, amp in amps.items():
            for (out,), coeff in m.columns.get(occ[mode : mode + 1], ()):
                key = occ[:mode] + (out,) + occ[mode + 1 :]
                acc[key] = acc.get(key, 0.0) + coeff * amp
        amps = acc
    return PureState(s.layout, amps)


def compose(outer: LinearMap, inner_map: LinearMap) -> LinearMap:
    """Operator product outer @ inner_map."""
    if inner_map.layout != outer.layout:
        raise ValueError("layout mismatch in composition")
    acc: dict[tuple[Occupation, Occupation], complex] = {}
    for (mid, in_occ), c1 in inner_map.entries.items():
        for out_occ, c2 in outer.columns.get(mid, ()):
            key = (out_occ, in_occ)
            acc[key] = acc.get(key, 0.0) + c2 * c1
    return LinearMap(outer.layout, acc)


def max_deviation_from_identity(m: LinearMap) -> float:
    """Max-entry distance of ``m`` from the identity on its layout."""
    dev = 0.0
    for (out_occ, in_occ), coeff in m.entries.items():
        target = 1.0 if out_occ == in_occ else 0.0
        dev = max(dev, abs(coeff - target))
    for occ in m.layout.all_occupations():
        if (occ, occ) not in m.entries:
            dev = max(dev, 1.0)
    return dev


class MeasurementBranch(NamedTuple):
    outcome: int
    probability: float
    state: PureState


def measure_integer_observable(
    s: PureState, coeffs: Iterable[int], modulus: int
) -> list[MeasurementBranch]:
    """Projective measurement of an integer-valued occupation functional.

    Components are partitioned by ``(sum_j c_j n_j) mod m``.  Returns one
    branch per observed outcome with its probability (projected norm
    squared of the input) and normalized post-state, sorted by outcome.
    """
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != s.layout.num_modes:
        raise ValueError("coefficient count must match the mode count")
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if not s.amplitudes:
        raise ValueError("cannot measure the zero state")
    sectors: dict[int, dict[Occupation, complex]] = {}
    for occ, amp in s.amplitudes.items():
        value = sum(c * n for c, n in zip(coeffs, occ))
        sectors.setdefault(value % modulus, {})[occ] = amp
    branches = []
    for outcome in sorted(sectors):
        piece = PureState(s.layout, sectors[outcome])
        prob = piece.norm_squared()
        branches.append(MeasurementBranch(outcome, prob, piece.normalized()))
    return branches


def state_components(s: PureState) -> list[dict]:
    """JSON-ready component list: [{occupation, re, im}, ...] in canonical order."""
    return [
        {"occupation": list(occ), "re": amp.real, "im": amp.imag}
        for occ, amp in s.amplitudes.items()
    ]
