"""Sparse kernel for the damaged codewords A_a|i>, in pure Python.

Every quantity built from the damaged codewords (the Knill-Laflamme
overlaps, the code channel, the transpose recovery and the entanglement
fidelity) is an overlap between two sets of sparse vectors on one
truncated Fock layout.  Here such a set is a :class:`SparseRows`: a list
of amplitudes on a :class:`Support`, which places one COO entry per
nonzero amplitude, the occupation stored as a mixed-radix int key whose
order is the lexicographic order of the occupations.

A support keeps what is computed from the places of its entries alone
(``Support.derived``): the pairs of rows two supports share a key in and
the terms of each pair, the entries of each row.  The amplitudes then
reach the sums through C-level passes (``map``) in a fixed order.  At
every gamma at which no amplitude is pruned, the rows of a
:class:`DamagedIndex` lie on the index's one support, so over a gamma
grid the places are worked out once.

:class:`DamagedIndex` records which codeword component survives which
loss pattern and where it lands, once per code and loss weight.  The
amplitudes for one gamma are then one product per entry, taken over the
modes in the order of ``channels.apply_loss_pattern`` and pruned like a
``PureState``, so they are bit-identical to it.  :func:`overlaps`
computes all inner products <a_r|b_s> as one sparse join on the key;
each one accumulates in increasing key order, as ``fock.inner`` does,
and memory stays proportional to the number of matching pairs.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add, attrgetter, mul, ne, sub

from .channels import enumerate_loss_patterns, loss_amplitude, validate_gamma
from .codes import LogicalBasis
from .fock import PRUNE_TOL, Frozen, ModeLayout, PureState


def occupation_strides(layout: ModeLayout) -> list[int]:
    """Mixed-radix place values of the modes, mode 0 most significant."""
    strides = [1] * layout.num_modes
    for m in range(layout.num_modes - 2, -1, -1):
        strides[m] = strides[m + 1] * (layout.cutoffs[m + 1] + 1)
    return strides


class Support(Frozen):
    """Where the entries of ``n_rows`` sparse vectors lie: entry x in row
    ``row[x]`` at key ``key[x]``, sorted by row and, within a row, by key.

    ``key`` is an occupation key, or a codeword index for vectors
    expressed in the code basis.  The lists are never changed, and what
    is computed from them alone is kept, one result per function
    (``derived``).
    """

    __slots__ = ("n_rows", "row", "key", "_derived")

    def __init__(self, n_rows: int, row: list[int], key: list[int]):
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_derived", {})

    def derived(self, make, *args):
        """``make(self, *args)``, kept for the last ``args`` given with
        ``make``.  A gamma grid asks for the same ones at every gamma at
        which nothing is pruned; at one that prunes, the result for its
        own support is dropped at the next."""
        kept = self._derived.get(make)
        if kept is None or kept[0] != args:
            kept = self._derived[make] = (args, make(self, *args))
        return kept[1]


class SparseRows(Frozen):
    """A set of sparse vectors: ``value[x]`` is the amplitude of entry x of
    ``support``, and a row without entries is the zero vector."""

    __slots__ = ("support", "value")

    def __init__(self, support: Support, value: list[complex]):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "value", value)

    n_rows = property(lambda self: self.support.n_rows)
    row = property(lambda self: self.support.row)
    key = property(lambda self: self.support.key)

    def __len__(self) -> int:
        return self.support.n_rows

    def norms(self) -> list[float]:
        """Squared norm of every row, each summed in key order from the
        squares v.real * v.real + v.imag * v.imag, the real parts of
        v * conj(v)."""
        rows, sums = self.support.derived(_row_sums)
        value = self.value
        squares = map(attrgetter("real"), map(mul, value, map(complex.conjugate, value)))
        norm = dict(zip(rows, sums(list(squares), 0.0)))
        return list(map(norm.get, range(self.n_rows), repeat(0.0)))


class Sums:
    """Sums of runs of terms, each from zero in order: run k is terms
    ``starts[k]`` up to the next run's start, the last up to ``total``.

    ``Sums(starts, total)(terms, zero)`` lists the sum of each run.  The
    runs are taken longest first, so level t adds the t-th term of every
    run that has one in one C-level pass.
    """

    __slots__ = ("levels", "back")

    def __init__(self, starts: list[int], total: int):
        length = list(map(sub, [*starts[1:], total], starts))
        by_length = sorted(range(len(starts)), key=length.__getitem__, reverse=True)
        first = list(map(starts.__getitem__, by_length))
        self.levels: list[list[int]] = []
        count = len(starts)
        for t in range(length[by_length[0]] if starts else 0):
            while length[by_length[count - 1]] <= t:
                count -= 1
            self.levels.append(list(map(add, first[:count], repeat(t))))
        # where each run's sum lands, None if already longest first
        in_order = by_length == list(range(len(starts)))
        self.back = None if in_order else sorted(range(len(starts)), key=by_length.__getitem__)

    def __call__(self, terms: list, zero) -> list:
        if not self.levels:
            return []
        acc = list(map(add, repeat(zero), map(terms.__getitem__, self.levels[0])))
        for level in self.levels[1:]:
            acc[: len(level)] = map(add, acc[: len(level)], map(terms.__getitem__, level))
        return acc if self.back is None else list(map(acc.__getitem__, self.back))


def runs(ordered: list) -> list[int]:
    """Where each run of equal values of ``ordered`` starts."""
    return list(compress(range(len(ordered)), map(ne, ordered, [None, *ordered[:-1]])))


def _row_sums(support: Support) -> tuple[list[int], Sums]:
    """The rows with entries, ascending, and the sums over their entries."""
    starts = runs(support.row)
    return list(map(support.row.__getitem__, starts)), Sums(starts, len(support.row))


def sorted_support(n_rows: int, row: list[int], key: list[int]) -> tuple[Support, list[int]]:
    """The support of COO entries in any order, unique (row, key) pairs,
    and the order that sorts them."""
    order = sorted(sorted(range(len(row)), key=key.__getitem__), key=row.__getitem__)
    rows, keys = (list(map(column.__getitem__, order)) for column in (row, key))
    return Support(n_rows, rows, keys), order


def state_rows(states: list[PureState]) -> SparseRows:
    """One row per state, on the layout of the first."""
    strides = occupation_strides(states[0].layout)
    rows, keys, values = [], [], []
    for i, state in enumerate(states):
        rows += [i] * len(state)
        keys += [sum(map(mul, occ, strides)) for occ in state.amplitudes]
        values += state.amplitudes.values()
    return SparseRows(Support(len(states), rows, keys), values)


class DamagedIndex:
    """Gamma-independent support of A_a|i> over every loss pattern a of
    weight <= ``max_weight``.

    ``patterns`` lists them as ``enumerate_loss_patterns`` does, and
    ``code`` holds the codewords of ``labels`` (L labels), one row each.
    Row ``p * L + l`` is the damaged codeword of ``patterns[p]`` and
    ``labels[l]``.  A component with fewer excitations than the pattern
    removes on some mode has no entry; the others land on the occupation
    lowered by the pattern, so no two components of one row collide.
    The entries of ``support`` are in (pattern, component) order, so one
    damaged codeword's entries come out together and in key order.

    A component survives exactly the patterns with no loss off its
    occupied modes and at most its occupation on each of them.  Its
    amplitude factor is the product of ``loss_amplitude(n, x, gamma)``
    over the (occupation n, loss x) pairs of its occupied modes, in mode
    order: the factor of an empty mode, ``loss_amplitude(0, 0, gamma)``,
    is exactly 1.0.  Entries that share such a sequence share its
    product, and each product is its prefix's times one factor: sequence
    t + 1 is sequence ``_parent[t]`` followed by one pair (n, x), and
    ``_runs`` lists the ranges of t with one pair, n * (top + 1) + x,
    shorter sequences first; sequence 0 is empty.
    """

    def __init__(self, basis: LogicalBasis, max_weight: int):
        layout = basis.spec.layout
        self.labels = tuple(basis.spec.labels)
        self.patterns = tuple(enumerate_loss_patterns(layout.num_modes, max_weight))
        self.n_rows = len(self.patterns) * len(self.labels)
        codewords = [basis.codewords[label] for label in self.labels]
        self.code = state_rows(codewords)
        strides = occupation_strides(layout)
        self._top = max(layout.cutoffs)
        components = [occ for state in codewords for occ in state.amplitudes]
        choices = self._choices({tuple(n for n in occ if n) for occ in components}, max_weight)
        offsets = map(sum, map(map, repeat(mul), self.patterns, repeat(strides)))
        # a pattern with more losses on a mode than its cutoff shares its
        # offset with a later one, the only one a component survives
        pattern = dict(zip(offsets, range(len(self.patterns))))
        order, row, key, amplitude, node = [], [], [], [], []
        for c, (occ, label, k, amp) in enumerate(zip(components, self.code.row, self.code.key,
                                                     self.code.value)):
            nodes, losses = choices[tuple(n for n in occ if n)]
            occupied = [stride for n, stride in zip(occ, strides) if n]
            # the key offset of each loss choice, which names its pattern
            offset = list(map(sum, map(map, repeat(occupied.__getitem__), losses)))
            p = list(map(pattern.__getitem__, offset))
            order += map(add, map(mul, p, repeat(len(components))), repeat(c))
            row += map(add, map(mul, p, repeat(len(self.labels))), repeat(label))
            key += map(sub, repeat(k), offset)
            amplitude += repeat(amp, len(p))
            node += nodes
        order = sorted(range(len(order)), key=order.__getitem__)  # by pattern, then component
        row, key, self._amplitude, self._node = (
            list(map(column.__getitem__, order)) for column in (row, key, amplitude, node)
        )
        self.support = Support(self.n_rows, row, key)
        self._leaves = list(dict.fromkeys(self._node))  # the sequences of some entry
        self._least = min(map(abs, self.code.value), default=1.0)  # the smallest |amplitude|

    def _choices(self, sequences: set[tuple[int, ...]], max_weight: int) -> dict:
        """Every choice of losses x <= n of total at most ``max_weight`` on
        each occupation sequence n, as ``[sequence numbers, losses]``, a
        choice's losses as the positions in n they are taken from, each
        repeated x times.  Fills the sequence table, shared by all of
        them, length by length, once per prefix of a sequence."""
        code = self._top + 1
        self._parent: list[int] = []
        self._runs: list[tuple[int, int, int]] = []
        # [sequence numbers, losses, total loss] of each choice on a prefix
        partial = {(): [[0], [()], [0]]}
        for depth in range(max(map(len, sequences))):
            for prefix in sorted({seq[: depth + 1] for seq in sequences if len(seq) > depth}):
                nodes, losses, spent = partial[prefix[:-1]]
                n, grown = prefix[-1], [[], [], []]
                for x in range(min(n, max_weight) + 1):
                    fits = [total <= max_weight - x for total in spent]
                    start = len(self._parent)
                    self._parent += compress(nodes, fits)
                    self._runs.append((start, len(self._parent), n * code + x))
                    grown[0] += range(start + 1, len(self._parent) + 1)
                    grown[1] += map(add, compress(losses, fits), repeat((depth,) * x))
                    grown[2] += map(add, compress(spent, fits), repeat(x))
                partial[prefix] = grown
            for prefix in [p for p in partial if len(p) == depth and p not in sequences]:
                del partial[prefix]
        return {seq: partial[seq][:2] for seq in sequences}

    def rows(self, gamma: float) -> SparseRows:
        """A_a|i> at ``gamma``, amplitudes below ``PRUNE_TOL`` dropped: on
        ``support`` itself when none is."""
        gamma = validate_gamma(gamma)
        top = self._top
        factor = [loss_amplitude(n, x, gamma) for n in range(top + 1) for x in range(top + 1)]
        product = [1.0]
        for start, stop, pair in self._runs:  # a sequence's prefix comes before it
            parents = map(product.__getitem__, self._parent[start:stop])
            product += list(map(mul, parents, repeat(factor[pair])))
        value = list(map(mul, map(product.__getitem__, self._node), self._amplitude))
        # |P * amp| is P |amp| to within 3e-16 relative, so above this bound
        # none is pruned, without an abs of every value
        least = min(map(product.__getitem__, self._leaves), default=1.0) * self._least
        if least >= PRUNE_TOL * (1 + 1e-9) or min(map(abs, value), default=1.0) >= PRUNE_TOL:
            return SparseRows(self.support, value)
        keep = [abs(v) >= PRUNE_TOL for v in value]
        row, key = (list(compress(column, keep)) for column in (self.support.row, self.support.key))
        return SparseRows(Support(self.n_rows, row, key), list(compress(value, keep)))


def join(a: Support, b: Support) -> tuple[list[int], list[int], list[int], list[int], Sums]:
    """The row pairs (r, s) of ``a`` and ``b`` that share a key, in (r, s)
    order, the entries of each pair's shared keys, ``ia`` in a and ``ib``
    in b, pair by pair, and the sums over each pair's.  The terms are
    made in b's order, by increasing key within a row, and the stable
    sort by pair keeps each pair's in that order."""
    head = dict(zip(a.key, range(len(a.key))))  # the entry of each key in a
    shared = list(map(head.__contains__, b.key))
    ib = list(compress(range(len(b.key)), shared))
    rows = list(dict.fromkeys(compress(b.row, shared)))  # of b, with a shared key
    number = list(map(dict(zip(rows, range(len(rows)))).__getitem__, compress(b.row, shared)))
    if len(head) == len(a.key):
        ia = list(map(head.__getitem__, compress(b.key, shared)))
    else:  # some key lies in several rows of a: a term for each of them
        entries: dict[int, list[int]] = {}
        for x, key in enumerate(a.key):
            entries.setdefault(key, []).append(x)
        match = list(map(entries.__getitem__, compress(b.key, shared)))
        ia = [x for xs in match for x in xs]
        ib = [y for y, xs in zip(ib, match) for _ in xs]
        number = [s for s, xs in zip(number, match) for _ in xs]
    pair = list(map(add, map(mul, map(a.row.__getitem__, ia), repeat(len(rows))), number))
    order = sorted(range(len(pair)), key=pair.__getitem__)
    pair = list(map(pair.__getitem__, order))
    starts = runs(pair)
    firsts = list(map(pair.__getitem__, starts))
    return (
        [p // len(rows) for p in firsts], [rows[p % len(rows)] for p in firsts],
        list(map(ia.__getitem__, order)), list(map(ib.__getitem__, order)),
        Sums(starts, len(pair)),
    )


def overlaps(a: SparseRows, b: SparseRows) -> tuple[list[int], list[int], list[complex]]:
    """Inner products <a_r|b_s> of every row pair that shares a key.

    Returns ``(r, s, value)`` sorted by ``(r, s)``; ``r`` and ``s`` are
    the join's own lists, shared by every call on the same supports.
    Pairs without a common key are exact zeros and are not listed.  Each
    value sums conj(a) * b from zero in increasing key order, as
    ``fock.inner`` does.
    """
    r, s, ia, ib, sums = a.support.derived(join, b.support)
    bra = map(complex.conjugate, map(a.value.__getitem__, ia))
    return r, s, sums(list(map(mul, bra, map(b.value.__getitem__, ib))), 0j)
