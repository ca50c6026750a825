"""Sparse array kernel for the damaged codewords A_a|i>.

Every quantity built from the damaged codewords (the Knill-Laflamme
overlaps, the code channel, the transpose recovery and the entanglement
fidelity) is an overlap between two sets of sparse vectors on one
truncated Fock layout.  Here such a set is a :class:`SparseRows`: one
COO entry per nonzero amplitude, the occupation stored as a mixed-radix
int64 key whose order is the lexicographic order of the occupations.

:class:`DamagedIndex` records which codeword component survives which
loss pattern and where it lands, once per code and loss weight.  The
amplitudes for one gamma are then one array product per mode, taken in
the mode order of ``channels.apply_loss_pattern`` and pruned like a
``PureState``, so they are bit-identical to it.  :func:`overlaps`
computes all inner products <a_r|b_s> as one sparse join on the key;
each one accumulates in increasing key order, as ``fock.inner`` does,
and memory stays proportional to the number of matching pairs.
"""

from __future__ import annotations

from ._lazy import np
from .channels import enumerate_loss_patterns, loss_amplitude, validate_gamma
from .codes import LogicalBasis
from .fock import PRUNE_TOL, Frozen, ModeLayout, PureState

KEY_LIMIT = 2**62  # largest basis size whose occupation keys fit int64


def occupation_strides(layout: ModeLayout) -> np.ndarray:
    """Mixed-radix place values of the modes, mode 0 most significant."""
    radix = [c + 1 for c in layout.cutoffs]
    strides = [1] * len(radix)
    for m in range(len(radix) - 2, -1, -1):
        strides[m] = strides[m + 1] * radix[m + 1]
    if strides[0] * radix[0] > KEY_LIMIT:
        raise ValueError(f"layout {layout.cutoffs} has too many occupations for int64 keys")
    return np.array(strides, dtype=np.int64)


class SparseRows(Frozen):
    """A set of ``n_rows`` sparse vectors in COO form.

    Entries are sorted by ``row`` and, within a row, by ``key``; a row
    without entries is the zero vector.  ``key`` is an occupation key, or
    a codeword index for vectors expressed in the code basis.
    """

    __slots__ = ("n_rows", "row", "key", "value")

    def __init__(self, n_rows: int, row: np.ndarray, key: np.ndarray, value: np.ndarray):
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "row", row)      # int64
        object.__setattr__(self, "key", key)      # int64
        object.__setattr__(self, "value", value)  # complex128

    def __len__(self) -> int:
        return self.n_rows

    def norms(self) -> np.ndarray:
        """Squared norm of every row."""
        return np.bincount(
            self.row, self.value.real**2 + self.value.imag**2, minlength=self.n_rows
        )


def sorted_rows(n_rows: int, row, key, value) -> SparseRows:
    """SparseRows from COO entries in any order, unique (row, key) pairs."""
    order = np.lexsort((key, row))
    return SparseRows(n_rows, row[order], key[order], value[order])


def state_rows(states: list[PureState]) -> SparseRows:
    """One row per state, on the layout of the first."""
    strides = occupation_strides(states[0].layout)
    rows, keys, values = [], [], []
    for i, state in enumerate(states):
        occupations = np.array(list(state.amplitudes), dtype=np.int64)
        keys.append(occupations.reshape(len(state), len(strides)) @ strides)
        values.append(np.array(list(state.amplitudes.values()), dtype=complex))
        rows.append(np.full(len(state), i, dtype=np.int64))
    return SparseRows(len(states), np.concatenate(rows), np.concatenate(keys), np.concatenate(values))


class DamagedIndex:
    """Gamma-independent support of A_a|i> over every loss pattern a of
    weight <= ``max_weight``.

    ``patterns`` lists them as ``enumerate_loss_patterns`` does, and
    ``code`` holds the codewords of ``labels`` (L labels), one row each.
    Row ``p * L + l`` is the damaged codeword of ``patterns[p]`` and
    ``labels[l]``.  A component with fewer excitations than the pattern
    removes on some mode has no entry; the others land on the occupation
    lowered by the pattern, so no two components of one row collide.
    The entries are found in one array pass over every (pattern,
    component) pair, in row-major order, so one damaged codeword's
    entries come out together and in key order.
    """

    def __init__(self, basis: LogicalBasis, max_weight: int):
        layout = basis.spec.layout
        self.labels = tuple(basis.spec.labels)
        self.patterns = tuple(enumerate_loss_patterns(layout.num_modes, max_weight))
        self.n_rows = len(self.patterns) * len(self.labels)
        code = self.code = state_rows([basis.codewords[label] for label in self.labels])
        strides = occupation_strides(layout)
        occupation = code.key[:, None] // strides % (np.array(layout.cutoffs) + 1)
        losses = np.array(self.patterns, dtype=np.int64)
        fits = np.ones((len(losses), len(code.key)), dtype=bool)
        for m in range(layout.num_modes):
            fits &= occupation[None, :, m] >= losses[:, None, m]
        p, c = np.nonzero(fits)
        self._occupation, self._losses = occupation, losses
        self._row = p * len(self.labels) + code.row[c]
        self._key = code.key[c] - (losses @ strides)[p]
        self._amplitude = code.value[c]
        self._pattern = p
        self._component = c
        self._top = max(layout.cutoffs)

    def rows(self, gamma: float) -> SparseRows:
        """A_a|i> at ``gamma``, amplitudes below ``PRUNE_TOL`` dropped."""
        gamma = validate_gamma(gamma)
        top = self._top
        factor = np.array(
            [[loss_amplitude(n, x, gamma) for x in range(top + 1)] for n in range(top + 1)]
        )
        coeff = np.ones(len(self._row))
        for m in range(self._occupation.shape[1]):
            n = self._occupation[self._component, m]
            coeff = coeff * factor[n, self._losses[self._pattern, m]]
        value = coeff * self._amplitude
        keep = np.abs(value) >= PRUNE_TOL
        return SparseRows(self.n_rows, self._row[keep], self._key[keep], value[keep])


def overlaps(a: SparseRows, b: SparseRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner products <a_r|b_s> of every row pair that shares a key.

    Returns ``(r, s, value)`` sorted by ``(r, s)``.  Pairs without a
    common key are exact zeros and are not listed.
    """
    by_key = np.argsort(b.key, kind="stable")
    b_keys = b.key[by_key]
    lo = np.searchsorted(b_keys, a.key, "left")
    counts = np.searchsorted(b_keys, a.key, "right") - lo
    # one pair per (a entry, matching b entry), in a's (row, key) order
    left = np.repeat(np.arange(len(a.key)), counts)
    starts = np.cumsum(counts) - counts
    right = by_key[np.repeat(lo - starts, counts) + np.arange(len(left))]
    r, s = a.row[left], b.row[right]
    ar, ai = a.value.real[left], a.value.imag[left]
    br, bi = b.value.real[right], b.value.imag[right]
    # conj(x) * y as Python computes it for complex scalars
    re, im = ar * br + ai * bi, ar * bi - ai * br
    # the sort is stable, so each pair keeps its terms in key order
    order = np.lexsort((s, r))
    r, s, re, im = r[order], s[order], re[order], im[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (s[1:] != s[:-1])
    pair = np.cumsum(first) - 1
    value = np.empty(int(first.sum()), dtype=complex)
    value.real = np.bincount(pair, re, minlength=len(value))
    value.imag = np.bincount(pair, im, minlength=len(value))
    return r[first], s[first], value
