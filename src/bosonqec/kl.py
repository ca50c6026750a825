"""Numerical verification of the approximate error-correction conditions.

For a code of parameter w the matrix elements <i| A_k^dag A_l |j> over
loss patterns of weight up to w must be diagonal in the labels (i = j),
diagonal in the patterns (k = l), and label-independent up to a residual
of order gamma^(w+1).  The first two parts hold exactly for the extended
binomial construction (damaged supports stay disjoint); the third is
checked by a log-log residual fit over a gamma grid.  ``fit_order`` is
the one log-log fit, a least-squares line in closed form in pure
Python, which the recovery infidelity slopes use too.  The matrix
elements are the overlaps of the damaged codewords from the pure-Python
kernel in ``damaged``, held as its lists.
"""

from __future__ import annotations

import math
from itertools import chain, compress, repeat
from operator import and_, mod, ne, not_, sub
from typing import NamedTuple

from .channels import validate_gamma
from .codes import LogicalBasis
from .damaged import DamagedIndex, SparseRows, overlaps

ZERO_FLOOR = 1e-14  # deviations below this are treated as exact zeros


class KLReport(NamedTuple):
    """Matrix elements <i| A_k^dag A_l |j> plus their summary maxima.

    ``entries[x]`` is the element of the damaged codewords in rows
    ``r[x]`` and ``s[x]`` of ``DamagedIndex(basis, w)``: row p * L + i
    holds pattern p and the i-th of the L labels.  Only the structurally
    nonzero elements are listed, those of damaged codewords that share
    an occupation, sorted by (r, s); every other element is an exact
    zero.
    """

    offdiag_max: float      # max |entry| over label pairs i != j
    cross_max: float        # max |entry| over pattern pairs k != l at i == j
    diag_deviation: float   # max_k max_i |entry(i,i,k,k) - entry(0,0,k,k)|
    r: list[int]            # row of the bra A_k|i>
    s: list[int]            # row of the ket A_l|j>
    entries: list[complex]


def kl_matrix(basis: LogicalBasis, gamma: float) -> KLReport:
    """Assemble the error-overlap matrix for all patterns of weight <= w."""
    gamma = validate_gamma(gamma)
    index = DamagedIndex(basis, basis.spec.w)
    n_labels = len(index.labels)
    damaged = index.rows(gamma)
    r, s, value = overlaps(damaged, damaged)
    magnitude = list(map(abs, value))
    offdiag = list(map(ne, map(mod, r, repeat(n_labels)), map(mod, s, repeat(n_labels))))
    cross = map(and_, map(not_, offdiag), map(ne, r, s))  # one label, two patterns
    offdiag_max = max(compress(magnitude, offdiag), default=0.0)
    cross_max = max(compress(magnitude, cross), default=0.0)
    return KLReport(offdiag_max, cross_max, _label_spread(damaged, n_labels), r, s, value)


def diagonal_deviation(index: DamagedIndex, gamma: float) -> float:
    """Label dependence of the diagonal overlaps <i| A_k^dag A_k |i>,
    max over the patterns of ``index``."""
    return _label_spread(index.rows(gamma), len(index.labels))


def _label_spread(damaged: SparseRows, n_labels: int) -> float:
    """max |<i| A_k^dag A_k |i> - <0| A_k^dag A_k |0>| from the squared
    norms of the damaged codewords, ``n_labels`` rows per pattern k."""
    norms = damaged.norms()
    first = chain.from_iterable(map(repeat, norms[::n_labels], repeat(n_labels)))
    return max(map(abs, map(sub, norms, first)), default=0.0)


class ScalingFit(NamedTuple):
    """Log-log regression of a quantity against the gamma grid.

    Points below ``ZERO_FLOOR`` are rounding noise and leave the fit;
    ``n_used`` counts the others.  With fewer than two at distinct
    gammas, slope and intercept are NaN, which fails every order gate.
    """

    gamma_grid: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float
    n_used: int


def fit_order(gamma_grid, values) -> ScalingFit:
    """The loss order of ``values`` over the positive ``gamma_grid``: the
    slope of log(value) against log(gamma).

    The least-squares line in closed form, slope Sxy / Sxx from sums
    centred on the means, each sum correctly rounded by ``math.fsum``:
    a few hundred points at most need no LAPACK solver.  With fewer
    than two distinct usable gammas (Sxx = 0) the slope is undefined.
    """
    grid, values = tuple(gamma_grid), tuple(values)
    usable = [(math.log(g), math.log(v)) for g, v in zip(grid, values) if v >= ZERO_FLOOR]
    slope = intercept = math.nan
    xs = [x for x, _ in usable]
    if len(set(xs)) >= 2:
        x_bar = math.fsum(xs) / len(usable)
        y_bar = math.fsum(y for _, y in usable) / len(usable)
        sxx = math.fsum((x - x_bar) ** 2 for x in xs)
        slope = math.fsum((x - x_bar) * (y - y_bar) for x, y in usable) / sxx
        intercept = y_bar - slope * x_bar
    return ScalingFit(grid, values, slope, intercept, len(usable))


def validate_gamma_grid(gamma_grid) -> tuple[float, ...]:
    """At least 5 strictly increasing values in (0, 0.05]."""
    grid = tuple(float(g) for g in gamma_grid)
    if len(grid) < 5:
        raise ValueError("need at least 5 grid points")
    if any(not 0.0 < g <= 0.05 for g in grid):
        raise ValueError("grid values must lie in (0, 0.05]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def fit_residual_scaling(index: DamagedIndex, gamma_grid) -> ScalingFit:
    """Fit the order of ``diagonal_deviation(index, gamma)`` over a gamma
    grid, ``index`` of weight w."""
    grid = validate_gamma_grid(gamma_grid)
    return fit_order(grid, (diagonal_deviation(index, g) for g in grid))


def hermiticity_deviation(report: KLReport) -> float:
    """Max |entry(r, s) - conj(entry(s, r))| over the listed entries.

    Two damaged codewords share an occupation either way round, so every
    entry's mirror is listed too; ordered by (s, r), the entries line up
    with their mirrors in (r, s) order.
    """
    order = sorted(sorted(range(len(report.r)), key=report.r.__getitem__), key=report.s.__getitem__)
    mirror = map(complex.conjugate, map(report.entries.__getitem__, order))
    return max(map(abs, map(sub, report.entries, mirror)), default=0.0)
