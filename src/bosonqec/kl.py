"""Numerical verification of the approximate error-correction conditions.

For a code of parameter w the matrix elements <i| A_k^dag A_l |j> over
loss patterns of weight up to w must be diagonal in the labels (i = j),
diagonal in the patterns (k = l), and label-independent up to a residual
of order gamma^(w+1).  The first two parts hold exactly for the extended
binomial construction (damaged supports stay disjoint); the third is
checked against a closed-form diagonal factor and by a log-log residual
fit over a gamma grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    LossPattern,
    apply_loss_pattern,
    enumerate_loss_patterns,
    validate_gamma,
)
from .codes import LogicalBasis
from .fock import PureState, inner

ZERO_FLOOR = 1e-14  # deviations below this are treated as exact zeros


@dataclass(frozen=True)
class KLReport:
    """Matrix elements <i| A_k^dag A_l |j> plus their summary maxima."""

    spec: object            # CodeSpec of the verified basis
    gamma: float
    offdiag_max: float      # max |entry| over label pairs i != j
    cross_max: float        # max |entry| over pattern pairs k != l at i == j
    diag_deviation: float   # max_k max_i |entry(i,i,k,k) - entry(0,0,k,k)|
    entries: dict[tuple[str, str, LossPattern, LossPattern], complex]


def kl_matrix(basis: LogicalBasis, gamma: float) -> KLReport:
    """Assemble the error-overlap matrix for all patterns of weight <= w."""
    gamma = validate_gamma(gamma)
    spec = basis.spec
    labels = spec.labels
    patterns = enumerate_loss_patterns(spec.num_modes, spec.w)
    damaged: dict[tuple[LossPattern, str], PureState] = {}
    for a in patterns:
        for label in labels:
            damaged[(a, label)] = apply_loss_pattern(basis.codewords[label], a, gamma)

    entries: dict[tuple[str, str, LossPattern, LossPattern], complex] = {}
    offdiag_max = 0.0
    cross_max = 0.0
    for k in patterns:
        for ell in patterns:
            for i in labels:
                for j in labels:
                    value = inner(damaged[(k, i)], damaged[(ell, j)])
                    entries[(i, j, k, ell)] = value
                    if i != j:
                        offdiag_max = max(offdiag_max, abs(value))
                    elif k != ell:
                        cross_max = max(cross_max, abs(value))

    zero = labels[0]
    diag_dev = 0.0
    for k in patterns:
        reference = entries[(zero, zero, k, k)]
        for i in labels:
            diag_dev = max(diag_dev, abs(entries[(i, i, k, k)] - reference))
    return KLReport(spec, gamma, offdiag_max, cross_max, diag_dev, entries)


def diagonal_deviation(
    basis: LogicalBasis, gamma: float, pattern: LossPattern | None = None
) -> float:
    """Label dependence of the diagonal overlaps <i| A_k^dag A_k |i>.

    With ``pattern`` given, the deviation for that single loss pattern;
    otherwise the max over all patterns of weight <= w.
    """
    gamma = validate_gamma(gamma)
    spec = basis.spec
    patterns = [tuple(pattern)] if pattern is not None else enumerate_loss_patterns(
        spec.num_modes, spec.w
    )
    labels = spec.labels
    dev = 0.0
    for a in patterns:
        diags = []
        for label in labels:
            damaged = apply_loss_pattern(basis.codewords[label], a, gamma)
            diags.append(damaged.norm_squared())
        dev = max(dev, max(abs(d - diags[0]) for d in diags))
    return dev


def analytic_alpha(occupation: int, losses: int, gamma: float) -> float:
    """Closed-form diagonal factor C(n, k) (1-gamma)^(n-k) gamma^k.

    Zero when more excitations are lost than present.  The product of
    these factors over modes equals the numeric diagonal overlap.
    """
    gamma = validate_gamma(gamma)
    if losses < 0 or occupation < 0:
        raise ValueError("occupation and losses must be nonnegative")
    if losses > occupation:
        return 0.0
    return (
        math.comb(occupation, losses)
        * (1.0 - gamma) ** (occupation - losses)
        * gamma**losses
    )


def analytic_diagonal(state: PureState, pattern: LossPattern, gamma: float) -> float:
    """<psi| A_a^dag A_a |psi> from the closed-form per-mode factors."""
    total = 0.0
    for occ, amp in state.amplitudes.items():
        factor = 1.0
        for n, x in zip(occ, pattern):
            factor *= analytic_alpha(n, x, gamma)
        total += abs(amp) ** 2 * factor
    return total


@dataclass(frozen=True)
class ScalingFit:
    """Log-log regression of a residual against the gamma grid."""

    gamma_grid: tuple[float, ...]
    residuals: tuple[float, ...]
    slope: float
    intercept: float
    n_used: int
    valid: bool


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


def fit_residual_scaling(basis: LogicalBasis, gamma_grid) -> ScalingFit:
    """Fit the diagonal-deviation residual order over a gamma grid.

    Points with deviation below the floating-point floor are excluded;
    the fit is flagged invalid when fewer than two points remain.
    """
    grid = validate_gamma_grid(gamma_grid)
    residuals = tuple(diagonal_deviation(basis, g) for g in grid)
    usable = [(g, r) for g, r in zip(grid, residuals) if r >= ZERO_FLOOR]
    if len(usable) < 2:
        return ScalingFit(grid, residuals, float("nan"), float("nan"), len(usable), False)
    xs = np.log([g for g, _ in usable])
    ys = np.log([r for _, r in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    return ScalingFit(grid, residuals, float(slope), float(intercept), len(usable), True)


def default_gamma_grid(n: int = 8, lo: float = 1e-3, hi: float = 1e-2) -> tuple[float, ...]:
    return tuple(float(g) for g in np.geomspace(lo, hi, n))


def hermiticity_deviation(report: KLReport) -> float:
    """Max |entry(i,j,k,l) - conj(entry(j,i,l,k))| over the stored entries."""
    dev = 0.0
    for (i, j, k, ell), value in report.entries.items():
        dev = max(dev, abs(value - report.entries[(j, i, ell, k)].conjugate()))
    return dev
