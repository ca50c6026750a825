import math
from itertools import product

import numpy as np
import pytest

from bosonqec.channels import apply_loss_pattern, enumerate_loss_patterns
from bosonqec.codes import CodeSpec, LogicalBasis, logical_basis
from bosonqec.damaged import DamagedIndex
from bosonqec.cli import GRID_HI, GRID_LO, GRID_POINTS
from bosonqec.fock import PureState
from bosonqec.kl import (
    diagonal_deviation,
    fit_order,
    fit_residual_scaling,
    hermiticity_deviation,
    kl_matrix,
)
from reference import analytic_alpha, analytic_diagonal

GRID = tuple(np.geomspace(GRID_LO, GRID_HI, GRID_POINTS).tolist())


def test_offdiag_and_cross_vanish_exactly():
    # damaged supports stay disjoint across labels and across patterns
    for family in ("extended_binomial", "ce_extended_binomial"):
        for w, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            basis = logical_basis(CodeSpec(family, w, k))
            for gamma in (1e-3, 1e-2):
                report = kl_matrix(basis, gamma)
                assert report.offdiag_max < 1e-13
                assert report.cross_max < 1e-13


def test_gamma_zero_entries_are_kronecker():
    basis = logical_basis(CodeSpec("extended_binomial", 1, 1))
    report = kl_matrix(basis, 0.0)
    # rows p * L + i of the weight-w index: pattern p, the i-th of L labels
    index = DamagedIndex(basis, 1)
    labels, patterns, n = index.labels, index.patterns, len(index.labels)
    entries = {
        (labels[r % n], labels[s % n], patterns[r // n], patterns[s // n]): value
        for r, s, value in zip(report.r, report.s, report.entries)
    }
    zero_pattern = (0, 0)
    # every damaged codeword of a loss pattern is zero at gamma = 0, so
    # only the undamaged diagonal is structurally nonzero
    assert set(entries) == {(i, i, zero_pattern, zero_pattern) for i in ("0", "1")}
    for value in entries.values():
        assert abs(value - 1.0) < 1e-14


def pattern_spread(index, gamma, pattern):
    """max_i |<i| A_a^dag A_a |i> - <0| A_a^dag A_a |0>| of one pattern a,
    read off its row of the damaged-codeword norms."""
    norms = np.array(index.rows(gamma).norms()).reshape(len(index.patterns), len(index.labels))
    row = norms[index.patterns.index(pattern)]
    return float(np.abs(row - row[0]).max())


def test_diagonal_deviation_closed_form_w1k1():
    # symbolic oracle for the no-loss pattern:
    # <0|..|0> = (1 + (1-g)^4)/2 and <1|..|1> = (1-g)^2, so the gap is
    # (1 + (1-g)^4)/2 - (1-g)^2 = (2g - g^2)^2 / 2
    index = DamagedIndex(logical_basis(CodeSpec("extended_binomial", 1, 1)), 1)
    for gamma in (1e-3, 1e-2):
        expected = (2 * gamma - gamma**2) ** 2 / 2
        assert abs(pattern_spread(index, gamma, (0, 0)) - expected) < 1e-13
        # the no-loss pattern dominates, so the max matches the closed form
        assert abs(diagonal_deviation(index, gamma) - expected) < 1e-13


def test_diagonal_deviation_single_loss_w1k1():
    # same symbolic oracle for one loss on mode 0: the diagonal overlap is
    # g(1-g)^3 for label 0 and g(1-g) for label 1, an order-g^2 gap
    index = DamagedIndex(logical_basis(CodeSpec("extended_binomial", 1, 1)), 1)
    for gamma in (1e-3, 1e-2):
        expected = gamma * (1 - gamma) - gamma * (1 - gamma) ** 3
        assert abs(pattern_spread(index, gamma, (1, 0)) - expected) < 1e-15


def test_diagonal_deviation_zero_at_gamma_zero():
    index = DamagedIndex(logical_basis(CodeSpec("extended_binomial", 2, 1)), 2)
    assert diagonal_deviation(index, 0.0) == 0.0


def test_analytic_alpha_values():
    gamma = 0.2
    assert abs(analytic_alpha(2, 1, gamma) - 2 * gamma * (1 - gamma)) < 1e-15
    for n in range(5):
        assert abs(analytic_alpha(n, 0, gamma) - (1 - gamma) ** n) < 1e-15
    assert analytic_alpha(1, 2, gamma) == 0.0


def test_analytic_matches_numeric_diagonal():
    for w, k in product((1, 2), (1, 2)):
        basis = logical_basis(CodeSpec("extended_binomial", w, k))
        spec = basis.spec
        for gamma in (1e-3, 5e-3):
            for a in enumerate_loss_patterns(spec.num_modes, w):
                for label, cw in basis.codewords.items():
                    numeric = apply_loss_pattern(cw, a, gamma).norm_squared()
                    assert abs(numeric - analytic_diagonal(cw, a, gamma)) < 1e-13


def test_entries_hermitian():
    basis = logical_basis(CodeSpec("extended_binomial", 1, 2))
    report = kl_matrix(basis, 7e-3)
    assert hermiticity_deviation(report) < 1e-14


def test_hermiticity_deviation_sees_a_changed_entry():
    # one loss on either mode takes (|1,0> + |0,1>)/sqrt(2) to |0,0>: the
    # two damaged codewords overlap, a pair of entries off the diagonal
    spec = CodeSpec("extended_binomial", 1, 1)
    half = 1 / math.sqrt(2)
    basis = LogicalBasis(spec, {
        "0": PureState(spec.layout, {(1, 0): half, (0, 1): half}),
        "1": PureState(spec.layout, {(2, 2): 1.0}),
    })
    report = kl_matrix(basis, 1e-2)
    off = np.flatnonzero(np.array(report.r) != np.array(report.s))
    assert len(report.entries) == 8 and len(off) == 2
    assert hermiticity_deviation(report) == 0.0
    for x in off:
        for change in (1e-3, 2e-5j):
            entries = report.entries.copy()
            entries[x] += change
            deviation = hermiticity_deviation(report._replace(entries=entries))
            assert math.isclose(deviation, abs(change), rel_tol=1e-9)


def test_fit_slope_w1():
    index = DamagedIndex(logical_basis(CodeSpec("extended_binomial", 1, 1)), 1)
    fit = fit_residual_scaling(index, GRID)
    assert fit.n_used == len(GRID)
    assert abs(fit.slope - 2.0) <= 0.05


def test_fit_slope_w1_k2():
    index = DamagedIndex(logical_basis(CodeSpec("extended_binomial", 1, 2)), 1)
    fit = fit_residual_scaling(index, GRID)
    assert fit.n_used == len(GRID)
    assert fit.slope >= 2.0 - 0.15


def test_fit_slope_w2():
    index = DamagedIndex(logical_basis(CodeSpec("extended_binomial", 2, 1)), 2)
    fit = fit_residual_scaling(index, GRID)
    assert fit.n_used == len(GRID)
    assert fit.slope >= 2.85


def test_fit_grid_validation():
    index = DamagedIndex(logical_basis(CodeSpec("extended_binomial", 1, 1)), 1)
    with pytest.raises(ValueError):
        fit_residual_scaling(index, (1e-3, 2e-3, 3e-3))  # too few points
    with pytest.raises(ValueError):
        fit_residual_scaling(index, (1e-3, 2e-3, 3e-3, 4e-3, 0.2))  # out of range
    with pytest.raises(ValueError):
        fit_residual_scaling(index, (1e-3, 1e-3, 2e-3, 3e-3, 4e-3))  # not increasing


def test_fit_flags_degenerate_residuals():
    # residuals of order gamma^2 sit below the zero floor for a grid this
    # small, so every point is excluded and the fit has no slope
    index = DamagedIndex(logical_basis(CodeSpec("extended_binomial", 1, 1)), 1)
    tiny = tuple(float(g) for g in np.geomspace(1e-9, 1e-8, 5))
    fit = fit_residual_scaling(index, tiny)
    assert fit.n_used == 0
    assert math.isnan(fit.slope) and math.isnan(fit.intercept)


def test_fit_order_recovers_a_power_law():
    # values 3 gamma^2 give slope 2 and intercept log 3 on every grid
    values = [3.0 * g**2 for g in GRID]
    fit = fit_order(GRID, values)
    assert fit.n_used == len(GRID) and fit.values == tuple(values)
    assert abs(fit.slope - 2.0) < 1e-12 and abs(fit.intercept - math.log(3.0)) < 1e-12


def test_fit_order_drops_points_below_the_zero_floor():
    # rounding noise below ZERO_FLOOR leaves the fit; the rest still fit
    values = [1e-15, 0.0, *(g**3 for g in GRID[2:])]
    fit = fit_order(GRID, values)
    assert fit.n_used == len(GRID) - 2
    assert abs(fit.slope - 3.0) < 1e-12
    # one usable point is not a fit
    one = fit_order(GRID[:2], [0.0, 1e-3])
    assert one.n_used == 1 and math.isnan(one.slope) and math.isnan(one.intercept)


@pytest.mark.parametrize("seed", range(4))
def test_fit_order_is_polyfit(seed):
    # noisy power laws on grids of 5 to 256 points, and the default grid
    rng = np.random.default_rng(seed)
    grids = [GRID, np.sort(rng.uniform(1e-4, 0.05, int(rng.integers(5, 257)))).tolist()]
    for grid in grids:
        slope, scale = rng.uniform(1.0, 4.0), rng.uniform(0.1, 10.0)
        values = [scale * g**slope * math.exp(0.3 * rng.standard_normal()) for g in grid]
        fit = fit_order(grid, values)
        want_slope, want_intercept = np.polyfit(np.log(grid), np.log(values), 1)
        assert fit.n_used == len(grid)
        assert abs(fit.slope - want_slope) <= 1e-12
        assert abs(fit.intercept - want_intercept) <= 1e-12


def test_fit_order_through_two_points():
    grid, values = (2e-3, 7e-3), (4.2e-6, 9.1e-5)
    fit = fit_order(grid, values)
    assert fit.n_used == 2
    for g, v in zip(grid, values):
        assert abs(fit.intercept + fit.slope * math.log(g) - math.log(v)) <= 1e-12
    rise = (math.log(values[1]) - math.log(values[0])) / (math.log(grid[1]) - math.log(grid[0]))
    assert math.isclose(fit.slope, rise, rel_tol=1e-14)


@pytest.mark.parametrize(
    "grid, values, n_used",
    [
        ((1e-3, 2e-3, 3e-3), (0.0, 1e-15, -1.0), 0),
        ((1e-3, 2e-3, 3e-3), (0.0, 1e-3, math.nan), 1),
        # duplicate gammas leave the slope undefined: no ZeroDivisionError
        ((3e-3, 3e-3, 3e-3), (1e-4, 2e-4, 5e-4), 3),
        ((1e-3, 4e-3, 4e-3), (0.0, 2e-4, 5e-4), 2),
    ],
)
def test_fit_order_without_a_slope_is_nan(grid, values, n_used):
    fit = fit_order(grid, values)
    assert fit.n_used == n_used
    assert math.isnan(fit.slope) and math.isnan(fit.intercept)


def test_kl_report_summary_nonnegative():
    basis = logical_basis(CodeSpec("ce_extended_binomial", 1, 1))
    report = kl_matrix(basis, 4e-3)
    assert report.offdiag_max >= 0.0
    assert report.cross_max >= 0.0
    assert report.diag_deviation >= 0.0
