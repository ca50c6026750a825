"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from itertools import product

import numpy as np

from bosonqec.channels import apply_loss_pattern, enumerate_loss_patterns
from bosonqec.cli import dispersive_budget
from bosonqec.codes import (
    CodeSpec,
    binomial_codeword,
    logical_basis,
    merge_modes_to_single,
    qubit_shor_codeword,
)
from bosonqec.fock import (
    ModeLayout,
    PureState,
    add_states,
    apply,
    tensor,
    total_number_expectation,
)
from bosonqec.kl import default_gamma_grid, diagonal_deviation, fit_residual_scaling, kl_matrix
from bosonqec.logical import build_logical_operator, run_encoding_protocol, verify_logical_algebra
from bosonqec.syndrome import cc_overlap, diagnose, infidelity_slope, recovery_infidelity

rng = np.random.default_rng(314159)

R = 1 / math.sqrt(2)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def ket(cutoff, *components):
    n_modes = len(components[0][0])
    layout = ModeLayout((cutoff,) * n_modes)
    return PureState(layout, {tuple(occ): amp for occ, amp in components})


def close(a, b, tol=1e-12):
    return a.layout == b.layout and add_states(a, b, 1.0, -1.0).norm() <= tol


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    binom = {label: binomial_codeword(1, label) for label in "01"}
    shor = {
        (k, label): qubit_shor_codeword(1, k, label)
        for k in (1, 2)
        for label in (["0", "1"] if k == 1 else ["00", "11", "01", "10"])
    }
    ext = {
        (k, label): logical_basis(CodeSpec("extended_binomial", 1, k)).codewords[label]
        for k in (1, 2)
        for label in (["0", "1"] if k == 1 else ["00", "11", "01", "10"])
    }
    ok = True
    # row 1: single logical qubit
    ok &= close(binom["0"], ket(4, ((0,), R), ((4,), R)))
    ok &= close(binom["1"], ket(4, ((2,), 1.0)))
    ok &= close(shor[(1, "0")], ket(1, ((0, 0, 0, 0), R), ((1, 1, 1, 1), R)))
    ok &= close(shor[(1, "1")], ket(1, ((0, 0, 1, 1), R), ((1, 1, 0, 0), R)))
    ok &= close(ext[(1, "0")], ket(2, ((0, 0), R), ((2, 2), R)))
    ok &= close(ext[(1, "1")], ket(2, ((0, 2), R), ((2, 0), R)))
    # row 2: logical 00 / 11
    ok &= close(tensor(binom["0"], binom["0"]), ket(4, ((0, 0), 0.5), ((0, 4), 0.5), ((4, 0), 0.5), ((4, 4), 0.5)))
    ok &= close(tensor(binom["1"], binom["1"]), ket(4, ((2, 2), 1.0)))
    ok &= close(shor[(2, "00")], ket(1, ((0,) * 6, R), ((1,) * 6, R)))
    ok &= close(shor[(2, "11")], ket(1, ((0, 0, 1, 1, 1, 1), R), ((1, 1, 0, 0, 0, 0), R)))
    ok &= close(ext[(2, "00")], ket(2, ((0, 0, 0), R), ((2, 2, 2), R)))
    ok &= close(ext[(2, "11")], ket(2, ((0, 2, 2), R), ((2, 0, 0), R)))
    # row 3: logical 01 / 10
    ok &= close(tensor(binom["0"], binom["1"]), ket(4, ((0, 2), R), ((4, 2), R)))
    ok &= close(tensor(binom["1"], binom["0"]), ket(4, ((2, 0), R), ((2, 4), R)))
    ok &= close(shor[(2, "01")], ket(1, ((0, 0, 0, 0, 1, 1), R), ((1, 1, 1, 1, 0, 0), R)))
    ok &= close(shor[(2, "10")], ket(1, ((0, 0, 1, 1, 0, 0), R), ((1, 1, 0, 0, 1, 1), R)))
    ok &= close(ext[(2, "01")], ket(2, ((0, 0, 2), R), ((2, 2, 0), R)))
    ok &= close(ext[(2, "10")], ket(2, ((0, 2, 0), R), ((2, 0, 2), R)))
    # mean excitations: rows give (2,2,2), (4,3,3), (4,3,3)
    means = {
        "binom_k1": total_number_expectation(binom["0"]),
        "shor_k1": total_number_expectation(shor[(1, "0")]),
        "ext_k1": total_number_expectation(ext[(1, "0")]),
        "binom_k2_rep": total_number_expectation(tensor(binom["0"], binom["0"])),
        "shor_k2_rep": total_number_expectation(shor[(2, "11")]),
        "ext_k2_rep": total_number_expectation(ext[(2, "11")]),
        "binom_k2_mix": total_number_expectation(tensor(binom["0"], binom["1"])),
        "shor_k2_mix": total_number_expectation(shor[(2, "01")]),
        "ext_k2_mix": total_number_expectation(ext[(2, "10")]),
    }
    expected = dict(
        binom_k1=2, shor_k1=2, ext_k1=2,
        binom_k2_rep=4, shor_k2_rep=3, ext_k2_rep=3,
        binom_k2_mix=4, shor_k2_mix=3, ext_k2_mix=3,
    )
    for key, value in expected.items():
        ok &= abs(means[key] - value) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"tabulated codewords and mean excitations reproduced in {elapsed:.2f}s")


def test_criterion_2_orthonormality():
    t0 = time.perf_counter()
    worst = 0.0
    for family in ("qubit_shor_ad", "extended_binomial", "ce_extended_binomial"):
        for w, k in product((1, 2, 3), (1, 2, 3)):
            worst = max(worst, logical_basis(CodeSpec(family, w, k)).gram_deviation())
    for family in ("one_mode_binomial", "two_mode_binomial"):
        for w in (1, 2, 3):
            worst = max(worst, logical_basis(CodeSpec(family, w)).gram_deviation())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(2, ok, f"max Gram deviation {worst:.2e} across all families in {elapsed:.2f}s")


def test_criterion_3_kl_exactness():
    worst = 0.0
    for family in ("extended_binomial", "ce_extended_binomial"):
        for w, k in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            basis = logical_basis(CodeSpec(family, w, k))
            for gamma in (1e-3, 1e-2):
                rep = kl_matrix(basis, gamma)
                worst = max(worst, rep.offdiag_max, rep.cross_max)
    ok = worst < 1e-13
    report(3, ok, f"off-diagonal and cross-pattern overlaps bounded by {worst:.2e}")


def test_criterion_4_kl_residual_scaling():
    t0 = time.perf_counter()
    basis11 = logical_basis(CodeSpec("extended_binomial", 1, 1))
    closed_ok = True
    for gamma in (1e-3, 1e-2):
        expected = (2 * gamma - gamma**2) ** 2 / 2
        closed_ok &= abs(diagonal_deviation(basis11, gamma) - expected) <= 1e-13
    fit11 = fit_residual_scaling(basis11, default_gamma_grid())
    fit21 = fit_residual_scaling(logical_basis(CodeSpec("extended_binomial", 2, 1)), default_gamma_grid())
    elapsed = time.perf_counter() - t0
    ok = (
        closed_ok
        and fit11.valid
        and abs(fit11.slope - 2.0) <= 0.05
        and fit21.valid
        and fit21.slope >= 2.85
        and elapsed < 30.0
    )
    report(
        4,
        ok,
        f"closed form matched; slopes {fit11.slope:.3f} (w=1), {fit21.slope:.3f} (w=2) in {elapsed:.2f}s",
    )


def test_criterion_5_decoder_exhaustive():
    t0 = time.perf_counter()
    tested = 0
    ok = True
    for w, k in product((1, 2, 3), (1, 2, 3)):
        spec = CodeSpec("extended_binomial", w, k)
        basis = logical_basis(spec)
        seen = {}
        for a in enumerate_loss_patterns(spec.num_modes, w):
            for label, cw in basis.codewords.items():
                damaged = apply_loss_pattern(cw, a, 0.3)
                if damaged.norm_squared() == 0.0:
                    continue  # annihilated branch, occurs with probability zero
                record = diagnose(damaged.normalized(), spec)
                ok &= record.decoded == a and not record.ambiguous
                # injectivity over the pattern set: outcomes determine the pattern
                prior = seen.setdefault(record.outcomes, a)
                ok &= prior == a
                tested += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(5, ok, f"{tested} damaged-codeword branches decoded exactly in {elapsed:.2f}s")


def test_criterion_6_recovery_scaling():
    grid = default_gamma_grid()
    details = []
    ok = True
    for w, k in [(1, 1), (1, 2)]:
        basis = logical_basis(CodeSpec("extended_binomial", w, k))
        transpose, naive = (
            infidelity_slope([recovery_infidelity(basis, g, name) for g in grid])
            for name in ("transpose", "naive")
        )
        ok &= abs(transpose - (w + 1)) <= 0.2
        ok &= naive >= 1.0
        details.append(f"(w={w},k={k}): transpose {transpose:.3f}, naive {naive:.3f}")
    report(6, ok, "; ".join(details))


def test_criterion_7_cc_invariance():
    ok = True
    for w, k in [(1, 1), (1, 2), (2, 1)]:
        basis = logical_basis(CodeSpec("ce_extended_binomial", w, k))
        for dt in rng.uniform(0.0, 10.0, 100):
            for cw in basis.codewords.values():
                ok &= abs(cc_overlap(cw, dt) - 1.0) <= 1e-12
    zero = logical_basis(CodeSpec("extended_binomial", 1, 1)).codewords["0"]
    for dt in rng.uniform(0.0, 10.0, 100):
        expected = abs(1.0 + complex(math.cos(4 * dt), -math.sin(4 * dt))) / 2.0
        ok &= abs(cc_overlap(zero, dt) - expected) <= 1e-12
    report(7, ok, "CE overlaps pinned at 1; non-CE overlap matches the two-component phase")


def test_criterion_8_logical_algebra():
    ok = True
    worst = 0.0
    for w, k in product((1, 2, 3), (1, 2, 3)):
        spec = CodeSpec("extended_binomial", w, k)
        basis = logical_basis(spec)
        rep = verify_logical_algebra(spec, basis=basis)
        ok &= rep.passed
        worst = max(worst, max(rep.checks.values()))
        x_all = build_logical_operator("X_all", None, spec).map
        for cw in basis.codewords.values():
            prod = cw
            for ell in range(k):
                prod = apply(build_logical_operator("X", ell, spec).map, prod)
            dev = add_states(apply(x_all, cw), prod, 1.0, -1.0).norm()
            ok &= dev <= 1e-12
    report(8, ok, f"all operator checks passed, worst deviation {worst:.2e}")


def test_criterion_9_encoding_protocol():
    spec = CodeSpec("extended_binomial", 1, 1)
    ok = True
    for _ in range(20):
        v = rng.standard_normal(4)
        alpha = complex(v[0], v[1])
        beta = complex(v[2], v[3])
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        traces = run_encoding_protocol(alpha / norm, beta / norm, spec)
        ok &= len(traces) == 4
        for t in traces:
            ok &= abs(t.fidelity_to_target - 1.0) <= 1e-12
            ok &= abs(t.probability - 0.25) <= 1e-12
    report(9, ok, "all four branches at probability 1/4 with unit output fidelity")


def test_criterion_10_merge_correspondence():
    ok = True
    for w in (1, 2):
        for label in ("0", "1"):
            merged = merge_modes_to_single(qubit_shor_codeword(w, 1, label))
            target = binomial_codeword(w, label)
            ok &= add_states(merged, target, 1.0, -1.0).norm() <= 1e-12
    report(10, ok, "merged qubit codewords equal the one-mode binomial codewords")


def test_criterion_11_dispersive_budget():
    rep = dispersive_budget(82)
    ok = (rep.w_one_mode, rep.w_extended) == (11, 163)
    report(11, ok, f"n_c=82 gives ({rep.w_one_mode}, {rep.w_extended})")
