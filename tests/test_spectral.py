"""The Jacobi step of ``bosonqec.spectral`` against numpy's ``eigh``, the
reference, on Gram blocks larger than 1x1.

Both solvers are backward stable: each returns the exact decomposition
of a block G + E with ||E|| of order n eps ||G||, eps the unit roundoff
and n the block size.  The gates follow from that, with a factor 8 of
room:

* each eigenvalue lies within 8 n eps lam_max of eigh's (Weyl), lam_max
  the block's largest;
* V is unitary to 8 n eps;
* X G X, X = G^(-1/2) as ``syndrome._inverse_sqrt`` rebuilds it, is the
  projector onto the kept eigenspace within 8 n eps kappa, kappa the
  ratio of the block's largest eigenvalue to its smallest kept one;
* ``dropped`` equals eigh's count of eigenvalues at or below 1e-14 times
  the largest of the whole matrix, and no eigenvalue of either solver
  lies within n eps lam_max of that cut, so neither solver's rounding
  can carry one across it.  The band is the unscaled bound: at n >= 6,
  8 n eps exceeds the 1e-14 cut, and the band would hold the zero
  eigenvalues of every rank-deficient block.
"""

import math

import numpy as np
import pytest

from bosonqec import damaged, spectral
from bosonqec.codes import CodeSpec, logical_basis
from bosonqec.syndrome import _blocks, _inverse_sqrt, _transpose_plan

EPS = np.finfo(float).eps
CUT = 1e-14


def assert_matches_eigh(n, r, s, entries):
    """Check ``_inverse_sqrt`` and ``spectral.eigh`` on the Hermitian n x n
    matrix with ``entries`` at (r, s) against eigh, block by block."""
    out_r, out_q, values, condition, dropped = _inverse_sqrt(n, r, s, entries)
    single, larger, _, _ = _blocks(n, r, s)
    diagonal = {x: entry.real for x, y, entry in zip(r, s, entries) if x == y}
    inv_sqrt = dict(zip(zip(out_r, out_q), values))
    at = {x: (k, i) for k, m in enumerate(larger) for i, x in enumerate(m)}
    grams = [np.zeros((len(m), len(m)), dtype=complex) for m in larger]
    for x, y, entry in zip(r, s, entries):
        if x in at:
            grams[at[x][0]][at[x][1], at[y][1]] = entry
    eigvals, eigvecs = spectral.eigh(larger, r, s, entries) if larger else ([], [])
    blocks = []  # (G, X, eigenvalues, V) of each larger block
    start = 0
    for gram, m, v in zip(grams, larger, eigvecs):
        x_block = np.array([[inv_sqrt[x, y] for y in m] for x in m])
        blocks.append((gram, x_block, np.array(eigvals[start:start + len(m)]), np.array(v)))
        start += len(m)
    assert blocks
    reference = [np.linalg.eigvalsh(gram) for gram, *_ in blocks]
    ones = [diagonal.get(x, 0.0) for x in single]
    lam_max = max(max(ones, default=0.0), *(lam.max() for lam in reference))
    cut = CUT * lam_max
    ref_kept = [lam for lam in (*ones, *np.concatenate(reference)) if lam > cut]
    assert dropped == len(ones) + sum(map(len, reference)) - len(ref_kept)
    assert abs(1 / condition - min(ref_kept) / lam_max) <= 16 * 7 * EPS
    for (gram, x_block, eigvals, eigvecs), ref in zip(blocks, reference):
        b = len(gram)
        block_max = np.abs(ref).max()
        assert np.abs(np.sort(eigvals) - ref).max() <= 8 * b * EPS * block_max
        for lam in (eigvals, ref):
            assert np.all(np.abs(lam - cut) > b * EPS * block_max)
        assert np.abs(eigvecs.conj().T @ eigvecs - np.eye(b)).max() <= 8 * b * EPS
        keep = eigvals > cut
        if keep.any():
            projector = eigvecs[:, keep] @ eigvecs[:, keep].conj().T
            kappa = eigvals[keep].max() / eigvals[keep].min()
            assert np.abs(x_block @ gram @ x_block - projector).max() <= 8 * b * EPS * kappa
        else:
            assert not x_block.any()


def dense_entries(gram):
    """The entries (r, s, value) of every nonzero entry of ``gram``."""
    r, s = np.nonzero(gram)
    return r.tolist(), s.tolist(), gram[r, s].tolist()


@pytest.mark.parametrize("n", range(2, 8))
def test_random_blocks_at_every_rank(n):
    # B B^H for a complex Gaussian n x rank B, its rows plain and graded
    # over three decades; rank < n leaves exact zeros to drop
    rng = np.random.default_rng(n)
    for rank in range(1, n + 1):
        for grade in (0.0, 3.0):
            b = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            b *= np.logspace(0.0, -grade, n)[:, None]
            gram = b @ b.conj().T
            assert_matches_eigh(n, *dense_entries((gram + gram.conj().T) / 2))


def test_zero_block_is_its_own_eigenbasis():
    eigvals, [eigvecs] = spectral.eigh([[0, 1, 2]], [], [], [])
    assert eigvals == [0.0] * 3
    assert eigvecs == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


CONFIGURATIONS = [
    (family, w, k)
    for family, ks in (("one_mode_binomial", (1,)), ("two_mode_binomial", (1,)),
                       ("qubit_shor_ad", (1, 2, 3)), ("extended_binomial", (1, 2, 3)),
                       ("ce_extended_binomial", (1, 2, 3)))
    for w in (1, 2, 3)
    for k in ks
    # qubit-shor w3k2 and w3k3 have 53,130 and 118,755 loss patterns of
    # weight <= 5 (w3k1 20,349)
    if not (family == "qubit_shor_ad" and w == 3 and k > 1)
]


@pytest.mark.parametrize("family, w, k", CONFIGURATIONS)
def test_weight_w_plus_2_gram_blocks(family, w, k):
    # the index of the full channel links damaged codewords into blocks of
    # up to 7 on every family
    index = damaged.DamagedIndex(logical_basis(CodeSpec(family, w, k)), w + 2)
    for gamma in (1e-3, 1e-2, 0.05):
        kets = index.rows(gamma)
        plan = kets.support.derived(_transpose_plan)
        vectors = damaged.SparseRows(plan.vectors, kets.value)
        assert_matches_eigh(len(plan.live), *damaged.overlaps(vectors, vectors))


def test_jacobi_is_exact_on_a_two_by_two_block():
    # [[a, g], [conj g, a]]: eigenvalues a -+ |g|, after one rotation
    g = 3 - 4j
    eigvals, eigvecs = spectral.eigh([[0, 1]], [0, 0, 1, 1], [0, 1, 0, 1],
                                     [7 + 0j, g, g.conjugate(), 7 + 0j])
    assert sorted(eigvals) == [2.0, 12.0]
    half = 1 / math.sqrt(2)
    v = np.array(eigvecs)
    assert np.abs(np.abs(v) - half).max() <= 2 * EPS
