"""Gram blocks larger than 1x1 for ``syndrome._inverse_sqrt``: cyclic Jacobi
sweeps in pure Python, an entry too small to move either diagonal entry it
joins zeroed from the fifth sweep on, until no off-diagonal entry is left."""

import math
from operator import mul


def _jacobi(a: list[list[complex]]) -> tuple[list[float], list[list[complex]]]:
    """Eigenvalues and eigenvectors (columns of V) of the Hermitian ``a``, overwritten."""
    n = len(a)
    v = [[complex(i == j) for j in range(n)] for i in range(n)]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for sweep in range(50):  # quadratic convergence: the tests' blocks take at most 10
        if not any(a[p][q] for p, q in pairs):
            break
        for p, q in pairs:
            h, ap, aq = abs(a[p][q]), a[p][p].real, a[q][q].real
            if h and (sweep < 4 or abs(ap) + 100 * h != abs(ap) or abs(aq) + 100 * h != abs(aq)):
                # A <- U^H A U, V <- V U, U = [[c, s e], [-s e*, c]] on (p, q), e = a_pq / h
                theta = (aq - ap) / (2 * h)
                t = math.copysign(1 / (abs(theta) + math.hypot(theta, 1.0)), theta)
                c = 1 / math.sqrt(t * t + 1)
                se, sc = t * c * a[p][q] / h, t * c * a[p][q].conjugate() / h
                for row in (*a, *v):
                    row[p], row[q] = c * row[p] - sc * row[q], se * row[p] + c * row[q]
                a[p], a[q] = ([c * x - se * y for x, y in zip(a[p], a[q])],
                              [sc * x + c * y for x, y in zip(a[p], a[q])])
                a[p][p], a[q][q] = complex(ap - t * h), complex(aq + t * h)
            a[p][q] = a[q][p] = 0j
    return [row[j].real for j, row in enumerate(a)], v


def eigh(blocks: list[list[int]], r, s, entries) -> tuple[list[float], list]:
    """Eigenvalues and eigenvector matrices of the ``blocks``, groups of
    indices, of the Hermitian matrix with ``entries`` at (r, s)."""
    at = {x: (k, i) for k, m in enumerate(blocks) for i, x in enumerate(m)}
    dense = [[[0j] * len(m) for _ in m] for m in blocks]
    for x, y, entry in zip(r, s, entries):
        if x in at:
            dense[at[x][0]][at[x][1]][at[y][1]] = entry
    spectra = [_jacobi(a) for a in dense]
    return [lam for eigvals, _ in spectra for lam in eigvals], [v for _, v in spectra]


def rebuild(eigvecs: list, scale: list[float]) -> list[complex]:
    """The entries of V diag(scale) V^H, row by row, of each block in turn."""
    weights = iter(scale)
    values: list[complex] = []
    for v in eigvecs:
        w = [next(weights) for _ in v]
        scaled = [[x.conjugate() * y for x, y in zip(row, w)] for row in v]
        values += [sum(map(mul, row, other), 0j) for row in v for other in scaled]
    return values
