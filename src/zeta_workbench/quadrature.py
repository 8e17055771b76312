"""Adaptive Gauss-Legendre quadrature, the package's one integration rule.

Each panel carries its 16-point Gauss-Legendre value; the error of a
panel is that value minus the sum of the same rule on its two halves.
A panel whose error is within the tolerance contributes its half-panel
sum, every other panel is bisected, and all open panels are evaluated
in one vectorised call per round, so integrands take arrays and may be
complex.  A batch of integrals shares those rounds, and each integral
sums its own panels in order: it is bit-identical to the same one alone.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureFailure

__all__ = ["integrate"]

# a panel is done when its error is at most _TOL * max(1, |panel value|)
_TOL = 1e-13
_MAX_PANELS = 4000  # per integral


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """16 nodes and weights on [-1, 1] by Golub-Welsch: the eigenvalues of
    the Legendre Jacobi matrix and twice the squared first components of
    its eigenvectors.  Built on first use, because the first eigh call
    costs about 1 MB of resident memory that commands without an integral
    should not pay."""
    k = np.arange(1, 16)
    off_diagonal = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    return nodes, 2.0 * vectors[0] ** 2


def _rule(f, lo: np.ndarray, hi: np.ndarray, which: np.ndarray) -> np.ndarray:
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    # a row sum: a matrix product may round a row by how many share the call
    return half * (np.asarray(f(x, which)) * weights).sum(axis=1)


def integrate(f, a, b, breaks=()):
    """Integral of f from a to b; f maps an array of points to values.

    Arrays a and b give the array of their integrals, and f(x, which) then
    also gets the index of the integral that each row of points is for.
    The points of breaks that lie strictly between a and b are the first
    panel edges, so a feature placed on one is never straddled by a
    panel.  Raises QuadratureFailure once an integral has used 4000
    panels without meeting the tolerance.
    """
    batch = np.ndim(a) > 0 or np.ndim(b) > 0
    g = f if batch else lambda x, which: f(x)
    a, b = (np.ravel(v).astype(float) for v in np.broadcast_arrays(a, b))
    lo, hi, which = [], [], []
    for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
        inside = sorted(x for x in breaks if min(ai, bi) < x < max(ai, bi))
        edges = [ai, *(inside if ai < bi else inside[::-1]), bi]
        lo += edges[:-1]
        hi += edges[1:]
        which += [i] * (len(edges) - 1)
    lo, hi, which = np.array(lo), np.array(hi), np.array(which, dtype=int)
    whole = _rule(g, lo, hi, which)
    total = np.zeros(len(a), dtype=complex)
    panels = np.bincount(which, minlength=len(a))
    while len(lo):
        open_count = np.bincount(which, minlength=len(a))
        panels += 2 * open_count
        if np.any(panels > _MAX_PANELS):
            i = np.argmax(panels > _MAX_PANELS)
            raise QuadratureFailure(
                f"{open_count[i]} panels of [{a[i]:g}, {b[i]:g}] still miss the "
                f"tolerance after {_MAX_PANELS} panels"
            )
        mid = 0.5 * (lo + hi)
        halves = _rule(g, np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(which, 2))
        left, right = np.split(halves, 2)
        refined = left + right
        done = np.abs(whole - refined) <= _TOL * np.maximum(1.0, np.abs(refined))
        np.add.at(total, which[done], refined[done])
        open_ = ~done
        lo, hi = np.concatenate([lo[open_], mid[open_]]), np.concatenate([mid[open_], hi[open_]])
        which = np.tile(which[open_], 2)
        whole = np.concatenate([left[open_], right[open_]])
    return total if batch else complex(total[0])
