"""Adaptive Gauss-Legendre quadrature, the package's one integration rule.

Each panel carries its 16-point Gauss-Legendre value; the error of a
panel is that value minus the sum of the same rule on its two halves.
A panel whose error is within the tolerance contributes its half-panel
sum, every other panel is bisected, and all open panels are evaluated
in one vectorised call per round, so integrands take arrays and may be
complex.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureFailure

__all__ = ["integrate"]

# a panel is done when its error is at most _TOL * max(1, |panel value|)
_TOL = 1e-13
_MAX_PANELS = 4000


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


def _rule(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    return half * (np.asarray(f(x)) @ weights)


def integrate(f, a: float, b: float, breaks=()) -> complex:
    """Integral of f from a to b; f maps an array of points to values.

    The points of breaks that lie strictly between a and b are the first
    panel edges, so a feature placed on one is never straddled by a
    panel.  Raises QuadratureFailure once 4000 panels have not met the
    tolerance.
    """
    inside = sorted(x for x in breaks if min(a, b) < x < max(a, b))
    edges = np.array([a, *(inside if a < b else inside[::-1]), b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    whole = _rule(f, lo, hi)
    total, panels = 0.0, len(lo)
    while len(lo):
        panels += 2 * len(lo)
        if panels > _MAX_PANELS:
            raise QuadratureFailure(
                f"{len(lo)} panels of [{a:g}, {b:g}] still miss the tolerance "
                f"after {_MAX_PANELS} panels"
            )
        mid = 0.5 * (lo + hi)
        halves = _rule(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = np.split(halves, 2)
        refined = left + right
        done = np.abs(whole - refined) <= _TOL * np.maximum(1.0, np.abs(refined))
        total += refined[done].sum()
        open_ = ~done
        lo, hi = np.concatenate([lo[open_], mid[open_]]), np.concatenate([mid[open_], hi[open_]])
        whole = np.concatenate([left[open_], right[open_]])
    return complex(total)
