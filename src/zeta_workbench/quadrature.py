"""Adaptive Gauss-Legendre quadrature, the package's one integration rule.

Each panel carries its 16-point Gauss-Legendre value; the error of a
panel is that value minus the sum of the same rule on its two halves.
A panel whose error is within the tolerance contributes its half-panel
sum, every other panel is bisected, round by round.  The integrand is a
function of one point on Python numbers and may be complex.
"""

from __future__ import annotations

import math

from .errors import QuadratureFailure

__all__ = ["integrate"]

# a panel is done when its error is at most _TOL * max(1, |panel value|)
_TOL = 1e-13
_MAX_PANELS = 4000  # per integral


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    before, p = 1.0, x
    for j in range(2, n + 1):
        before, p = p, ((2 * j - 1) * x * p - (j - 1) * before) / j
    return p, n * (x * p - before) / (x * x - 1.0)


def _gauss_legendre(n: int = 16) -> tuple[tuple[float, float], ...]:
    """The positive nodes of the n-point rule on [-1, 1] with their weights;
    the rule takes each node with its negative.  Each root of P_n is found
    by Newton's method from Tricomi's estimate, and its weight is
    2 / ((1 - x^2) P_n'(x)^2)."""
    pairs = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(8):  # quadratic convergence: 3 steps reach the ulp
            p, dp = _legendre(n, x)
            x -= p / dp
        _, dp = _legendre(n, x)
        pairs.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(pairs)


_PAIRS = _gauss_legendre()


def _rule(f, lo: float, hi: float) -> complex:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half * sum([w * (f(mid - half * x) + f(mid + half * x)) for x, w in _PAIRS])


def integrate(f, a: float, b: float, breaks=()) -> complex:
    """Integral of f from a to b; f maps one point to its value.

    The points of breaks that lie strictly between a and b are the first
    panel edges, so a feature placed on one is never straddled by a
    panel.  Raises QuadratureFailure once the integral has used 4000
    panels without meeting the tolerance.
    """
    a, b = float(a), float(b)
    inside = sorted(x for x in breaks if min(a, b) < x < max(a, b))
    edges = [a, *(inside if a < b else inside[::-1]), b]
    panels = [(lo, hi, _rule(f, lo, hi)) for lo, hi in zip(edges, edges[1:])]
    used = len(panels)
    total = 0j
    while panels:
        used += 2 * len(panels)
        if used > _MAX_PANELS:
            raise QuadratureFailure(
                f"{len(panels)} panels of [{a:g}, {b:g}] still miss the "
                f"tolerance after {_MAX_PANELS} panels"
            )
        lefts, rights = [], []
        for lo, hi, whole in panels:
            mid = 0.5 * (lo + hi)
            left, right = _rule(f, lo, mid), _rule(f, mid, hi)
            refined = left + right
            if abs(whole - refined) <= _TOL * max(1.0, abs(refined)):
                total += refined
            else:
                lefts.append((lo, mid, left))
                rights.append((mid, hi, right))
        panels = lefts + rights
    return total
