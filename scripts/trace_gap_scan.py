"""Scan the geometric trace sides over t and contrast two kinds of checks.

Internal identities (iterate weighting, volume linearity) hold to machine
precision on any valid synthetic spectrum. Cross-side equality between a
geodesic spectrum and an eigenvalue list is a theorem about matched data
from one manifold; with desk-scale synthetic inputs the two sides have no
reason to agree, so their difference is printed as a diagnostic only.
"""

import math

from zeta_workbench import (
    DiracSpectrum,
    dirac_geometric_side,
    dirac_spectral_side,
    wrap_angle,
)
from zeta_workbench.verify import single_class_spectrum, toy_spectrum

K = 1.0
TS = [0.2, 0.5, 1.0, 2.0, 4.0, 8.0]

spectrum = toy_spectrum()
eigen = DiracSpectrum(((0.8, 2), (-0.8, 1), (1.9, 1)))

print("cross-side diagnostic (synthetic, unmatched data)")
print(f"{'t':>5} {'|geometric|':>14} {'|spectral|':>14} {'gap':>12}")
for t in TS:
    geo = dirac_geometric_side(t, spectrum, K)
    spec = dirac_spectral_side(t, eigen)
    print(f"{t:>5.2f} {abs(geo):>14.6e} {abs(spec):>14.6e} {abs(geo - spec):>12.4e}")

# identity checks on the same spectrum: these are exact properties of the
# class sums and must hold at machine precision for any valid input
l0, th0 = 0.9, 0.7
family = single_class_spectrum(l0, th0, powers=2)
lone = single_class_spectrum(l0, th0, powers=1)
lone_sq = single_class_spectrum(2 * l0, wrap_angle(2 * th0), powers=1)

print()
print("iterate weighting: family side vs primitive + half square")
print(f"{'t':>5} {'residual':>12}")
for t in TS:
    whole = dirac_geometric_side(t, family, K)
    parts = dirac_geometric_side(t, lone, K) + 0.5 * dirac_geometric_side(
        t, lone_sq, K
    )
    print(f"{t:>5.2f} {abs(whole - parts):>12.4e}")

print()
print("long-time decay of a single class (slope of log|side| vs log t after")
print("dividing out exp(-l^2/4t), expected -3/2)")
t_lo, t_hi = 5.0, 50.0
vals = []
for t in (t_lo, t_hi):
    side = dirac_geometric_side(t, lone, K)
    vals.append(abs(side) * math.exp(l0 * l0 / (4.0 * t)))
slope = (math.log(vals[1]) - math.log(vals[0])) / (math.log(t_hi) - math.log(t_lo))
print(f"measured slope: {slope:.4f}")
