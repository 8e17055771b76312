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
    GeodesicClass,
    LengthSpectrum,
    dirac_geometric_side,
    dirac_spectral_side,
    wrap_angle,
)

K = 1.0
TS = [0.2, 0.5, 1.0, 2.0, 4.0, 8.0]

spectrum = LengthSpectrum(
    dimension=3,
    cutoff=4.0,
    classes=(
        GeodesicClass(length=1.0, angle=0.7),
        GeodesicClass(length=1.3, angle=-2.1),
        GeodesicClass(length=1.7, angle=2.9),
    ),
    tolerance=1e-9,
    volume=1.0,
    source="toy",
)
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
family = LengthSpectrum(
    dimension=3,
    cutoff=2 * l0,
    classes=(
        GeodesicClass(length=l0, angle=th0),
        GeodesicClass(
            length=2 * l0, angle=wrap_angle(2 * th0), multiplicity=2, primitive=False
        ),
    ),
    tolerance=1e-9,
    source="family",
)
lone = LengthSpectrum(
    dimension=3, cutoff=2.0, classes=(GeodesicClass(length=l0, angle=th0),),
    tolerance=1e-9, source="lone",
)
lone_sq = LengthSpectrum(
    dimension=3, cutoff=2.5,
    classes=(GeodesicClass(length=2 * l0, angle=wrap_angle(2 * th0)),),
    tolerance=1e-9, source="lone sq",
)

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
