"""Portrait of a path-continued super zeta along a left-half-plane line.

Starts from a synthetic first-order eigenvalue list, prints its
singularity catalog, then walks the continued function down a vertical
line at Re(s) = -0.5. Everything left of the convergence region only
exists through the residue expansion, so the printed values are a direct
illustration of the continuation at work: each log is the closed form
sum order * Log(s - pole) plus 2 pi i times the printed winding, the
branch the detoured path to the right half-plane picks up.
"""

import cmath

from zeta_workbench import (
    DiracSpectrum,
    log_zeta_by_path,
    singularity_catalog,
    super_winding,
)

DIRAC = DiracSpectrum(
    (
        (0.9, 2),
        (-0.9, 1),
        (1.7 + 0.1j, 1),
        (2.6, 3),
    )
)
LINE_RE = -0.5
# 40 points from 3i to -3i: every pole lies within the detour radius of one
# or two of their rays, and the ray through -0.5 - 1.0i meets -0.9i at it
IMS = [3.0 - 6.0 * k / 39 for k in range(40)]
RADIUS = 0.1

catalog = singularity_catalog(DIRAC)
print("singularity catalog (kind, location, order):")
for rec in catalog:
    print(f"  {rec.zeta_kind:>11}  {rec.location!s:>12}  {rec.order:+d}")

super_records = [r for r in catalog if r.zeta_kind == "super"]
print()
print(f"continued values on Re(s) = {LINE_RE}")
print("(log Z^s and its winding for detours above the poles; the winding")
print(" for detours below is printed alongside)")
print(f"{'Im(s)':>6} {'log Z^s':>28} {'|Z^s|':>12} {'arg':>8} {'above':>6} {'below':>6}")
for im in IMS:
    # the log and its winding above, then the winding below
    s = complex(LINE_RE, im)
    log_value, up = log_zeta_by_path(
        s, catalog=super_records, detour_radius=RADIUS, detour_side="above", return_winding=True
    )
    down = super_winding(s, super_records, RADIUS, "below")
    value = cmath.exp(log_value)
    print(
        f"{im:>6.2f} {log_value:>28.12f} {abs(value):>12.6g} "
        f"{cmath.phase(value):>8.4f} {up:>+6d} {down:>+6d}"
    )

print()
print("crossing the imaginary axis between the catalogued poles keeps the")
print("values finite; a ray that passes a pole within the detour radius")
print("picks up its order as winding on one side or the other, a 2*pi*order")
print("jump in Im(log Z^s) that leaves Z^s itself unchanged")
