"""The spectral density of the squared quasi-nilpotent generator.

The law lives on [0, e] with a parametric density; this script writes a
plottable CSV grid and verifies the density's moments against the closed
form by quadrature in the smooth parameter.
"""

import csv
import math
import sys

from dtmoments import SUPPORT_UPPER, density_grid, density_moment, phi_at, tstt_moment

out_path = sys.argv[1] if len(sys.argv) > 1 else "density_grid.csv"
points = density_grid(400)
with open(out_path, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["x", "phi"])
    for pt in points:
        writer.writerow([pt.x, pt.phi])
print(f"wrote {len(points)} grid points to {out_path}")
print(f"support: (0, {SUPPORT_UPPER:.6f}); largest grid x = {points[-1].x:.6f}")

print("\nmoment check (quadrature vs p^p/(p+1)!):")
for p in range(0, 7):
    got = density_moment(p)
    want = float(tstt_moment(p))
    print(f"  p={p}: {got:.12f} vs {want:.12f}  (|err| = {abs(got - want):.2e})")

x = math.e - 1e-3
ratio = phi_at(x) / math.sqrt(math.e - x)
print(f"\nsquare-root edge: phi(e - 1e-3)/sqrt(e - x) = {ratio:.6f}")
print(f"predicted constant sqrt(2)/(pi e^1.5)   = {math.sqrt(2) / (math.pi * math.e ** 1.5):.6f}")
