#!/usr/bin/env python3
"""Fiber-coupling efficiency: closed form vs overlap integral.

Walks through the coupling model of the implanted optics: the focused spot
overlapping the fiber mode, the dimensionless coupling argument that
controls the achievable efficiency, the ~81.45% ceiling, and the ring
structure that appears once the beam is misaligned by more than the first
null of the focused field. Writes an SVG of the misalignment response.
"""

import math

import numpy as np

from aoci import svgplot
from aoci.optics import (
    CouplingParams,
    coupling_eta_batch,
    coupling_eta_closed,
    coupling_eta_integrals,
    peak_coupling,
)

LAM = 594e-9  # wavelength [m]
OMEGA0 = 0.1e-3  # fiber mode-field radius [m]
LENS_D = 0.1e-3  # coupling-lens symbol D [m]


def params_for_argument(a: float) -> CouplingParams:
    """Solve the lens focal length so the coupling argument equals a."""
    focal = 3.83 * LENS_D * OMEGA0 / (1.22 * LAM * math.sqrt(a))
    return CouplingParams(lens_diameter=LENS_D, focal_length=focal, omega0=OMEGA0, lam=LAM)


print("=" * 70)
print("1. The coupling ceiling")
print("=" * 70)
a_star, eta_star = peak_coupling()
print(f"optimum coupling argument a* = {a_star:.6f}")
print(f"peak efficiency eta*         = {eta_star:.6f}  (~81.45%, never exceeded)")
cp = params_for_argument(a_star)
print(f"focal length realizing a* with D = w0 = 0.1 mm: F = {cp.focal_length * 1e3:.3f} mm")

print()
print("=" * 70)
print("2. Two independent routes to the same number")
print("=" * 70)
print(f"{'a':>8} {'r/w0':>6} {'closed form':>14} {'overlap integral':>17} {'rel diff':>10}")
for a in (0.1, 0.5, a_star, 3.0):
    cp = params_for_argument(a)
    for rr in (0.0, 1.0, 2.0):
        r = rr * OMEGA0
        closed = coupling_eta_closed(cp, r)
        integral = coupling_eta_integrals([cp], [r])[0]
        rel = abs(closed - integral) / integral
        print(f"{a:8.4f} {rr:6.1f} {closed:14.8f} {integral:17.8f} {rel:10.2e}")

print()
print("=" * 70)
print("3. Misalignment response and the ring structure")
print("=" * 70)
cp = params_for_argument(a_star)
r_lobe = 3.8317 * OMEGA0 / (2.0 * math.sqrt(a_star))
print(f"main lobe ends near r = {r_lobe * 1e3:.4f} mm "
      f"({r_lobe / OMEGA0:.2f} mode radii); beyond it the response flattens")
rs = np.linspace(0.0, 6.0 * OMEGA0, 400)
etas = coupling_eta_batch(cp, rs)
print(f"eta at r = 0           : {etas[0]:.4f}")
print(f"eta at the lobe edge   : {coupling_eta_integrals([cp], [r_lobe])[0]:.3e}")
ring = etas[rs > r_lobe]
print(f"shoulder/ring maximum  : {ring.max():.3e}  "
      f"({ring.max() / etas[0]:.1e} of the peak; the far tail decays like r^-3,"
      " not like a Gaussian)")

svgplot.line_plot(
    "demos/output/coupling_vs_misalignment.svg",
    [("eta(r) at a*", (rs / OMEGA0).tolist(), etas.tolist())],
    "misalignment r / w0",
    "coupling efficiency",
    title="Fiber coupling vs radial misalignment",
    ylog=True,
)
print("wrote demos/output/coupling_vs_misalignment.svg")
