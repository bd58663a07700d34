"""Certificate shape curves across problem sizes.

Rescaled to [0, 1] in both index and value, the four certificate vectors
barely move as N grows; that smooth drift is what makes extrapolation in N
such a good warm start. This script emits two-column text files (normalized
index, normalized value) ready for any plotting tool, and sketches the d
curves as ASCII to show the drift directly.
"""

import os
import tempfile

import numpy as np

from pepcert import sweep

outdir = os.path.join(tempfile.gettempdir(), "pepcert_demo_curves")
os.makedirs(outdir, exist_ok=True)

sizes = (20, 60, 180)
reports = {rep.cert.params.N: rep for rep in sweep(range(3, max(sizes) + 1))}

for n in sizes:
    cert = reports[n].cert
    for name in ("a", "b", "c", "d"):
        vec = getattr(cert, name)
        xs = np.linspace(0.0, 1.0, len(vec))
        ys = vec / vec.max()
        path = os.path.join(outdir, f"N{n:05d}_{name}.dat")
        np.savetxt(path, np.column_stack([xs, ys]))
print(f"wrote {4 * len(sizes)} curve files to {outdir}")
print(f"plot them with any tool, e.g. gnuplot> plot '{outdir}/N00060_d.dat' w l\n")

# crude ASCII comparison of the d shapes
width, height = 64, 12
print("normalized d curves (x: index fraction, y: value fraction)")
for n in sizes:
    cert = reports[n].cert
    ys = cert.d / cert.d.max()
    xs = np.linspace(0.0, 1.0, len(ys))
    grid = [[" "] * width for _ in range(height)]
    for t in np.linspace(0.0, 1.0, width * 16):
        y = np.interp(t, xs, ys)
        col = min(width - 1, int(t * width))
        row = min(height - 1, int(round((1.0 - y) * (height - 1))))
        grid[row][col] = "*"
    print(f"\n  N = {n}")
    for row in grid:
        print("  |" + "".join(row))
    print("  +" + "-" * width)
