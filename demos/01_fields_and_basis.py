"""Band-limited random fields and the Fourier tensor basis.

Walks through the spatial building blocks: a regular grid on the unit
square, completely spatial fields synthesized inside a chosen frequency
band, the max-norm spectral shells that make band claims checkable, and
the orthogonal Fourier basis with its per-frequency penalty weights.
"""

import numpy as np

from spatialconfound import (
    SpectralSpec,
    field_dft_energy,
    fourier_basis,
    make_grid,
    sample_grf,
    sample_iid,
)

grid = make_grid(32)
print(f"grid: m={grid.m}, n={grid.n}, first points {grid.coords[:3].tolist()}")

# A smooth low-frequency field and a rough high-frequency one.
low = sample_grf(grid, SpectralSpec(k_min=1, k_max=2, decay=0.0, variance=1.0), seed=1)
high = sample_grf(grid, SpectralSpec(k_min=6, k_max=10, decay=0.0, variance=1.0), seed=2)
noise = sample_iid(grid, sd=1.0, seed=3)

print(f"\nvariance calibration: low {low.var():.12f}, high {high.var():.12f}")

for name, f in (("low [1,2]", low), ("high [6,10]", high), ("iid", noise)):
    shells = field_dft_energy(f, grid)
    total = sum(shells.values())
    top = sorted(shells, key=shells.get, reverse=True)[:4]
    print(f"{name:12s} energy concentrated in shells {top} "
          f"(share {sum(shells[k] for k in top) / total:.3f})")

# Disjoint bands are exactly orthogonal on the grid.
inner = float(low @ high)
print(f"\n<low, high> = {inner:.2e} (disjoint bands, exact orthogonality)")


def basis_columns(b):
    """The n x p columns cos(2 pi k.s), sin(2 pi k.s) of each frequency pair."""
    phases = 2.0 * np.pi * (grid.coords @ b.pairs.T.astype(float))
    columns = np.empty((grid.n, b.p))
    columns[:, 0::2] = np.cos(phases)
    columns[:, 1::2] = np.sin(phases)
    return columns


# The Fourier tensor basis: orthogonal columns, squared norm n/2.  The fits
# reach it through FFTs; the n x p columns are evaluated here.
basis = fourier_basis(grid, max_freq=10)
columns = basis_columns(basis)
gram = columns.T @ columns
off = gram - np.diag(np.diag(gram))
print(f"\nbasis: p={basis.p} columns, labels 1..{basis.max_freq}")
print(f"gram diagonal ~ n/2 = {grid.n / 2}; max off-diagonal {np.abs(off).max():.2e}")
print(f"penalty weights by label: " +
      ", ".join(f"f={f}: {f**2}" for f in sorted(set(basis.freq))[:5]) + ", ...")

# The basis up to a lower label is the low-frequency block only.
low_block = fourier_basis(grid, max_freq=2)
leading = np.array_equal(low_block.pairs, basis.pairs[: low_block.p // 2])
print(f"\nlabels <= 2: p={low_block.p}, the leading columns of the max_freq=10 basis: {leading}")
low_columns = basis_columns(low_block)
proj = low_columns @ np.linalg.lstsq(low_columns, high, rcond=None)[0]
print(f"projection of the [6,10]-band field on the cutoff-2 basis: "
      f"|proj|/|field| = {np.linalg.norm(proj) / np.linalg.norm(high):.2e}")
