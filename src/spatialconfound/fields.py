"""Regular grids on the unit square and random fields sampled on them.

Two kinds of fields are provided.  *Completely spatial* fields are smooth
functions of location synthesized from a band of integer Fourier frequency
pairs, so their spectral content is exactly controllable: the 2-D DFT of a
sampled field carries no energy outside the requested band.  *Independent*
fields are plain iid Gaussians, one draw per location.

Frequency magnitude is measured with the max-norm on integer frequency
pairs throughout, which aligns spectral shells with tensor-product basis
truncation.  Seeding uses a counter-based generator (Philox) with child
seeds derived by hashing, so any field of any replication can be
regenerated independently of execution order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AliasingError

MIN_GRID_SIDE = 2
MAX_GRID_SIDE = 512


def derive_seed(*parts) -> int:
    """Derive a 64-bit child seed from an arbitrary mix of labels and ints.

    Uses SHA-256 rather than Python's builtin ``hash`` so the derivation is
    stable across processes and platforms.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _generator(seed: int) -> np.random.Generator:
    # Philox is counter-based: the stream depends only on the key, never on
    # how much other workers have drawn.
    return np.random.Generator(np.random.Philox(seed))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LocationGrid:
    """m x m grid of cell-center locations in the unit square.

    Coordinates are row-major with x varying fastest: point (i, j) sits at
    ((i + 0.5)/m, (j + 0.5)/m) and occupies index j*m + i.  The fixed order
    is what lets field vectors align across modules.
    """

    m: int
    coords: np.ndarray  # (n, 2)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


def make_grid(m: int) -> LocationGrid:
    """Build the regular grid with ``m`` points per axis.

    Raises ``ValueError`` unless 2 <= m <= 512.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError(f"grid side m must be an integer, got {m!r}")
    if not (MIN_GRID_SIDE <= m <= MAX_GRID_SIDE):
        raise ValueError(f"grid side m must be in [{MIN_GRID_SIDE}, {MAX_GRID_SIDE}], got {m}")
    axis = (np.arange(m) + 0.5) / m
    coords = np.column_stack([np.tile(axis, m), np.repeat(axis, m)])
    return LocationGrid(m=int(m), coords=_readonly(coords))


@dataclass(frozen=True)
class SpectralSpec:
    """Spectral band of a completely spatial field.

    ``k_min``/``k_max`` bound the max-norm magnitude of the integer
    frequency pairs included in the synthesis, ``decay`` is a power-law
    exponent damping amplitudes with frequency, and ``variance`` is the
    marginal variance the sampled field is rescaled to on its grid.
    ``variance = 0`` denotes the identically-zero field.
    """

    k_min: int
    k_max: int
    decay: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        for name in ("k_min", "k_max"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
        if self.k_min > self.k_max:
            raise ValueError(f"k_min={self.k_min} exceeds k_max={self.k_max}")
        if not np.isfinite(self.decay) or self.decay < 0:
            raise ValueError(f"decay must be a nonnegative real, got {self.decay!r}")
        if not np.isfinite(self.variance) or self.variance < 0:
            raise ValueError(f"variance must be a nonnegative real, got {self.variance!r}")


@dataclass(frozen=True)
class IidSpec:
    """Marker for an independent (non-spatial) field with the given sd."""

    sd: float

    def __post_init__(self):
        if not np.isfinite(self.sd) or self.sd < 0:
            raise ValueError(f"sd must be a nonnegative real, got {self.sd!r}")

    @property
    def variance(self) -> float:
        """Marginal variance, as ``SpectralSpec.variance`` is for a spatial field."""
        return float(self.sd) ** 2


FieldSpec = Union[SpectralSpec, IidSpec]


def frequency_pairs(k_min: int, k_max: int) -> np.ndarray:
    """Integer frequency pairs with k_min <= max-norm <= k_max, one per +/- pair.

    Representatives have k1 > 0, or k1 == 0 and k2 >= 0; the pair (0, 0) is
    included only when k_min == 0.  Order is deterministic: sorted by
    (max-norm, k1, k2).
    """
    if k_min > k_max:
        raise ValueError(f"k_min={k_min} exceeds k_max={k_max}")
    pairs = []
    for k1 in range(0, k_max + 1):
        k2_lo = 0 if k1 == 0 else -k_max
        for k2 in range(k2_lo, k_max + 1):
            mag = max(abs(k1), abs(k2))
            if k_min <= mag <= k_max:
                pairs.append((mag, k1, k2))
    pairs.sort()
    if not pairs:
        return np.zeros((0, 2), dtype=int)
    return np.array([(k1, k2) for _, k1, k2 in pairs], dtype=int)


def sample_grf(grid: LocationGrid, spec: SpectralSpec, seed: int) -> np.ndarray:
    """Sample a band-limited Gaussian random field on the grid, read-only.

    The field is sum over frequency pairs k in the band of
    a_k cos(2 pi k.s) + b_k sin(2 pi k.s) with a_k, b_k independent normals
    damped by max(|k|, 1)^(-decay), then rescaled so the empirical grid
    variance equals ``spec.variance`` exactly (skipped if the pre-rescale
    variance is zero).

    Raises ``AliasingError`` when k_max exceeds m/2.
    """
    if not isinstance(spec, SpectralSpec):
        raise ValueError(f"expected SpectralSpec, got {type(spec).__name__}")
    if spec.k_max > grid.m // 2:
        raise AliasingError(
            f"k_max={spec.k_max} exceeds the grid Nyquist limit m/2={grid.m // 2}"
        )
    pairs = frequency_pairs(spec.k_min, spec.k_max)
    rng = _generator(seed)
    coefs = rng.standard_normal((len(pairs), 2))
    if len(pairs):
        damp = np.maximum(np.abs(pairs).max(axis=1), 1) ** (-float(spec.decay))
        phases = 2.0 * np.pi * (grid.coords @ pairs.T.astype(float))
        values = np.cos(phases) @ (coefs[:, 0] * damp) + np.sin(phases) @ (coefs[:, 1] * damp)
    else:
        values = np.zeros(grid.n)
    v = values.var()
    if v > 0.0:
        values = values * np.sqrt(spec.variance / v)
    return _readonly(values)


def sample_iid(grid: LocationGrid, sd: float, seed: int) -> np.ndarray:
    """Sample n independent N(0, sd^2) draws, read-only; sd must be nonnegative."""
    if not np.isfinite(sd) or sd < 0:
        raise ValueError(f"sd must be a nonnegative real, got {sd!r}")
    rng = _generator(seed)
    values = rng.standard_normal(grid.n) * float(sd)
    return _readonly(values)


def sample_field(grid: LocationGrid, spec: FieldSpec, seed: int) -> np.ndarray:
    """Dispatch on the spec kind: spectral synthesis or iid draws."""
    if isinstance(spec, SpectralSpec):
        return sample_grf(grid, spec, seed)
    if isinstance(spec, IidSpec):
        return sample_iid(grid, spec.sd, seed)
    raise ValueError(f"unknown field spec {spec!r}")


def field_dft_energy(values, grid: LocationGrid) -> dict[int, float]:
    """Energy per max-norm frequency shell from the 2-D DFT of the field.

    Shells run 0 .. m//2.  Energies are normalized so their sum equals the
    field's sum of squares (Parseval).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(
            f"field length {values.shape} does not match grid size ({grid.n},)"
        )
    m = grid.m
    spectrum = np.fft.fft2(values.reshape(m, m))
    power = (spectrum * spectrum.conj()).real / values.size
    f = np.rint(np.fft.fftfreq(m) * m).astype(int)
    shell = np.maximum(np.abs(f)[:, None], np.abs(f)[None, :])
    totals = np.bincount(shell.ravel(), weights=power.ravel(), minlength=m // 2 + 1)
    return {int(k): float(totals[k]) for k in range(m // 2 + 1)}

