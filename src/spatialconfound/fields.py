"""Regular grids on the unit square and random fields sampled on them.

A grid is its side m: its n = m*m cell centres come in one fixed row-major
order, and every field is a vector in that order, so that 2-D FFTs of the
reshaped (m, m) values stand in for sums over the locations.

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
from functools import cached_property
from typing import Union

import numpy as np

from .errors import AliasingError, _integer, _real

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


@dataclass(frozen=True, eq=False)
class LocationGrid:
    """m x m grid of cell-center locations in the unit square.

    The grid is its side ``m``, checked when built: an integer in [2, 512],
    else ``ValueError``.  Locations are row-major with x varying fastest:
    point (i, j) sits at ((i + 0.5)/m, (j + 0.5)/m) and occupies index
    j*m + i.  The fixed order is what lets field vectors align across
    modules, and what the FFTs below work on.  A copy (``pickle``,
    ``copy``) is rebuilt from ``m``, so its ``coords`` are built again,
    read-only, on first read.
    """

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "grid side m", MIN_GRID_SIDE, MAX_GRID_SIDE))

    def __reduce__(self):
        return LocationGrid, (self.m,)

    @property
    def n(self) -> int:
        return self.m * self.m

    @cached_property
    def coords(self) -> np.ndarray:
        """The (n, 2) cell centres in row order, read-only, built on first read."""
        axis = (np.arange(self.m) + 0.5) / self.m
        return _readonly(np.column_stack([np.tile(axis, self.m), np.repeat(axis, self.m)]))


def make_grid(m: int) -> LocationGrid:
    """Build the regular grid with ``m`` points per axis.

    Raises ``ValueError`` unless 2 <= m <= 512.
    """
    return LocationGrid(m)


@dataclass(frozen=True)
class SpectralSpec:
    """Spectral band of a completely spatial field.

    ``k_min``/``k_max`` bound the max-norm magnitude of the integer
    frequency pairs included in the synthesis, ``decay`` is a power-law
    exponent damping amplitudes with frequency, and ``variance`` is the
    marginal variance the sampled field is rescaled to on its grid.
    ``variance = 0`` denotes the identically-zero field.  Checked when
    built: integers 0 <= k_min <= k_max, and finite nonnegative reals,
    stored as floats (a bool or a string is a ``ValueError``).
    """

    k_min: int
    k_max: int
    decay: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "k_min", _integer(self.k_min, "k_min", 0))
        object.__setattr__(self, "k_max", _integer(self.k_max, "k_max", self.k_min))
        object.__setattr__(self, "decay", _real(self.decay, "decay", 0))
        object.__setattr__(self, "variance", _real(self.variance, "variance", 0))

    def __reduce__(self):
        # A copy is rebuilt from the four fields, so its pairs are worked
        # out again, read-only, on first read.
        return SpectralSpec, (self.k_min, self.k_max, self.decay, self.variance)

    @cached_property
    def pairs(self) -> np.ndarray:
        """The band's ``frequency_pairs``, read-only, worked out on first read.

        Not a field: ``asdict``, equality and hashing see the four above.
        """
        pairs = frequency_pairs(self.k_min, self.k_max)
        pairs.setflags(write=False)
        return pairs


@dataclass(frozen=True)
class IidSpec:
    """An independent (non-spatial) field; ``sd``, a finite real >= 0, is stored as a float."""

    sd: float

    def __post_init__(self):
        object.__setattr__(self, "sd", _real(self.sd, "sd", 0))

    @property
    def variance(self) -> float:
        """Marginal variance, as ``SpectralSpec.variance`` is for a spatial field."""
        return self.sd**2


FieldSpec = Union[SpectralSpec, IidSpec]


def frequency_pairs(k_min: int, k_max: int) -> np.ndarray:
    """Integer frequency pairs with k_min <= max-norm <= k_max, one per +/- pair.

    Representatives have k1 > 0, or k1 == 0 and k2 >= 0; the pair (0, 0) is
    included only when k_min == 0.  Order is deterministic: sorted by
    (max-norm, k1, k2).
    """
    if k_min > k_max:
        raise ValueError(f"k_min={k_min} exceeds k_max={k_max}")
    k1, k2 = np.meshgrid(np.arange(0, k_max + 1), np.arange(-k_max, k_max + 1), indexing="ij")
    k1, k2 = k1.ravel(), k2.ravel()
    mag = np.maximum(k1, np.abs(k2))
    keep = ((k1 > 0) | (k2 >= 0)) & (k_min <= mag) & (mag <= k_max)
    k1, k2, mag = k1[keep], k2[keep], mag[keep]
    order = np.lexsort((k2, k1, mag))
    return np.column_stack([k1[order], k2[order]]).astype(int)


# The values of a grid in row order are an (m, m) array indexed [j, i], the
# layout the 2-D FFTs below work on.  With s = ((i + 0.5)/m, (j + 0.5)/m),
#     exp(-2 pi i k.s) = exp(-2 pi i (k2 j + k1 i)/m) * exp(-i pi (k1 + k2)/m),
# so pair k reads DFT bin [k2 mod m, k1] times a half-cell phase.
def _half_cell_phase(pairs: np.ndarray, m: int, ndim: int) -> np.ndarray:
    phase = np.exp(1j * np.pi * (pairs[:, 0] + pairs[:, 1]) / m)
    return phase.reshape((-1,) + (1,) * (ndim - 1))


def synthesize(m: int, pairs: np.ndarray, coef_cos, coef_sin) -> np.ndarray:
    """sum_k coef_cos[k] cos(2 pi k.s) + coef_sin[k] sin(2 pi k.s) at each row.

    ``pairs`` (P, 2) need k1 in [0, m/2]; the coefficients are (P,) or
    (P, c), giving an (n,) or (n, c) result in the grid's row order.  Each
    pair's complex coefficient is added into its DFT bin (pairs (k1, m/2)
    and (k1, -m/2) share one), and the field is the real part of the
    unnormalized inverse 2-D DFT of those bins: an inverse FFT over k2 on
    the columns k1 <= max k1 only, then a real inverse FFT over k1, which
    counts bins 0 < k1 < m/2 twice and so gets them halved.
    """
    coef_cos, coef_sin = np.asarray(coef_cos, dtype=float), np.asarray(coef_sin, dtype=float)
    rest = coef_cos.shape[1:]
    spectrum = np.zeros((m, int(pairs[:, 0].max(initial=0)) + 1) + rest, dtype=complex)
    np.add.at(
        spectrum,
        (pairs[:, 1] % m, pairs[:, 0]),
        (coef_cos - 1j * coef_sin) * _half_cell_phase(pairs, m, coef_cos.ndim),
    )
    spectrum[:, 1 : (m + 1) // 2] *= 0.5
    columns = np.fft.ifft(spectrum, axis=0, norm="forward")
    return np.fft.irfft(columns, n=m, axis=1, norm="forward").reshape((m * m,) + rest)


def analyze(m: int, pairs: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
    """(sum_s v(s) cos(2 pi k.s), sum_s v(s) sin(2 pi k.s)) for each pair k.

    ``values`` is (n,) or (n, c) in the grid's row order, giving two (P,)
    or (P, c) arrays; ``pairs`` need k1 in [0, m/2].  A real FFT over i,
    then an FFT over j on the columns k1 <= max k1 only: the 2-D DFT at
    the bins the pairs read.
    """
    values = np.asarray(values, dtype=float)
    rows = np.fft.rfft(values.reshape((m, m) + values.shape[1:]), axis=1)
    spectrum = np.fft.fft(rows[:, : int(pairs[:, 0].max(initial=0)) + 1], axis=0)
    at = spectrum[pairs[:, 1] % m, pairs[:, 0]] * _half_cell_phase(-pairs, m, values.ndim)
    return at.real, -at.imag


def sample_grf(grid: LocationGrid, spec: SpectralSpec, seed: int) -> np.ndarray:
    """Sample a band-limited Gaussian random field on the grid, read-only.

    The field is sum over frequency pairs k in the band of
    a_k cos(2 pi k.s) + b_k sin(2 pi k.s) with a_k, b_k independent normals
    damped by max(|k|, 1)^(-decay), then rescaled so the empirical grid
    variance equals ``spec.variance`` exactly (skipped if the pre-rescale
    variance is zero).  The sum is synthesized as the real part of one
    inverse 2-D FFT (see ``synthesize``).

    Raises ``AliasingError`` when k_max exceeds m/2.
    """
    if not isinstance(spec, SpectralSpec):
        raise ValueError(f"expected SpectralSpec, got {type(spec).__name__}")
    if spec.k_max > grid.m // 2:
        raise AliasingError(
            f"k_max={spec.k_max} exceeds the grid Nyquist limit m/2={grid.m // 2}"
        )
    pairs = spec.pairs
    rng = _generator(seed)
    coefs = rng.standard_normal((len(pairs), 2))
    damp = np.maximum(np.abs(pairs).max(axis=1), 1) ** (-spec.decay)
    values = synthesize(grid.m, pairs, coefs[:, 0] * damp, coefs[:, 1] * damp)
    v = values.var()
    if v > 0.0:
        values = values * np.sqrt(spec.variance / v)
    return _readonly(values)


def sample_iid(grid: LocationGrid, sd: float, seed: int) -> np.ndarray:
    """Sample n independent N(0, sd^2) draws, read-only; sd is a finite real >= 0."""
    sd = _real(sd, "sd", 0)
    rng = _generator(seed)
    values = rng.standard_normal(grid.n) * sd
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

