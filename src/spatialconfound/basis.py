"""Tensor-product Fourier bases over the grid, labeled by frequency.

Each integer frequency pair k (one representative per +/- pair) contributes
the two columns cos(2 pi k.s) and sin(2 pi k.s).  On a regular grid all
columns are mutually orthogonal, orthogonal to the constant, and have
squared norm n/2, which is what makes frequency-band arguments exact:
disjoint bands span orthogonal subspaces, and a field synthesized inside a
band lies exactly in the span of that band's columns.  On the grid the
basis is kept as its frequency pairs, and its products are 2-D FFTs (see
``BasisSet``).

Penalty weights grow polynomially with the frequency label, so a single
smoothing parameter shrinks high frequencies harder, in the spirit of a
roughness penalty.  The constant function is never part of the basis; it
belongs to the fixed-effects design.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import fields
from .errors import _integer
from .fields import LocationGrid, frequency_pairs, _readonly


@dataclass(frozen=True, eq=False)
class BasisSet:
    """A spatial basis B (n x p) with per-column frequency labels.

    ``freq[j]`` is the max-norm of column j's frequency pair and
    ``penalty[j]`` its diagonal penalty weight.  ``max_freq`` records the
    truncation level the basis was built (or restricted) to.

    The penalized solver in ``pls`` requires nonzero, mutually orthogonal
    columns, B'B = diag(d0), and reaches B only through ``analyze`` (B'X)
    and ``synthesize`` (B G).  A basis comes in one of two kinds:

    - Spectral, built by ``fourier_basis`` or ``restrict_low_frequency``:
      it is its ``grid`` and frequency ``pairs``, with ``columns`` None,
      column 2t being cos(2 pi k_t.s) and column 2t+1 sin(2 pi k_t.s).
      ``analyze`` is one real 2-D FFT and ``synthesize`` one inverse FFT,
      d0 = n/2 holds on the grid analytically, and ``gram()`` is the exact
      (n/2) I.  No n x p array is ever attached to it; ``dense()`` builds
      its dense twin, and ``dataclasses.replace(b)`` stays spectral.
    - Dense, given explicit ``columns`` (a user basis, ``empty_basis``,
      ``b.dense()``, or ``replace(b, columns=...)`` of any basis, which
      drops ``grid`` and ``pairs``): the products are matrix products, and
      building the basis checks the orthogonality once and keeps d0, the
      diagonal of B'B.  A column of zero norm, or an off-diagonal entry
      above 1e-12 times the largest diagonal entry, is a ``ValueError``.
    """

    columns: Optional[np.ndarray] = field(repr=False)  # (n, p)
    freq: np.ndarray  # (p,) int
    penalty: np.ndarray  # (p,) float
    max_freq: int
    grid: Optional[LocationGrid] = field(default=None, repr=False)
    pairs: Optional[np.ndarray] = None  # (p/2, 2) frequency pairs of a spectral basis
    d0: np.ndarray = field(init=False, repr=False)  # (p,) diagonal of B'B
    _shrinkage: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_shrinkage", {})
        spectral = self.columns is None
        if spectral:
            if self.grid is None or self.pairs is None:
                raise ValueError("a basis without columns needs its grid and frequency pairs")
            _check_pairs(self.pairs, self.grid.m)
        else:
            object.__setattr__(self, "grid", None)
            object.__setattr__(self, "pairs", None)
        for name in ("freq", "penalty"):
            shape = np.shape(getattr(self, name))
            if shape != (self.p,):
                raise ValueError(
                    f"basis {name} must have one entry per column ({self.p}), got shape {shape}"
                )
        if spectral:
            object.__setattr__(self, "d0", _readonly(np.full(self.p, self.n / 2)))
            return
        gram = self.gram()
        d0 = _readonly(np.diag(gram).copy())
        np.fill_diagonal(gram, 0.0)  # in place: no p x p temporaries
        off = max(gram.max(initial=0.0), -gram.min(initial=0.0))
        if off > 1e-12 * d0.max(initial=0.0) or not np.all(d0 > 0):
            raise ValueError(
                "basis columns must be nonzero and mutually orthogonal (diagonal "
                f"B'B); B'B has off-diagonal entries up to {off:.3g} and "
                f"diagonal entries down to {d0.min():.3g}"
            )
        object.__setattr__(self, "d0", d0)

    @property
    def p(self) -> int:
        return self.columns.shape[1] if self.pairs is None else 2 * len(self.pairs)

    @property
    def n(self) -> int:
        return self.columns.shape[0] if self.pairs is None else self.grid.n

    def analyze(self, X) -> np.ndarray:
        """B'X for X of shape (n,) or (n, c)."""
        X = np.asarray(X, dtype=float)
        if self.pairs is None:
            return self.columns.T @ X
        out = np.empty((self.p,) + X.shape[1:])
        out[0::2], out[1::2] = fields.analyze(self.grid.m, self.pairs, X)
        return out

    def synthesize(self, G) -> np.ndarray:
        """B G for G of shape (p,) or (p, c)."""
        G = np.asarray(G, dtype=float)
        if self.pairs is None:
            return self.columns @ G
        return fields.synthesize(self.grid.m, self.pairs, G[0::2], G[1::2])

    def gram(self) -> np.ndarray:
        """B'B; for a spectral basis the exact diag(d0), with no round-off."""
        if self.pairs is not None:
            return np.diag(self.d0)
        return self.columns.T @ self.columns

    def dense(self) -> "BasisSet":
        """The same basis with its n x p ``columns`` given explicitly, so its
        products are matrix products; a dense basis is its own twin."""
        if self.pairs is None:
            return self
        return replace(self, columns=_fourier_columns(self.grid, self.pairs))

    def shrinkage(self, lams: np.ndarray) -> tuple[np.ndarray, ...]:
        """The weights of a smoothing grid (L,), +inf allowed, on the columns.

        Returns (rho, delta, sqrt(delta), 1/D), each (L, p) and read-only,
        with D = d0 + lam * penalty: rho = lam * penalty / D is the shrunk
        share of each column (1 at lam = +inf) and delta = rho / d0.  They
        depend on the basis only through d0 and ``penalty``, so they are
        worked out on the first call for a grid and kept with the basis
        (``dataclasses.replace`` starts with none).  Threads sharing a basis
        may each work them out once; the results are the same numbers.
        """
        key = lams.tobytes()
        weights = self._shrinkage.get(key)
        if weights is None:
            lam = lams[:, None]
            finite = np.isfinite(lam)
            pen = np.where(finite, lam, 0.0) * self.penalty
            rho = np.where(finite, pen / (self.d0 + pen), 1.0)
            delta = rho / self.d0
            inv_D = (1.0 - rho) / self.d0
            weights = tuple(_readonly(w) for w in (rho, delta, np.sqrt(delta), inv_D))
            self._shrinkage[key] = weights
        return weights


def _check_pairs(pairs, m: int) -> None:
    """Raise ``ValueError`` unless ``pairs`` are distinct integer pairs with
    k1 > 0, or k1 = 0 < k2, and max-norm at most (m - 1)//2: the pairs whose
    cos and sin columns have B'B = (n/2) I on the m x m grid."""
    pairs = np.asarray(pairs)
    ok = pairs.ndim == 2 and pairs.shape[1:] == (2,) and len(pairs) > 0
    ok = ok and np.issubdtype(pairs.dtype, np.integer)
    if ok:
        k1, k2 = pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
        ok = np.all((k1 > 0) | ((k1 == 0) & (k2 > 0))) and np.abs(pairs).max() <= (m - 1) // 2
    if ok:
        # One integer per pair (|k2| < m), sorted: distinct pairs differ from
        # their neighbours.  np.unique would import numpy.ma.
        codes = np.sort(k1 * (2 * m + 1) + k2)
        ok = not np.any(codes[1:] == codes[:-1])
    if not ok:
        raise ValueError(
            "frequency pairs must be distinct integer representatives (k1 > 0, or "
            f"k1 = 0 < k2) with max-norm at most {(m - 1) // 2} for an m={m} grid"
        )


def _fourier_columns(grid: LocationGrid, pairs: np.ndarray) -> np.ndarray:
    """The n x p matrix [cos(2 pi k.s), sin(2 pi k.s)] per pair, read-only."""
    phases = 2.0 * np.pi * (grid.coords @ pairs.T.astype(float))
    columns = np.empty((grid.n, 2 * len(pairs)))
    columns[:, 0::2] = np.cos(phases)
    columns[:, 1::2] = np.sin(phases)
    return _readonly(columns)


def empty_basis(n: int) -> BasisSet:
    """The p = 0 basis (useful to run basis estimators as plain OLS)."""
    return BasisSet(
        columns=_readonly(np.zeros((n, 0))),
        freq=np.zeros(0, dtype=int),
        penalty=np.zeros(0),
        max_freq=0,
    )


def fourier_basis(grid: LocationGrid, max_freq: int) -> BasisSet:
    """The spectral Fourier tensor basis up to frequency label ``max_freq``.

    Columns come in (cos, sin) pairs per frequency representative, ordered
    by (label, k1, k2).  The penalty weight of a column labeled f is
    f**2.  No n x p array is built: see ``BasisSet``.

    ``max_freq`` must satisfy 1 <= max_freq <= (m - 1)//2 so that all
    columns stay strictly below the grid Nyquist frequency and the exact
    orthogonality relations hold.
    """
    max_freq = _integer(max_freq, f"max_freq for an m={grid.m} grid", 1, (grid.m - 1) // 2)
    pairs = frequency_pairs(1, max_freq)
    freq = np.repeat(np.abs(pairs).max(axis=1), 2)
    return BasisSet(
        columns=None,
        freq=freq,
        penalty=freq.astype(float) ** 2,
        max_freq=max_freq,
        grid=grid,
        pairs=pairs,
    )


def restrict_low_frequency(b: BasisSet, cutoff: int) -> BasisSet:
    """Keep exactly the columns with frequency label <= cutoff.

    Penalty entries are carried over unchanged.  Requires an integer
    1 <= cutoff <= b.max_freq.
    """
    cutoff = _integer(cutoff, "cutoff", 1, b.max_freq)
    keep = b.freq <= cutoff
    if b.pairs is None:
        columns, pairs = _readonly(b.columns[:, keep]), None
    else:
        columns, pairs = None, b.pairs[keep[0::2]]
    return BasisSet(
        columns=columns,
        freq=b.freq[keep].copy(),
        penalty=b.penalty[keep].copy(),
        max_freq=cutoff,
        grid=b.grid,
        pairs=pairs,
    )


def column_names(b: BasisSet) -> list[str]:
    """Human-readable column names in column order: cos/sin of each
    frequency pair of a spectral basis, ``basis[j]`` for a dense one."""
    if b.pairs is None:
        return [f"basis[{j}]" for j in range(b.p)]
    return [f"{f}(k=({k1},{k2}))" for k1, k2 in b.pairs for f in ("cos", "sin")]
