"""Tensor-product Fourier bases over the grid, labeled by frequency.

Each integer frequency pair k (one representative per +/- pair) contributes
the two columns cos(2 pi k.s) and sin(2 pi k.s).  On a regular grid all
columns are mutually orthogonal, orthogonal to the constant, and have
squared norm n/2, which is what makes frequency-band arguments exact:
disjoint bands span orthogonal subspaces, and a field synthesized inside a
band lies exactly in the span of that band's columns.  A basis is its grid
and its frequency pairs, never an n x p array, and its products are 2-D
FFTs (see ``BasisSet``); the p = 0 basis is the one with no pairs.

Each column's label, its penalty weight f**2 for label f, and the basis's
largest label ``max_freq`` follow from the pairs: they are derived when
the basis is built and are read-only.  The weights grow with the label,
so a single smoothing parameter shrinks high frequencies harder, in the
spirit of a roughness penalty.  The constant function is never part of
the basis; it belongs to the fixed-effects design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields
from .errors import _integer
from .fields import LocationGrid, frequency_pairs, _readonly


@dataclass(frozen=True, eq=False)
class BasisSet:
    """A Fourier basis B (n x p) on a grid, kept as its frequency pairs.

    Column 2t is cos(2 pi k_t.s) and column 2t+1 sin(2 pi k_t.s) for the
    t-th row of ``pairs``.  The grid and the pairs are the whole basis;
    the rest is derived from them when it is built, and every array is
    read-only.  ``freq[j]`` is the max-norm label of column j's pair,
    ``penalty[j]`` its weight freq[j]**2, and ``max_freq`` the largest
    label (0 with no pairs).

    The penalized solver in ``pls`` reaches B only through ``analyze`` (B'X,
    one real 2-D FFT) and ``synthesize`` (B G, one inverse FFT), and relies
    on B'B = diag(d0): the pairs are checked when the basis is built, so
    d0 = n/2 holds on the grid analytically, and ``gram()`` is the exact
    (n/2) I.  No n x p array is ever built.  With no pairs it is the p = 0
    basis of ``empty_basis``.
    """

    grid: LocationGrid = field(repr=False)
    pairs: np.ndarray  # (p/2, 2) frequency pairs
    freq: np.ndarray = field(init=False)  # (p,) int labels
    penalty: np.ndarray = field(init=False, repr=False)  # (p,) float, freq**2
    max_freq: int = field(init=False)
    d0: np.ndarray = field(init=False, repr=False)  # (p,) diagonal of B'B
    _shrinkage: dict = field(init=False, repr=False)

    def __post_init__(self):
        pairs = np.asarray(self.pairs)
        if pairs.flags.writeable:
            pairs = pairs.copy()
            pairs.setflags(write=False)
        _check_pairs(pairs, self.grid.m)
        freq = np.repeat(np.abs(pairs).max(axis=1), 2)
        freq.setflags(write=False)
        for name, value in (
            ("pairs", pairs),
            ("freq", freq),
            ("penalty", _readonly(freq.astype(float) ** 2)),
            ("max_freq", int(freq.max(initial=0))),
            ("d0", _readonly(np.full(len(freq), self.grid.n / 2))),
            ("_shrinkage", {}),
        ):
            object.__setattr__(self, name, value)

    @property
    def p(self) -> int:
        return 2 * len(self.pairs)

    @property
    def n(self) -> int:
        return self.grid.n

    def analyze(self, X) -> np.ndarray:
        """B'X for X of shape (n,) or (n, c)."""
        X = np.asarray(X, dtype=float)
        out = np.empty((self.p,) + X.shape[1:])
        out[0::2], out[1::2] = fields.analyze(self.grid.m, self.pairs, X)
        return out

    def synthesize(self, G) -> np.ndarray:
        """B G for G of shape (p,) or (p, c)."""
        G = np.asarray(G, dtype=float)
        return fields.synthesize(self.grid.m, self.pairs, G[0::2], G[1::2])

    def gram(self) -> np.ndarray:
        """B'B: the exact diag(d0), with no round-off."""
        return np.diag(self.d0)

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
    cos and sin columns have B'B = (n/2) I on the m x m grid.  No pairs at
    all is the p = 0 basis."""
    pairs = np.asarray(pairs)
    ok = pairs.ndim == 2 and pairs.shape[1:] == (2,)
    ok = ok and np.issubdtype(pairs.dtype, np.integer)
    if ok:
        k1, k2 = pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
        ok = np.all((k1 > 0) | ((k1 == 0) & (k2 > 0)))
        ok = ok and np.abs(pairs).max(initial=0) <= (m - 1) // 2
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


def empty_basis(grid: LocationGrid) -> BasisSet:
    """The p = 0 basis on ``grid``, with no frequency pairs (a basis
    estimator on it is plain OLS)."""
    return BasisSet(grid=grid, pairs=np.zeros((0, 2), dtype=int))


def fourier_basis(grid: LocationGrid, max_freq: int) -> BasisSet:
    """The Fourier tensor basis up to frequency label ``max_freq``.

    Columns come in (cos, sin) pairs per frequency representative, ordered
    by (label, k1, k2).  The penalty weight of a column labeled f is
    f**2.

    ``max_freq`` must satisfy 1 <= max_freq <= (m - 1)//2 so that all
    columns stay strictly below the grid Nyquist frequency and the exact
    orthogonality relations hold.
    """
    max_freq = _integer(max_freq, f"max_freq for an m={grid.m} grid", 1, (grid.m - 1) // 2)
    return BasisSet(grid=grid, pairs=frequency_pairs(1, max_freq))


def restrict_low_frequency(b: BasisSet, cutoff: int) -> BasisSet:
    """Keep exactly the columns with frequency label <= cutoff.

    The kept columns keep their labels, and so their penalty weights.
    Requires an integer 1 <= cutoff <= b.max_freq.
    """
    cutoff = _integer(cutoff, "cutoff", 1, b.max_freq)
    return BasisSet(grid=b.grid, pairs=b.pairs[b.freq[0::2] <= cutoff])


def column_names(b: BasisSet) -> list[str]:
    """Human-readable column names in column order: cos/sin of each
    frequency pair."""
    return [f"{f}(k=({k1},{k2}))" for k1, k2 in b.pairs for f in ("cos", "sin")]
