"""Tensor-product Fourier bases over the grid, labeled by frequency.

Each integer frequency pair k (one representative per +/- pair) contributes
the two columns cos(2 pi k.s) and sin(2 pi k.s).  On a regular grid all
columns are mutually orthogonal, orthogonal to the constant, and have
squared norm n/2, which is what makes frequency-band arguments exact:
disjoint bands span orthogonal subspaces, and a field synthesized inside a
band lies exactly in the span of that band's columns.  A basis is its grid
and its truncation level ``max_freq``, the largest frequency label it
holds, never an n x p array, and its products are 2-D FFTs (see
``BasisSet``); the p = 0 basis is the one at ``max_freq`` 0.

The pairs, each column's label and its penalty weight f**2 for label f
follow from ``max_freq``: they are derived when the basis is built and are
read-only.  The weights grow with the label, so a single smoothing
parameter shrinks high frequencies harder, in the spirit of a roughness
penalty.  The constant function is never part of the basis; it belongs to
the fixed-effects design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields
from .errors import _integer
from .fields import LocationGrid, frequency_pairs, _readonly


@dataclass(frozen=True, eq=False)
class BasisSet:
    """The Fourier basis B (n x p) on a grid up to frequency label ``max_freq``.

    The grid and ``max_freq``, an integer in [0, (m - 1)//2], are the whole
    basis, checked when it is built; the rest is derived from them, and
    every array is read-only.  ``pairs`` are ``frequency_pairs(1,
    max_freq)`` (none at 0), ordered by (label, k1, k2); column 2t is
    cos(2 pi k_t.s) and column 2t+1 sin(2 pi k_t.s) for the t-th pair.
    ``freq[j]`` is the max-norm label of column j's pair and ``penalty[j]``
    its weight freq[j]**2.  Label f holds the 8f columns [4f(f - 1),
    4f(f + 1)), so the basis at a lower label is a leading block of the
    columns.

    The penalized solver in ``pls`` reaches B only through ``analyze`` (B'X,
    one real 2-D FFT) and ``synthesize`` (B G, one inverse FFT), and relies
    on B'B = diag(d0): every pair lies below the grid's Nyquist frequency,
    so d0 = n/2 holds on the grid analytically, and ``gram()`` is the exact
    (n/2) I.  No n x p array is ever built.  At ``max_freq`` 0 it is the
    p = 0 basis of ``empty_basis``.  A copy (``pickle``, ``copy``) is
    rebuilt from the grid and ``max_freq``.
    """

    grid: LocationGrid
    max_freq: int
    pairs: np.ndarray = field(init=False, repr=False)  # (p/2, 2) frequency pairs
    freq: np.ndarray = field(init=False, repr=False)  # (p,) int labels
    penalty: np.ndarray = field(init=False, repr=False)  # (p,) float, freq**2
    d0: np.ndarray = field(init=False, repr=False)  # (p,) diagonal of B'B
    _shrinkage: dict = field(init=False, repr=False)

    def __post_init__(self):
        m = self.grid.m
        max_freq = _integer(self.max_freq, f"max_freq for an m={m} grid", 0, (m - 1) // 2)
        # The constant pair (0, 0) sorts first; it belongs to the fixed design.
        pairs = frequency_pairs(0, max_freq)[1:]
        pairs.setflags(write=False)
        freq = np.repeat(np.abs(pairs).max(axis=1), 2)
        freq.setflags(write=False)
        for name, value in (
            ("max_freq", max_freq),
            ("pairs", pairs),
            ("freq", freq),
            ("penalty", _readonly(freq.astype(float) ** 2)),
            ("d0", _readonly(np.full(len(freq), self.grid.n / 2))),
            ("_shrinkage", {}),
        ):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return BasisSet, (self.grid, self.max_freq)

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

    def shrinkage(self, weights: np.ndarray) -> tuple[np.ndarray, ...]:
        """The shrinkage of a smoothing, (L, max_freq) penalties per label
        in [0, +inf] (``pls._label_weights``), on the columns.

        Returns (rho, delta, sqrt(delta), 1/D), each (L, p) and read-only,
        with D = d0 + w for the weight w of the column's label: rho = w / D
        is the shrunk share of each column (1 at w = +inf) and delta = rho /
        d0.  They are worked out on the first call for an array and kept with
        the basis (``dataclasses.replace`` starts with none).  Threads sharing
        a basis may each work them out once; the results are the same numbers.
        """
        key = (weights.shape, weights.tobytes())
        kept = self._shrinkage.get(key)
        if kept is None:
            w = weights[:, self.freq - 1]
            finite = np.isfinite(w)
            pen = np.where(finite, w, 0.0)
            rho = np.where(finite, pen / (self.d0 + pen), 1.0)
            delta = rho / self.d0
            inv_D = (1.0 - rho) / self.d0
            kept = tuple(_readonly(a) for a in (rho, delta, np.sqrt(delta), inv_D))
            self._shrinkage[key] = kept
        return kept


def empty_basis(grid: LocationGrid) -> BasisSet:
    """The p = 0 basis on ``grid``, at ``max_freq`` 0 (a basis estimator on
    it is plain OLS)."""
    return BasisSet(grid, 0)


def fourier_basis(grid: LocationGrid, max_freq: int) -> BasisSet:
    """The Fourier tensor basis up to frequency label ``max_freq``.

    ``max_freq`` must satisfy 1 <= max_freq <= (m - 1)//2 so that all
    columns stay strictly below the grid Nyquist frequency and the exact
    orthogonality relations hold; label 0 is ``empty_basis``.
    """
    name = f"max_freq for an m={grid.m} grid"
    return BasisSet(grid, _integer(max_freq, name, 1, (grid.m - 1) // 2))


def column_names(b: BasisSet) -> list[str]:
    """Human-readable column names in column order: cos/sin of each
    frequency pair."""
    return [f"{f}(k=({k1},{k2}))" for k1, k2 in b.pairs for f in ("cos", "sin")]
