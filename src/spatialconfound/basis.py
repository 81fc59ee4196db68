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

The pairs and each column's label follow from ``max_freq``: they are
derived when the basis is built and are read-only.  A smoothing lam weighs
label f by lam * f**2 (``pls._label_weights``), a roughness penalty that
shrinks high frequencies harder.  The constant function is never part of
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
    """The Fourier basis B (n x p) on a grid up to frequency label ``max_freq``.

    The grid and ``max_freq``, an integer in [0, (m - 1)//2], are the whole
    basis, checked when it is built; the rest is derived from them, and
    every array is read-only.  ``pairs`` are ``frequency_pairs(1,
    max_freq)`` (none at 0), ordered by (label, k1, k2); column 2t is
    cos(2 pi k_t.s) and column 2t+1 sin(2 pi k_t.s) for the t-th pair.
    ``freq[j]`` is the max-norm label of column j's pair.  Label f holds the
    8f columns [4f(f - 1), 4f(f + 1)), so the basis at a lower label is a
    leading block of the columns.

    The penalized solver in ``pls`` reaches B only through ``analyze`` (B'X,
    one real 2-D FFT) and ``synthesize`` (B G, one inverse FFT), and relies
    on B'B = diag(d0): every pair lies below the grid's Nyquist frequency,
    so d0 = n/2 holds on the grid analytically, and ``gram()`` is the exact
    (n/2) I.  No n x p array is ever built.  At ``max_freq`` 0 it is the
    p = 0 basis of ``empty_basis``.  A copy (``pickle``, ``copy``) is
    rebuilt from the grid and ``max_freq``.  A basis is geometry only: the
    shrinkage of a smoothing on its columns is kept by ``pls._shrinkage``.
    """

    grid: LocationGrid
    max_freq: int
    pairs: np.ndarray = field(init=False, repr=False)  # (p/2, 2) frequency pairs
    freq: np.ndarray = field(init=False, repr=False)  # (p,) int labels
    d0: np.ndarray = field(init=False, repr=False)  # (p,) diagonal of B'B

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
            ("d0", _readonly(np.full(len(freq), self.grid.n / 2))),
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
