"""Tensor-product Fourier bases over the grid, labeled by frequency.

Each integer frequency pair k (one representative per +/- pair) contributes
the two columns cos(2 pi k.s) and sin(2 pi k.s).  On a regular grid all
columns are mutually orthogonal, orthogonal to the constant, and have
squared norm n/2, which is what makes frequency-band arguments exact:
disjoint bands span orthogonal subspaces, and a field synthesized inside a
band lies exactly in the span of that band's columns.

Penalty weights grow polynomially with the frequency label, so a single
smoothing parameter shrinks high frequencies harder, in the spirit of a
roughness penalty.  The constant function is never part of the basis; it
belongs to the fixed-effects design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import LocationGrid, frequency_pairs, _readonly


@dataclass(frozen=True)
class BasisSet:
    """Evaluated spatial basis columns with per-column frequency labels.

    ``freq[j]`` is the max-norm of column j's frequency pair and
    ``penalty[j]`` its diagonal penalty weight.  ``max_freq`` records the
    truncation level the basis was built (or restricted) to.

    The penalized solver in ``pls`` requires nonzero, mutually orthogonal
    columns (a diagonal ``gram()``), as the Fourier basis has on its grid.
    Building a basis checks this once, and ``d0`` keeps the diagonal: a
    column of zero norm, or an off-diagonal entry above 1e-12 times the
    largest diagonal entry, is a ``ValueError``.
    """

    columns: np.ndarray  # (n, p)
    freq: np.ndarray  # (p,) int
    penalty: np.ndarray  # (p,) float
    max_freq: int
    d0: np.ndarray = field(init=False, repr=False)  # (p,) diagonal of B'B

    def __post_init__(self):
        for name in ("freq", "penalty"):
            shape = np.shape(getattr(self, name))
            if shape != (self.p,):
                raise ValueError(
                    f"basis {name} must have one entry per column ({self.p}), got shape {shape}"
                )
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
        return self.columns.shape[1]

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    def gram(self) -> np.ndarray:
        """B'B."""
        return self.columns.T @ self.columns


def empty_basis(n: int) -> BasisSet:
    """The p = 0 basis (useful to run basis estimators as plain OLS)."""
    return BasisSet(
        columns=_readonly(np.zeros((n, 0))),
        freq=np.zeros(0, dtype=int),
        penalty=np.zeros(0),
        max_freq=0,
    )


def fourier_basis(grid: LocationGrid, max_freq: int) -> BasisSet:
    """Build the Fourier tensor basis up to frequency label ``max_freq``.

    Columns come in (cos, sin) pairs per frequency representative, ordered
    by (label, k1, k2).  The penalty weight of a column labeled f is
    f**2.

    ``max_freq`` must satisfy 1 <= max_freq <= (m - 1)//2 so that all
    columns stay strictly below the grid Nyquist frequency and the exact
    orthogonality relations hold.
    """
    if not isinstance(max_freq, (int, np.integer)) or isinstance(max_freq, bool):
        raise ValueError(f"max_freq must be an integer, got {max_freq!r}")
    limit = (grid.m - 1) // 2
    if not (1 <= max_freq <= limit):
        raise ValueError(
            f"max_freq must be in [1, {limit}] for an m={grid.m} grid "
            f"(aliasing guard), got {max_freq}"
        )
    pairs = frequency_pairs(1, int(max_freq))
    labels = np.abs(pairs).max(axis=1)
    phases = 2.0 * np.pi * (grid.coords @ pairs.T.astype(float))
    columns = np.empty((grid.n, 2 * len(pairs)))
    columns[:, 0::2] = np.cos(phases)
    columns[:, 1::2] = np.sin(phases)
    freq = np.repeat(labels, 2)
    penalty = freq.astype(float) ** 2
    return BasisSet(
        columns=_readonly(columns),
        freq=freq,
        penalty=penalty,
        max_freq=int(max_freq),
    )


def _check_cutoff(cutoff, max_freq: int) -> None:
    """Raise ``ValueError`` unless ``cutoff`` is an integer in [1, max_freq]."""
    if not isinstance(cutoff, (int, np.integer)) or isinstance(cutoff, bool):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    if not (1 <= cutoff <= max_freq):
        raise ValueError(f"cutoff must be in [1, {max_freq}], got {cutoff}")


def restrict_low_frequency(b: BasisSet, cutoff: int) -> BasisSet:
    """Keep exactly the columns with frequency label <= cutoff.

    Penalty entries are carried over unchanged.  Requires
    1 <= cutoff <= b.max_freq.
    """
    _check_cutoff(cutoff, b.max_freq)
    keep = b.freq <= cutoff
    return BasisSet(
        columns=_readonly(b.columns[:, keep]),
        freq=b.freq[keep].copy(),
        penalty=b.penalty[keep].copy(),
        max_freq=int(cutoff),
    )


def column_names(b: BasisSet) -> list[str]:
    """Human-readable column names, aligned with ``columns`` order.

    Works for restricted bases too: restriction keeps the (label-sorted)
    prefix, so the pair enumeration at ``max_freq`` regenerates the order.
    """
    if b.p == 0:
        return []
    names = []
    for k1, k2 in frequency_pairs(1, b.max_freq):
        names.append(f"cos(k=({k1},{k2}))")
        names.append(f"sin(k=({k1},{k2}))")
    return names
