"""Penalized least squares with GCV smoothing selection.

Fits  y ~ fixed design + penalized basis,  minimizing

    || y - F a - B g ||^2  +  lam * g' diag(f**2) g,   f each column's label.

The fixed block F (n x q) is never penalized.  The basis B (n x p) has
mutually orthogonal columns, B'B = diag(d0), as the Fourier basis has on its
grid (``BasisSet`` keeps d0 = n/2).  Then, with W = B'F,
b = B'y and D = d0 + lam * f**2, the basis block has the closed form

    g = (b - W a) / D,

and a is the least-squares solution on the q-column augmented design

    [ F_perp            ]        [ y_perp          ]
    [ sqrt(delta) * W   ]   for  [ sqrt(delta) * b ],    delta = 1/d0 - 1/D,

where F_perp = F - B (W / d0) and y_perp = y - B (b / d0) are residualized
on the basis (its normal matrix is the Schur complement
S = F_perp'F_perp + W' delta W, which is never formed).

A fit therefore needs only the ``Moments`` of X = [F y] on the basis: B'X,
and the R factor of X_perp = X - B (B'X / d0).  ``basis_moments`` forms them
with one ``basis.analyze`` (for the Fourier basis one real 2-D FFT), one
``basis.synthesize`` (one inverse FFT) and one n-row QR; the FFTs do not run
in BLAS, so their sums do not change with its thread count.  R's leading
block is R of F_perp, c = Q'y_perp sits above it in the last column, and the
rest of that column is the part of y_perp outside col(F_perp).  The moments
of any columns X T - B G follow from those of X without another n-row pass
(``Moments.columns``, ``Moments.without_basis``): that is how the
two-stage estimators fit a stage on the residuals of another.

A smoothing is rows of penalties w per label in [0, +inf]: lam * f**2 for
a lambda grid, +inf above a cutoff (1/D = 0: the column is dropped).  The
rows are one stacked SVD call, of [R; sqrt(delta) W] per row: lam = 0, lam
= +inf (the basis pinned to zero), a cutoff and p = 0 (F_perp = F) are all
rows of the same array formulas, sigma2, GCV and AIC included.  The column
weights rho = w / D, delta, sqrt(delta) and 1/D depend on nothing but the
grid, ``max_freq`` and the rows, so this module keeps those of the last 8
smoothings (``_shrinkage``); the stage solve keeps nothing.  The edf term
diag(W S^-1 W') of every row is one matrix product of W with all the V's
(S^-1 = V V'), squared and summed over the q columns.  Its one result is a
``LambdaSweep``, which holds no basis coefficients.  ``sweep_moments``
returns it and ``select_moments`` fits its GCV minimizer, as a
``StageFit``: g = (b - W a) / D is formed for that lambda alone.

Every entry reads a smoothing grid by one rule (``_lambda_grid``): None is
``DEFAULT_LAMBDA_GRID``, one real number (+inf included) is the one-point
grid, and a sequence must hold distinct reals; every value is at least 0.
A sweep keeps the caller's order; a selection sorts the grid, so that GCV
ties go to the smallest lambda.  The array API builds the moments of [F y]
and calls them:
``sweep_lambda`` returns the ``LambdaSweep``, and ``select_lambda_gcv`` and
``fit_pls`` (``select_lambda_gcv`` at one lambda) the ``StageFit``.

Conventions pinned here and relied on elsewhere:

    edf       = trace of the influence (hat) operator
              = q + p - lam * sum_j f_j**2 [D^-1 + D^-1 W S^-1 W' D^-1]_jj
    sigma2    = RSS / (n - edf)
    gcv       = n * RSS / (n - edf)^2
    aic       = n * log(RSS / n) + 2 * edf
    cov_fixed = sigma2 * S^-1, the fixed block of the penalized
                normal-equations inverse

Rank deficiency of the fixed design at any lambda, or of the unpenalized
(lam = 0) joint design [F, B_kept], raises ``CollinearityError`` naming the
offending columns: that is the surface on which a fully spatial exposure
shows up as an error rather than a number.  Both are tested on singular
values of q-column matrices, never on a Gram product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import BasisSet, column_names, empty_basis
from .errors import CollinearityError, _is_real
from .fields import _readonly, make_grid

RCOND_COLLINEAR = 1e-10


def _lambda_grid(values) -> tuple[float, ...]:
    """A smoothing grid by the module's rule, as floats in the caller's order.
    A string or a bool, alone or in a grid, is refused, not read as a number."""
    if values is None:
        return DEFAULT_LAMBDA_GRID
    bare = _is_real(values) or isinstance(values, (str, bool, np.bool_))
    lams = [values] if bare else list(values)
    if not lams:
        raise ValueError("lambda grid must be nonempty")
    for v in lams:
        if not _is_real(v):
            raise ValueError(f"lambda values must be real numbers, got {v!r}")
        if math.isnan(v) or v < 0:
            raise ValueError(f"lambda values must be nonnegative, got {float(v)}")
    grid = tuple(float(v) for v in lams)
    if len(set(grid)) != len(grid):
        raise ValueError("lambda grid values must be distinct")
    return grid


DEFAULT_LAMBDA_GRID = _lambda_grid([0.0, *np.logspace(-4.0, 6.0, 41)])


@dataclass(frozen=True, eq=False)
class StageFit:
    """The penalized fit at the GCV choice of a smoothing grid."""

    fixed_coefs: np.ndarray
    basis_coefs: np.ndarray
    lam: float
    edf: float
    gcv: float
    aic: float
    cov_fixed: np.ndarray


@dataclass(frozen=True, eq=False)
class LambdaSweep:
    """The penalized fit at every lambda of a smoothing grid.

    Rows align with ``lambdas`` in the order given by the caller.  The
    quantities are those ``fit_pls`` reports at the same lambda, less the
    basis coefficients; ``V`` factors S^-1 = V V' for the Schur complement
    S, so that cov_fixed = sigma2 * V V'.
    """

    lambdas: np.ndarray
    rss: np.ndarray
    edf: np.ndarray
    gcv: np.ndarray
    aic: np.ndarray
    fixed_coefs: np.ndarray  # (L, q)
    sigma2: np.ndarray
    V: np.ndarray  # (L, q, q)


# libm's log, as Python floats use it: numpy's SIMD log differs from it in
# the last bit for about one argument in a thousand, and varies with the
# CPU's vector extensions.
_log = np.vectorize(math.log, otypes=[float])


# Per-row products over a batch as stacked matmuls: each row then sums in the
# order of the same product on its own, which einsum does not.
def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (A @ x[..., None])[..., 0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class Moments:
    """What every penalized fit on ``basis`` needs of the columns X (n x k).

    ``WX`` is B'X and ``R`` the R factor of X_perp = X - B (WX / d0), the
    part of X orthogonal to the basis.  A column v = X t - B g, for any
    t (k,) and basis coefficients g (p,), then has

        B'v = WX t - d0 g    and    v_perp = X_perp t,

    and v = Q (R t) + B h with h = WX t / d0 - g and Q'B = 0, Q'Q = I: the
    rows [R t; sqrt(d0) h] hold v's inner products.  So the moments of any
    columns X T - B G follow from (WX, R) alone.  B'1 is column 0 of WX when
    X starts with the constant; on the grid it is zero only up to the FFT's
    round-off, so nothing here assumes it.
    """

    basis: BasisSet
    WX: np.ndarray  # (p, k)
    R: np.ndarray  # (min(n, k), k), upper triangular

    @property
    def n(self) -> int:
        return self.basis.n

    def columns(self, T, G=None) -> "Moments":
        """The moments of X T - B G (T: k x c, G: p x c, default 0) on the basis."""
        W = self.WX @ T
        if G is not None:
            W = W - self.basis.d0[:, None] * G
        return Moments(self.basis, W, np.linalg.qr(self.R @ T, mode="r"))

    def frame(self, T, G=None) -> np.ndarray:
        """[R T; sqrt(d0) H], H = WX T / d0 - G: X T - B G in orthonormal
        coordinates, so its Gram matrix is frame' frame."""
        d0 = self.basis.d0[:, None]
        H = self.WX @ T / d0
        if G is not None:
            H = H - G
        return np.vstack([self.R @ T, np.sqrt(d0) * H])

    def without_basis(self, T, G=None) -> "Moments":
        """The moments of X T - B G on the empty basis of the same grid."""
        R = np.linalg.qr(self.frame(T, G), mode="r")
        return Moments(empty_basis(self.basis.grid), np.zeros((0, R.shape[1])), R)


def basis_moments(X, basis: BasisSet) -> Moments:
    """The moments of X (n x k) on ``basis``: one ``analyze``, one
    ``synthesize`` and one n x k QR, or the QR alone on an empty basis."""
    X = np.asarray(X, dtype=float)
    if basis.n != X.shape[0]:
        raise ValueError("basis rows do not match the response length")
    if basis.p == 0:
        return Moments(basis, np.zeros((0, X.shape[1])), np.linalg.qr(X, mode="r"))
    WX = basis.analyze(X)
    # R of X_perp: each lambda then works on k + p rows, not n + p.
    R = np.linalg.qr(X - basis.synthesize(WX / basis.d0[:, None]), mode="r")
    return Moments(basis, WX, R)


def _fixed_labels(fixed_names: Optional[Sequence[str]], q: int) -> list[str]:
    if fixed_names is not None:
        return list(fixed_names)
    return [f"fixed[{j}]" for j in range(q)]


def _require_full_rank(
    m: Moments, fixed_names, lam: float, rho: np.ndarray, s: np.ndarray, vt: np.ndarray
) -> None:
    if s[0] > 0 and s[-1] / s[0] >= RCOND_COLLINEAR:
        return
    rcond = s[-1] / s[0] if s[0] > 0 else 0.0
    # [F, B_kept] [v; -W_kept v / d0] = F_perp v, for the row's columns of
    # rho 0 (none at lam = +inf): the joint null vector.
    q, keep = m.WX.shape[1] - 1, rho == 0.0
    null = np.concatenate([vt[-1], -(m.WX[keep, :q] @ vt[-1]) / m.basis.d0[keep]])
    names = _fixed_labels(fixed_names, q)
    names += [name for name, kept in zip(column_names(m.basis), keep) if kept]
    what = "joint design at lambda=0" if lam == 0.0 else "fixed design"
    load = np.abs(null)
    picks = np.nonzero(load > 0.2 * load.max())[0]
    cols = tuple(names[int(j)] for j in picks[:8])
    raise CollinearityError(
        f"{what} is numerically collinear (rcond {rcond:.2e}); "
        f"implicated columns: {', '.join(cols)}",
        columns=cols,
    )


def _solve(
    m: Moments, lams: Sequence[float], weights: np.ndarray, fixed_names: Optional[Sequence[str]]
) -> LambdaSweep:
    """The sweep of ``lams`` on the moments of [F y]: every row of
    ``weights`` (``_label_weights`` of ``lams``) from one stacked SVD of the
    designs [R; sqrt(delta) W].  A row beyond ``lams`` is the all-+inf one
    (F alone), whose rank check precedes each lam = 0 row's."""
    q = m.WX.shape[1] - 1
    n, p, d0, L, rows = m.n, m.basis.p, m.basis.d0, len(lams), len(weights)
    W, b = m.WX[:, :q], m.WX[:, q]
    R, c = m.R[:q, :q], m.R[:q, q]
    rho, delta, root, inv_D = _shrinkage(m.basis, weights)
    Rs, cs = np.broadcast_to(R, (rows, q, q)), np.broadcast_to(c, (rows, q))
    u, s, vt = np.linalg.svd(np.hstack([Rs, root[..., None] * W]), full_matrices=False)
    if rows > L:
        _require_full_rank(m, fixed_names, math.inf, rho[-1], s[-1], vt[-1])
    for i, lam in enumerate(lams):
        if lam == 0.0:
            _require_full_rank(m, fixed_names, lam, rho[i], s[i], vt[i])
    v = np.swapaxes(vt, -1, -2)
    V = v / s[..., None, :]
    a = _matvec(v, _matvec(np.swapaxes(u, -1, -2), np.hstack([cs, root * b])) / s)
    gap = b - _matvec(W, a)
    r_perp = c - _matvec(R, a)  # ||y_perp - F_perp a||^2 = ||r_perp||^2 + rss_perp
    rss_perp = float(m.R[q:, q] @ m.R[q:, q])
    rss = _dot(r_perp, r_perp) + rss_perp + _dot((delta * gap) ** 2, d0)
    # diag(W S^-1 W') for every lambda: one product of W with all the V's,
    # squared in place and summed over q by a product with ones.
    WV = W @ np.swapaxes(V, 0, 1).reshape(q, rows * q)
    WV *= WV
    h = (WV.reshape(p * rows, q) @ np.ones(q)).reshape(p, rows).T
    edf = q + p - (rho * (1.0 + inv_D * h)).sum(axis=-1)
    fits, fitted = n - edf > 0, rss > 0
    denom = np.where(fits, n - edf, 1.0)
    sigma2 = np.where(fits, rss / denom, math.inf)
    gcv = np.where(fits, n * rss / (denom * denom), math.inf)
    aic = np.where(fitted, n * _log(np.where(fitted, rss, n) / n) + 2.0 * edf, -math.inf)
    fields = (rss, edf, gcv, aic, a, sigma2, V)
    return LambdaSweep(np.array(lams), *(x[:L] for x in fields))


def sweep_moments(
    m: Moments, lambdas: Optional[Sequence[float]], fixed_names: Optional[Sequence[str]] = None
) -> LambdaSweep:
    """``sweep_lambda`` on the moments of [F y]: no n-row pass."""
    lams = _lambda_grid(lambdas)
    return _solve(m, lams, _label_weights(m.basis, lams), fixed_names)


def _label_weights(basis: BasisSet, lams: Sequence[float], cutoff=None) -> np.ndarray:
    """The rows a stage solves for a smoothing, as penalties per label: lam *
    f**2 on label f, and +inf, which drops the label, above ``cutoff`` (None:
    none); when some lambda is positive, the all-+inf row (F alone) last."""
    f = np.arange(1.0, basis.max_freq + 1)
    top = basis.max_freq if cutoff is None else cutoff
    lams = [*lams, math.inf] if max(lams) > 0 else lams
    return np.where(f > top, math.inf, np.array(lams)[:, None] * f**2)


def _shrinkage(basis: BasisSet, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shrinkage of ``_label_weights`` rows on the columns of ``basis``:
    (rho, delta, sqrt(delta), 1/D), each (L, p) and read-only, with D = d0 +
    w for the weight w of the column's label, rho = w / D the shrunk share
    of each column (1 at w = +inf) and delta = rho / d0."""
    return _kept_shrinkage(basis.grid.m, basis.max_freq, weights.shape, weights.tobytes())


# Kept under the grid's size, max_freq and the weights, not under a basis:
# bases built alike share them, and a dead basis keeps none alive.  A plan
# solves at most 4 weight arrays.
@functools.lru_cache(maxsize=8)
def _kept_shrinkage(m: int, max_freq: int, shape: tuple, weights: bytes) -> tuple:
    basis = BasisSet(make_grid(m), max_freq)
    w = np.frombuffer(weights).reshape(shape)[:, basis.freq - 1]
    finite = np.isfinite(w)
    pen = np.where(finite, w, 0.0)
    rho = np.where(finite, pen / (basis.d0 + pen), 1.0)
    delta = rho / basis.d0
    inv_D = (1.0 - rho) / basis.d0
    return tuple(_readonly(a) for a in (rho, delta, np.sqrt(delta), inv_D))


def select_moments(
    m: Moments,
    lambda_grid: Optional[Sequence[float]] = None,
    fixed_names: Optional[Sequence[str]] = None,
    cutoff: Optional[int] = None,
) -> StageFit:
    """``select_lambda_gcv`` on the moments of [F y], on the labels up to
    ``cutoff`` (None: all of them; the labels above it get weight +inf)."""
    grid = sorted(_lambda_grid(lambda_grid))
    weights = _label_weights(m.basis, grid, cutoff)
    sweep = _solve(m, grid, weights, fixed_names)
    i = int(np.argmin(sweep.gcv))  # first minimum = smallest lambda
    a = sweep.fixed_coefs[i]
    s_inv = sweep.V[i] @ sweep.V[i].T
    inv_D = _shrinkage(m.basis, weights)[3][i]
    return StageFit(
        fixed_coefs=a,
        basis_coefs=inv_D * (m.WX[:, -1] - _matvec(m.WX[:, :-1], a)),
        lam=grid[i],
        edf=float(sweep.edf[i]),
        gcv=float(sweep.gcv[i]),
        aic=float(sweep.aic[i]),
        cov_fixed=_scale(sweep.sigma2[i] * 0.5, s_inv + s_inv.T),
    )


def _array_moments(y, fixed, basis: BasisSet, fixed_names) -> Moments:
    """The moments of [F y], after checking the arrays."""
    y = np.asarray(y, dtype=float).ravel()
    F = np.asarray(fixed, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    if F.shape[0] != y.shape[0]:
        raise ValueError(f"fixed design has {F.shape[0]} rows for {y.shape[0]} responses")
    if fixed_names is not None and len(fixed_names) != F.shape[1]:
        raise ValueError("fixed_names length does not match the fixed design")
    if F.shape[1] > F.shape[0]:
        raise CollinearityError(
            f"fixed design has {F.shape[1]} columns for {F.shape[0]} rows",
            columns=tuple(_fixed_labels(fixed_names, F.shape[1])),
        )
    return basis_moments(np.column_stack([F, y]), basis)


def fit_pls(
    y,
    fixed,
    basis: BasisSet,
    lam: float,
    fixed_names: Optional[Sequence[str]] = None,
) -> StageFit:
    """Fit the penalized least-squares problem at one smoothing value.

    ``lam`` may be 0 (plain OLS on the concatenated design), a positive
    real, or ``math.inf`` (basis coefficients pinned to zero, OLS on the
    fixed design alone).

    Raises ``CollinearityError`` when the fixed design, or at lam = 0 the
    joint design, has reciprocal condition number below 1e-10.
    """
    if not _is_real(lam):
        raise ValueError(f"lambda must be a real number, got {lam!r}")
    return select_lambda_gcv(y, fixed, basis, lam, fixed_names)


def sweep_lambda(
    y,
    fixed,
    basis: BasisSet,
    lambdas: Optional[Sequence[float]],
    fixed_names: Optional[Sequence[str]] = None,
) -> LambdaSweep:
    """Evaluate RSS, EDF, GCV, AIC and fixed coefficients on a lambda grid,
    in the order given (None: the default grid).

    The basis products are formed once, and one stacked SVD call of (q + p) x q
    matrices covers the grid.
    """
    return sweep_moments(_array_moments(y, fixed, basis, fixed_names), lambdas, fixed_names)


def select_lambda_gcv(
    y,
    fixed,
    basis: BasisSet,
    lambda_grid: Optional[Sequence[float]] = None,
    fixed_names: Optional[Sequence[str]] = None,
) -> StageFit:
    """Fit every lambda in the grid and return the GCV minimizer.

    None is the default grid, {0} union 41 log-spaced points in [1e-4, 1e6].
    Ties break toward the smallest lambda.
    """
    return select_moments(_array_moments(y, fixed, basis, fixed_names), lambda_grid, fixed_names)


def _scale(sigma2: float, m: np.ndarray) -> np.ndarray:
    """sigma2 * m, taking inf * 0 as 0: an exact fit's S^-1 may hold zeros."""
    return np.multiply(sigma2, m, out=np.zeros_like(m), where=m != 0)


def project_out(v, onto) -> np.ndarray:
    """Residualize ``v`` (vector or matrix) on the column space of ``onto``.

    Returns (I - P) v for the orthogonal projector P onto col(onto).
    Raises ``CollinearityError`` when ``onto`` is numerically rank
    deficient.
    """
    v = np.asarray(v, dtype=float)
    M = np.asarray(onto, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.shape[0] != v.shape[0]:
        raise ValueError("row counts of v and onto differ")
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    if s[0] == 0 or s[-1] / s[0] < RCOND_COLLINEAR:
        raise CollinearityError(
            f"projection target is numerically collinear (rcond "
            f"{0.0 if s[0] == 0 else s[-1] / s[0]:.2e})"
        )
    return v - u @ (u.T @ v)
