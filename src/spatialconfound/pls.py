"""Penalized least squares with GCV smoothing selection.

Fits  y ~ fixed design + penalized basis,  minimizing

    || y - F a - B g ||^2  +  lam * g' diag(penalty) g.

The fixed block F (n x q) is never penalized.  The basis B (n x p) must have
mutually orthogonal columns, B'B = diag(d0), as the Fourier basis has on its
grid (``BasisSet`` keeps d0: n/2 for the Fourier basis, checked when built
for a dense one).  Then, with W = B'F,
b = B'y and D = d0 + lam * penalty, the basis block has the closed form

    g = (b - W a) / D,

and a is the least-squares solution on the q-column augmented design

    [ F_perp            ]        [ y_perp          ]
    [ sqrt(delta) * W   ]   for  [ sqrt(delta) * b ],    delta = 1/d0 - 1/D,

where F_perp = F - B (W / d0) and y_perp = y - B (b / d0) are residualized
on the basis (its normal matrix is the Schur complement
S = F_perp'F_perp + W' delta W, which is never formed).  ``_Solver`` sets up
once per (y, F, B): with X = [F y], it forms B'X with
``basis.analyze`` (for the Fourier basis one real 2-D FFT), the
back-projection B (B'X / d0) with ``basis.synthesize`` (one inverse FFT),
and one R factor of X - B (B'X / d0) = [F_perp y_perp].  R's leading
block is R of F_perp, c = Q'y_perp sits above it in the last column, and the
rest of that column is the part of y_perp outside col(F_perp).
``select_lambda_gcv``'s residuals take one more ``basis.synthesize``.  The
FFTs do not run in BLAS, so their sums do not change with its thread count.
A lambda grid is then one stacked SVD call, of [R; sqrt(delta) W] per
lambda: lam = 0 (delta = 0), finite lam, lam = +inf (1/D = 0, the basis
pinned to zero) and p = 0 (F_perp = F) are all rows of the same array formulas,
sigma2, GCV and AIC included.  Its one result is a ``LambdaSweep``.
``sweep_lambda`` returns it, ``select_lambda_gcv`` fits its GCV minimizer
(one real lambda is the one-point grid), and ``fit_pls`` is
``select_lambda_gcv`` at one lambda.

Conventions pinned here and relied on elsewhere:

    edf       = trace of the influence (hat) operator
              = q + p - lam * sum_j penalty_j [D^-1 + D^-1 W S^-1 W' D^-1]_jj
    sigma2    = RSS / (n - edf)
    gcv       = n * RSS / (n - edf)^2
    aic       = n * log(RSS / n) + 2 * edf
    cov_fixed = sigma2 * S^-1, the fixed block of the penalized
                normal-equations inverse

Rank deficiency of the fixed design at any lambda, or of the unpenalized
(lam = 0) joint design [F, B], raises ``CollinearityError`` naming the
offending columns: that is the surface on which a fully spatial exposure
shows up as an error rather than a number.  Both are tested on singular
values of q-column matrices, never on a Gram product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import BasisSet, column_names
from .errors import CollinearityError

RCOND_COLLINEAR = 1e-10

DEFAULT_LAMBDA_GRID = tuple([0.0] + list(np.logspace(-4.0, 6.0, 41)))


@dataclass(frozen=True)
class FitResult:
    """Output of one penalized fit."""

    fixed_coefs: np.ndarray
    basis_coefs: np.ndarray
    lam: float
    edf: float
    gcv: float
    aic: float
    cov_fixed: np.ndarray
    residuals: np.ndarray  # y - F a - B g

    @property
    def rss(self) -> float:
        return float(self.residuals @ self.residuals)


@dataclass(frozen=True)
class LambdaSweep:
    """The penalized fit at every lambda of a smoothing grid.

    Rows align with ``lambdas`` in the order given by the caller.  The
    quantities are those ``fit_pls`` reports at the same lambda; ``V``
    factors S^-1 = V V' for the Schur complement S, so that
    cov_fixed = sigma2 * V V'.
    """

    lambdas: np.ndarray
    rss: np.ndarray
    edf: np.ndarray
    gcv: np.ndarray
    aic: np.ndarray
    fixed_coefs: np.ndarray  # (L, q)
    basis_coefs: np.ndarray  # (L, p)
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


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.floating, np.integer)) and not isinstance(value, bool)


def _as_lambdas(values) -> list[float]:
    """A smoothing grid as floats; one real number is the one-point grid.

    A string or a bool, alone or in a grid, is refused, not read as a number.
    """
    bare = _is_real(values) or isinstance(values, (str, bool, np.bool_))
    lams = [values] if bare else list(values)
    if not lams:
        raise ValueError("lambda grid must be nonempty")
    for v in lams:
        if not _is_real(v):
            raise ValueError(f"lambda values must be real numbers, got {v!r}")
        if math.isnan(v) or v < 0:
            raise ValueError(f"lambda values must be nonnegative, got {float(v)}")
    return [float(v) for v in lams]


def _distinct_lambdas(values) -> list[float]:
    lams = _as_lambdas(values)
    if len(set(lams)) != len(lams):
        raise ValueError("lambda grid values must be distinct")
    return lams


class _Solver:
    """The penalized least-squares problem for one (y, F, B), any lambda."""

    def __init__(self, y, fixed, basis: BasisSet, fixed_names: Optional[Sequence[str]]):
        y = np.asarray(y, dtype=float).ravel()
        F = np.asarray(fixed, dtype=float)
        if F.ndim == 1:
            F = F[:, None]
        if F.shape[0] != y.shape[0]:
            raise ValueError(f"fixed design has {F.shape[0]} rows for {y.shape[0]} responses")
        if basis.n != y.shape[0]:
            raise ValueError("basis rows do not match the response length")
        if fixed_names is not None and len(fixed_names) != F.shape[1]:
            raise ValueError("fixed_names length does not match the fixed design")
        self.y, self.F, self.basis, self.fixed_names = y, F, basis, fixed_names
        if F.shape[1] > F.shape[0]:
            raise CollinearityError(
                f"fixed design has {F.shape[1]} columns for {F.shape[0]} rows",
                columns=tuple(self._names()),
            )
        q = F.shape[1]
        self.d0 = basis.d0
        X = np.column_stack([F, y])
        WX = basis.analyze(X)
        # R of [F_perp y_perp]: each lambda then works on q + p rows, not n + p.
        R = np.linalg.qr(X - basis.synthesize(WX / self.d0[:, None]), mode="r")
        self.W, self.b = WX[:, :q], WX[:, q]
        self.R, self.c = R[:q, :q], R[:q, q]
        self.rss_perp = float(R[q:, q] @ R[q:, q])

    def _names(self) -> list[str]:
        if self.fixed_names is not None:
            return list(self.fixed_names)
        return [f"fixed[{j}]" for j in range(self.F.shape[1])]

    def _require_full_rank(self, lam: float, s: np.ndarray, vt: np.ndarray) -> None:
        if s[0] > 0 and s[-1] / s[0] >= RCOND_COLLINEAR:
            return
        rcond = s[-1] / s[0] if s[0] > 0 else 0.0
        null = vt[-1]
        names = self._names()
        if lam == 0.0:
            # [F, B] [v; -W v / d0] = F_perp v: the joint null vector.
            what = "joint design at lambda=0"
            null = np.concatenate([null, -(self.W @ null) / self.d0])
            names += column_names(self.basis)
        else:
            what = "fixed design"
        load = np.abs(null)
        picks = np.nonzero(load > 0.2 * load.max())[0]
        cols = tuple(names[int(j)] for j in picks[:8])
        raise CollinearityError(
            f"{what} is numerically collinear (rcond {rcond:.2e}); "
            f"implicated columns: {', '.join(cols)}",
            columns=cols,
        )

    def solve(self, lams: Sequence[float]) -> LambdaSweep:
        """Every lambda from one stacked SVD of the designs [R; sqrt(delta) W].

        When some lambda is positive, lam = +inf (the singular values of F)
        rides along as a last row, and its rank check precedes lam = 0's.
        """
        (n, q), p, L = self.F.shape, self.basis.p, len(lams)
        lam = np.array(list(lams) + ([math.inf] if max(lams) > 0 else []))[:, None]
        finite = np.isfinite(lam)
        pen = np.where(finite, lam, 0.0) * self.basis.penalty
        rho = np.where(finite, pen / (self.d0 + pen), 1.0)  # shrunk share of each column
        delta = rho / self.d0
        root = np.sqrt(delta)
        R, c = self.R[None].repeat(len(lam), axis=0), self.c[None].repeat(len(lam), axis=0)
        u, s, vt = np.linalg.svd(np.hstack([R, root[..., None] * self.W]), full_matrices=False)
        if len(lam) > L:
            self._require_full_rank(math.inf, s[-1], vt[-1])
        if 0.0 in lams:
            i = lams.index(0.0)
            self._require_full_rank(0.0, s[i], vt[i])
        v = np.swapaxes(vt, -1, -2)
        V = v / s[..., None, :]
        a = _matvec(v, _matvec(np.swapaxes(u, -1, -2), np.hstack([c, root * self.b])) / s)
        inv_D = (1.0 - rho) / self.d0
        gap = self.b - _matvec(self.W, a)
        r_perp = self.c - _matvec(self.R, a)  # ||y_perp - F_perp a||^2 = ||r_perp||^2 + rss_perp
        rss = _dot(r_perp, r_perp) + self.rss_perp + _dot((delta * gap) ** 2, self.d0)
        h = ((self.W @ V) ** 2).sum(axis=-1)  # diag(W S^-1 W')
        edf = q + p - (rho * (1.0 + inv_D * h)).sum(axis=-1)
        fits, fitted = n - edf > 0, rss > 0
        denom = np.where(fits, n - edf, 1.0)
        sigma2 = np.where(fits, rss / denom, math.inf)
        gcv = np.where(fits, n * rss / (denom * denom), math.inf)
        aic = np.where(fitted, n * _log(np.where(fitted, rss, n) / n) + 2.0 * edf, -math.inf)
        rows = (rss, edf, gcv, aic, a, inv_D * gap, sigma2, V)
        return LambdaSweep(np.array(lams), *(x[:L] for x in rows))


def fit_pls(
    y,
    fixed,
    basis: BasisSet,
    lam: float,
    fixed_names: Optional[Sequence[str]] = None,
) -> FitResult:
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
    lambdas: Sequence[float],
    fixed_names: Optional[Sequence[str]] = None,
) -> LambdaSweep:
    """Evaluate RSS, EDF, GCV, AIC and fixed coefficients on a lambda grid.

    The basis products are formed once, and one stacked SVD call of (q + p) x q
    matrices covers the grid.
    """
    return _Solver(y, fixed, basis, fixed_names).solve(_as_lambdas(lambdas))


def select_lambda_gcv(
    y,
    fixed,
    basis: BasisSet,
    lambda_grid: Optional[Sequence[float]] = None,
    fixed_names: Optional[Sequence[str]] = None,
) -> FitResult:
    """Fit every lambda in the grid and return the GCV minimizer.

    ``lambda_grid`` is a grid of distinct smoothing values, or one real
    number, the one-point grid; None is the default grid,
    {0} union 41 log-spaced points in [1e-4, 1e6].  Ties break toward the
    smallest lambda.
    """
    grid = sorted(_distinct_lambdas(DEFAULT_LAMBDA_GRID if lambda_grid is None else lambda_grid))
    solver = _Solver(y, fixed, basis, fixed_names)
    sweep = solver.solve(grid)
    i = int(np.argmin(sweep.gcv))  # first minimum = smallest lambda
    a, g, s_inv = sweep.fixed_coefs[i], sweep.basis_coefs[i], sweep.V[i] @ sweep.V[i].T
    return FitResult(
        fixed_coefs=a,
        basis_coefs=g,
        lam=grid[i],
        edf=float(sweep.edf[i]),
        gcv=float(sweep.gcv[i]),
        aic=float(sweep.aic[i]),
        cov_fixed=_scale(sweep.sigma2[i] * 0.5, s_inv + s_inv.T),
        residuals=solver.y - (solver.F @ a + basis.synthesize(g)),
    )


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
