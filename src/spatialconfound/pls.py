"""Penalized least squares with GCV smoothing selection.

Fits  y ~ fixed design + penalized basis,  minimizing

    || y - F a - B g ||^2  +  lam * g' diag(penalty) g.

The fixed block F (n x q) is never penalized.  The basis B (n x p) must have
mutually orthogonal columns, B'B = diag(d0), as the Fourier basis has on its
grid.  Then, with W = B'F, b = B'y and D = d0 + lam * penalty, the basis
block has the closed form

    g = (b - W a) / D,

and a is the least-squares solution on the q-column augmented design

    [ F_perp            ]        [ y_perp          ]
    [ sqrt(delta) * W   ]   for  [ sqrt(delta) * b ],    delta = 1/d0 - 1/D,

where F_perp = F - B (W / d0) and y_perp = y - B (b / d0) are residualized
on the basis (its normal matrix is the Schur complement
S = F_perp'F_perp + W' delta W, which is never formed).  ``_Solver`` sets
this up once per (y, F, B) and answers each smoothing value with an SVD of a
q-column matrix: lam = 0 (delta = 0), finite lam, lam = +inf (1/D = 0, the
basis pinned to zero) and p = 0 (F_perp = F) are all inputs to the same
formulas.  ``fit_pls`` answers one lambda, ``sweep_lambda`` a grid, and
``select_lambda_gcv`` the GCV minimizer of a grid.

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
from typing import NamedTuple, Optional, Sequence

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
    fitted: np.ndarray
    residuals: np.ndarray

    @property
    def rss(self) -> float:
        return float(self.residuals @ self.residuals)


@dataclass(frozen=True)
class LambdaSweep:
    """Per-lambda summaries from a smoothing-grid sweep.

    Rows align with ``lambdas`` in the order given by the caller.  The
    quantities are those ``fit_pls`` reports at the same lambda.
    """

    lambdas: np.ndarray
    rss: np.ndarray
    edf: np.ndarray
    gcv: np.ndarray
    aic: np.ndarray
    fixed_coefs: np.ndarray  # (len(lambdas), q)


class _Solution(NamedTuple):
    lam: float
    fixed_coefs: np.ndarray
    basis_coefs: np.ndarray
    rss: float
    edf: float
    V: np.ndarray  # S^-1 = V V' for the Schur complement S


def _criteria(n: int, rss: float, edf: float) -> tuple[float, float, float]:
    denom = n - edf
    if denom > 0:
        sigma2 = rss / denom
        gcv = n * rss / denom**2
    else:
        sigma2 = math.inf
        gcv = math.inf
    aic = n * math.log(rss / n) + 2.0 * edf if rss > 0 else -math.inf
    return sigma2, gcv, aic


def _as_lambdas(values) -> list[float]:
    lams = [float(v) for v in values]
    if not lams:
        raise ValueError("lambda grid must be nonempty")
    for v in lams:
        if math.isnan(v) or v < 0:
            raise ValueError(f"lambda values must be nonnegative, got {v}")
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
        B = basis.columns
        self.d0 = basis.gram_diagonal()
        self.W = B.T @ F
        self.b = B.T @ y
        F_perp = F - B @ (self.W / self.d0[:, None])
        y_perp = y - B @ (self.b / self.d0)
        # F_perp = Q R: R has the singular values of F_perp, and each lambda
        # then works on q + p rows instead of n + p.
        Q, self.R = np.linalg.qr(F_perp)
        self.c = Q.T @ y_perp
        r = y_perp - Q @ self.c
        self.rss_perp = float(r @ r)

    def _names(self) -> list[str]:
        if self.fixed_names is not None:
            return list(self.fixed_names)
        return [f"fixed[{j}]" for j in range(self.F.shape[1])]

    def _augmented(self, lam: float):
        """Shrunk share rho of each basis column, delta, and the design's SVD."""
        if math.isinf(lam):
            rho = np.ones(self.basis.p)
        else:
            pen = lam * self.basis.penalty
            rho = pen / (self.d0 + pen)
        delta = rho / self.d0
        M = np.vstack([self.R, np.sqrt(delta)[:, None] * self.W])
        u, s, vt = np.linalg.svd(M, full_matrices=False)
        return rho, delta, u, s, vt

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

    def solve(self, lams: Sequence[float]) -> list[_Solution]:
        """Solutions in the order of ``lams``, each after the rank check it needs."""
        if any(lam > 0 for lam in lams):
            # At lam = +inf the augmented design has the singular values of F.
            _, _, _, s, vt = self._augmented(math.inf)
            self._require_full_rank(math.inf, s, vt)
        q, p = self.F.shape[1], self.basis.p
        out = []
        for lam in lams:
            rho, delta, u, s, vt = self._augmented(lam)
            if lam == 0.0:
                self._require_full_rank(0.0, s, vt)
            target = np.concatenate([self.c, np.sqrt(delta) * self.b])
            a = vt.T @ ((u.T @ target) / s)
            V = vt.T / s
            inv_D = (1.0 - rho) / self.d0
            gap = self.b - self.W @ a
            r_perp = self.c - self.R @ a  # ||y_perp - F_perp a||^2 = ||r_perp||^2 + rss_perp
            rss = float(r_perp @ r_perp) + self.rss_perp + float(self.d0 @ (delta * gap) ** 2)
            h = ((self.W @ V) ** 2).sum(axis=1)  # diag(W S^-1 W')
            edf = q + p - float((rho * (1.0 + inv_D * h)).sum())
            out.append(_Solution(lam, a, inv_D * gap, rss, edf, V))
        return out

    def fit_result(self, sol: _Solution) -> FitResult:
        fitted = self.F @ sol.fixed_coefs + self.basis.columns @ sol.basis_coefs
        sigma2, gcv, aic = _criteria(self.y.shape[0], sol.rss, sol.edf)
        s_inv = sol.V @ sol.V.T
        return FitResult(
            fixed_coefs=sol.fixed_coefs,
            basis_coefs=sol.basis_coefs,
            lam=sol.lam,
            edf=sol.edf,
            gcv=gcv,
            aic=aic,
            cov_fixed=sigma2 * 0.5 * (s_inv + s_inv.T),
            fitted=fitted,
            residuals=self.y - fitted,
        )


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
    joint design, has reciprocal condition number below 1e-10, and
    ``ValueError`` when the basis columns are not mutually orthogonal.
    """
    if not (isinstance(lam, (int, float, np.floating, np.integer)) and not isinstance(lam, bool)):
        raise ValueError(f"lambda must be a real number, got {lam!r}")
    lams = _as_lambdas([lam])
    solver = _Solver(y, fixed, basis, fixed_names)
    return solver.fit_result(solver.solve(lams)[0])


def sweep_lambda(
    y,
    fixed,
    basis: BasisSet,
    lambdas: Sequence[float],
    fixed_names: Optional[Sequence[str]] = None,
) -> LambdaSweep:
    """Evaluate RSS, EDF, GCV, AIC and fixed coefficients on a lambda grid.

    The basis products are formed once; each grid point then costs an SVD
    of a (q + p) x q matrix.
    """
    lams = _as_lambdas(lambdas)
    solver = _Solver(y, fixed, basis, fixed_names)
    sols = solver.solve(lams)
    n = solver.y.shape[0]
    crit = np.array([_criteria(n, sol.rss, sol.edf) for sol in sols])
    return LambdaSweep(
        lambdas=np.array(lams),
        rss=np.array([sol.rss for sol in sols]),
        edf=np.array([sol.edf for sol in sols]),
        gcv=crit[:, 1],
        aic=crit[:, 2],
        fixed_coefs=np.array([sol.fixed_coefs for sol in sols]),
    )


def select_lambda_gcv(
    y,
    fixed,
    basis: BasisSet,
    lambda_grid: Optional[Sequence[float]] = None,
    fixed_names: Optional[Sequence[str]] = None,
) -> FitResult:
    """Fit every lambda in the grid and return the GCV minimizer.

    Ties break toward the smallest lambda.  The default grid is
    {0} union 41 log-spaced points in [1e-4, 1e6].
    """
    grid = _as_lambdas(DEFAULT_LAMBDA_GRID if lambda_grid is None else lambda_grid)
    if len(set(grid)) != len(grid):
        raise ValueError("lambda grid values must be distinct")
    solver = _Solver(y, fixed, basis, fixed_names)
    sols = solver.solve(sorted(grid))
    n = solver.y.shape[0]
    gcv = [_criteria(n, sol.rss, sol.edf)[1] for sol in sols]
    return solver.fit_result(sols[int(np.argmin(gcv))])  # first minimum = smallest lambda


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
