"""Penalized least-squares engine: solver, GCV selection, projections."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spatialconfound import (
    BasisSet,
    CollinearityError,
    Observations,
    empty_basis,
    fit_pls,
    fit_rsr,
    fourier_basis,
    make_grid,
    project_out,
    select_lambda_gcv,
    sweep_lambda,
)


def toy_basis(column, penalty):
    column = np.asarray(column, dtype=float)
    return BasisSet(
        columns=column[:, None],
        freq=np.array([1]),
        penalty=np.array([float(penalty)]),
        max_freq=1,
    )


def penalized_objective(y, F, b, lam, alpha, gamma):
    resid = y - F @ alpha - b.columns @ gamma
    return float(resid @ resid + lam * (gamma * b.penalty) @ gamma)


def random_problem(seed, n=64, m=8, max_freq=3, noise=0.5):
    rng = np.random.default_rng(seed)
    grid = make_grid(m)
    b = fourier_basis(grid, max_freq)
    F = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    y = F @ rng.normal(size=3) + b.columns @ rng.normal(size=b.p) * 0.3
    y = y + noise * rng.normal(size=n)
    return y, F, b


def dense_oracle(y, F, b, lam):
    """Penalized normal equations on the joint design, solved densely.

    Returns fixed coefficients, edf = tr((A + lam P)^-1 A), GCV and the
    fixed block of sigma2 * (A + lam P)^-1.  At lam = inf the basis is
    pinned to zero, leaving OLS on F.
    """
    n, q = F.shape
    if math.isinf(lam):
        X, pen = F, np.zeros(q)
    else:
        X = np.column_stack([F, b.columns])
        pen = np.concatenate([np.zeros(q), lam * b.penalty])
    A = X.T @ X
    A_pen = A + np.diag(pen)
    coef = np.linalg.solve(A_pen, X.T @ y)
    edf = float(np.trace(np.linalg.solve(A_pen, A)))
    resid = y - X @ coef
    rss = float(resid @ resid)
    cov_fixed = rss / (n - edf) * np.linalg.inv(A_pen)[:q, :q]
    return coef[:q], edf, n * rss / (n - edf) ** 2, cov_fixed


class TestToyInstance:
    """n=4, intercept plus one basis column (1,-1,1,-1), y=(2,0,2,0), lam=4."""

    y = np.array([2.0, 0.0, 2.0, 0.0])
    F = np.ones((4, 1))
    b = toy_basis([1.0, -1.0, 1.0, -1.0], penalty=1.0)

    def test_hand_solved_solution(self):
        fit = fit_pls(self.y, self.F, self.b, lam=4.0)
        # Normal equations: intercept 1; basis coefficient = shrinkage
        # 4/(4+4) = 1/2 applied to the unpenalized coefficient 1.
        assert fit.fixed_coefs[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.basis_coefs[0] == pytest.approx(0.5, abs=1e-12)
        assert fit.edf == pytest.approx(1.5, abs=1e-12)
        # Residuals (0.5,-0.5,0.5,-0.5): RSS = 1, penalized objective = 2.
        assert fit.rss == pytest.approx(1.0, abs=1e-12)
        obj = penalized_objective(self.y, self.F, self.b, 4.0, fit.fixed_coefs, fit.basis_coefs)
        assert obj == pytest.approx(2.0, abs=1e-12)

    def test_brute_force_grid_minimization(self):
        # Scan a fine grid around the reported solution; nothing beats it.
        fit = fit_pls(self.y, self.F, self.b, lam=4.0)
        best = penalized_objective(
            self.y, self.F, self.b, 4.0, fit.fixed_coefs, fit.basis_coefs
        )
        alphas = np.linspace(0.0, 2.0, 201)
        gammas = np.linspace(-0.5, 1.5, 201)
        values = [
            penalized_objective(self.y, self.F, self.b, 4.0, np.array([a]), np.array([g]))
            for a in alphas
            for g in gammas
        ]
        assert min(values) >= best - 1e-9
        argbest = int(np.argmin(values))
        a_star = alphas[argbest // 201]
        g_star = gammas[argbest % 201]
        assert a_star == pytest.approx(1.0, abs=0.011)
        assert g_star == pytest.approx(0.5, abs=0.011)


class TestLambdaLimits:
    def test_infinite_lambda_is_ols_on_fixed(self):
        y, F, b = random_problem(0)
        fit = fit_pls(y, F, b, math.inf)
        ref = np.linalg.lstsq(F, y, rcond=None)[0]
        assert fit.fixed_coefs == pytest.approx(ref, rel=1e-10)
        assert np.all(fit.basis_coefs == 0.0)
        assert fit.edf == 3.0

    def test_zero_lambda_matches_normal_equations_oracle(self):
        y, F, b = random_problem(1)
        fit = fit_pls(y, F, b, 0.0)
        X = np.column_stack([F, b.columns])
        ref = np.linalg.solve(X.T @ X, X.T @ y)
        joint = np.concatenate([fit.fixed_coefs, fit.basis_coefs])
        assert joint == pytest.approx(ref, rel=1e-8)
        assert fit.edf == pytest.approx(X.shape[1])

    def test_residuals_are_response_minus_fitted(self):
        y, F, b = random_problem(2)
        for lam in (0.0, 3.7, math.inf):
            fit = fit_pls(y, F, b, lam)
            assert np.array_equal(
                fit.residuals, y - (F @ fit.fixed_coefs + b.columns @ fit.basis_coefs)
            )

    def test_negative_lambda_rejected(self):
        y, F, b = random_problem(3)
        with pytest.raises(ValueError):
            fit_pls(y, F, b, -1.0)


class TestMonotonicityAndGradient:
    lambdas = [0.0, 1e-3, 1e-1, 1.0, 10.0, 1e3, 1e5]

    def test_rss_nondecreasing_edf_nonincreasing(self):
        y, F, b = random_problem(4)
        fits = [fit_pls(y, F, b, lam) for lam in self.lambdas]
        rss = [f.rss for f in fits]
        edf = [f.edf for f in fits]
        assert all(a <= c + 1e-10 for a, c in zip(rss, rss[1:]))
        assert all(a >= c - 1e-10 for a, c in zip(edf, edf[1:]))
        assert all(3.0 - 1e-9 <= e <= 3.0 + b.p + 1e-9 for e in edf)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 40.0])
    def test_gradient_vanishes_at_solution(self, lam):
        y, F, b = random_problem(5)
        fit = fit_pls(y, F, b, lam)
        theta = np.concatenate([fit.fixed_coefs, fit.basis_coefs])
        q = F.shape[1]

        def objective(t):
            return penalized_objective(y, F, b, lam, t[:q], t[q:])

        obj0 = objective(theta)
        step = 1e-6
        grad = np.empty(theta.size)
        for j in range(theta.size):
            up = theta.copy()
            dn = theta.copy()
            up[j] += step
            dn[j] -= step
            grad[j] = (objective(up) - objective(dn)) / (2 * step)
        assert np.abs(grad).max() <= 1e-4 * (1.0 + obj0)


class TestOrthogonalShrinkageIdentity:
    def test_per_column_shrinkage_matches_generic_solver(self):
        # Fixed design orthogonal to the basis: intercept only, on the grid.
        grid = make_grid(16)
        b = fourier_basis(grid, 4)
        rng = np.random.default_rng(6)
        y = rng.normal(size=grid.n)
        F = np.ones((grid.n, 1))
        ols = fit_pls(y, F, b, 0.0)
        lam = 7.3
        fit = fit_pls(y, F, b, lam)
        d = np.full(b.p, grid.n / 2)  # column squared norms
        expected = ols.basis_coefs * d / (d + lam * b.penalty)
        assert fit.basis_coefs == pytest.approx(expected, rel=1e-8)


class TestSweep:
    def test_matches_fit_pls_pointwise(self):
        y, F, b = random_problem(7)
        lams = [0.0, 1e-2, 1.0, 50.0, 1e4, math.inf]
        sweep = sweep_lambda(y, F, b, lams)
        for i, lam in enumerate(lams):
            fit = fit_pls(y, F, b, lam)
            assert sweep.rss[i] == pytest.approx(fit.rss, rel=1e-8, abs=1e-10)
            assert sweep.edf[i] == pytest.approx(fit.edf, rel=1e-8)
            assert sweep.gcv[i] == pytest.approx(fit.gcv, rel=1e-8, abs=1e-10)
            assert sweep.fixed_coefs[i] == pytest.approx(fit.fixed_coefs, rel=1e-7, abs=1e-9)

    def test_intercept_only_fast_path(self):
        grid = make_grid(16)
        b = fourier_basis(grid, 5)
        rng = np.random.default_rng(8)
        y = rng.normal(size=grid.n)
        sweep = sweep_lambda(y, np.ones((grid.n, 1)), b, [0.0, 1.0, 100.0])
        for i, lam in enumerate([0.0, 1.0, 100.0]):
            fit = fit_pls(y, np.ones((grid.n, 1)), b, lam)
            assert sweep.gcv[i] == pytest.approx(fit.gcv, rel=1e-8)
            assert sweep.edf[i] == pytest.approx(fit.edf, rel=1e-8)


class TestDenseOracle:
    lambdas = [0.0, 1e-2, 3.7, 1e3, math.inf]

    @pytest.mark.parametrize("lam", lambdas)
    def test_fit_matches_dense_normal_equations(self, lam):
        y, F, b = random_problem(19)
        fit = fit_pls(y, F, b, lam)
        coefs, edf, gcv, cov_fixed = dense_oracle(y, F, b, lam)
        assert fit.fixed_coefs == pytest.approx(coefs, rel=1e-8)
        assert fit.edf == pytest.approx(edf, rel=1e-8)
        assert fit.gcv == pytest.approx(gcv, rel=1e-8)
        assert fit.cov_fixed == pytest.approx(cov_fixed, rel=1e-8)

    def test_sweep_matches_dense_normal_equations(self):
        y, F, b = random_problem(20)
        sweep = sweep_lambda(y, F, b, self.lambdas)
        for i, lam in enumerate(self.lambdas):
            coefs, edf, gcv, _ = dense_oracle(y, F, b, lam)
            assert sweep.fixed_coefs[i] == pytest.approx(coefs, rel=1e-8)
            assert sweep.edf[i] == pytest.approx(edf, rel=1e-8)
            assert sweep.gcv[i] == pytest.approx(gcv, rel=1e-8)


class TestSelectLambdaGcv:
    @pytest.mark.parametrize("lam", [0.0, 3.7, math.inf])
    def test_singleton_grid(self, lam):
        # A fixed lambda is the one-point grid: the same fit, bit for bit.
        y, F, b = random_problem(9)
        sel = select_lambda_gcv(y, F, b, [lam])
        ref = fit_pls(y, F, b, lam)
        assert sel.lam == lam
        for field in ("fixed_coefs", "cov_fixed", "edf", "aic", "residuals"):
            assert np.array_equal(getattr(sel, field), getattr(ref, field))

    def test_noiseless_response_in_span_interpolated(self):
        y, F, b = random_problem(10, noise=0.0)
        sel = select_lambda_gcv(y, F, b)
        assert sel.rss < 1e-18 * float(y @ y)

    def test_argmin_contract_against_independent_refits(self):
        y, F, b = random_problem(11)
        grid = [0.0, 1e-2, 1.0, 30.0, 1e3]
        sel = select_lambda_gcv(y, F, b, grid)
        for lam in grid:
            ref = fit_pls(y, F, b, lam)
            assert sel.gcv <= ref.gcv * (1 + 1e-9)

    def test_bad_grids_rejected(self):
        y, F, b = random_problem(12)
        with pytest.raises(ValueError):
            select_lambda_gcv(y, F, b, [])
        with pytest.raises(ValueError):
            select_lambda_gcv(y, F, b, [1.0, 1.0])
        with pytest.raises(ValueError):
            select_lambda_gcv(y, F, b, [-1.0, 2.0])


class TestCollinearity:
    def test_duplicate_fixed_column_named(self):
        n = 32
        rng = np.random.default_rng(13)
        z = rng.normal(size=n)
        F = np.column_stack([np.ones(n), z, z])
        with pytest.raises(CollinearityError) as err:
            fit_pls(rng.normal(size=n), F, empty_basis(n), 0.0, ["intercept", "Z", "Zcopy"])
        assert "collinear" in str(err.value)
        assert {"Z", "Zcopy"} <= set(err.value.columns)

    def test_fixed_inside_basis_span_at_lambda_zero(self):
        grid = make_grid(8)
        b = fourier_basis(grid, 2)
        z = b.columns[:, 0] + 0.5 * b.columns[:, 3]
        F = np.column_stack([np.ones(grid.n), z])
        rng = np.random.default_rng(14)
        with pytest.raises(CollinearityError) as err:
            fit_pls(rng.normal(size=grid.n), F, b, 0.0, ["intercept", "Z"])
        assert "Z" in err.value.columns

    def test_positive_lambda_still_requires_full_rank_fixed(self):
        n = 16
        F = np.column_stack([np.ones(n), np.ones(n)])
        with pytest.raises(CollinearityError):
            fit_pls(np.arange(n, dtype=float), F, empty_basis(n), 2.0)

    def test_more_columns_than_rows(self):
        grid = make_grid(4)  # n=16
        b = fourier_basis(grid, 1)  # p=8
        F = np.column_stack([np.ones(16), np.linspace(0, 1, 16)] + [np.eye(16)[:, i] for i in range(7)])
        with pytest.raises(CollinearityError):
            fit_pls(np.ones(16), F, b, 0.0)
        wide = np.column_stack([np.eye(16), np.ones(16)])  # 17 fixed columns, no basis
        with pytest.raises(CollinearityError):
            fit_pls(np.ones(16), wide, empty_basis(16), 0.0)


class TestNonOrthogonalBasis:
    def test_rejected_by_every_entry_point(self):
        y, F, b = random_problem(21)
        obs = Observations(Z=F[:, 1], C=F[:, 2], Y=y, grid=make_grid(8))
        zeroed = b.columns.copy()
        zeroed[:, 0] = 0.0
        for bad in (
            replace(b, columns=b.columns + 0.1 * b.columns[:, :1]),
            replace(b, columns=zeroed),
        ):
            for call in (
                lambda: fit_pls(y, F, bad, 1.0),
                lambda: sweep_lambda(y, F, bad, [0.0, 1.0]),
                lambda: select_lambda_gcv(y, F, bad),
                lambda: fit_rsr(obs, bad),
            ):
                with pytest.raises(ValueError, match="orthogonal"):
                    call()


class TestProjectOut:
    def test_vector_in_span_goes_to_zero(self):
        rng = np.random.default_rng(15)
        M = rng.normal(size=(30, 3))
        v = M @ np.array([1.0, -2.0, 0.5])
        out = project_out(v, M)
        assert np.abs(out).max() < 1e-10 * np.abs(v).max()

    def test_orthogonal_vector_unchanged(self):
        rng = np.random.default_rng(16)
        M = rng.normal(size=(30, 3))
        v = rng.normal(size=30)
        v_perp = v - M @ np.linalg.lstsq(M, v, rcond=None)[0]
        out = project_out(v_perp, M)
        assert out == pytest.approx(v_perp, rel=1e-10, abs=1e-12)

    def test_projection_decomposition_identity(self):
        rng = np.random.default_rng(17)
        M = rng.normal(size=(40, 4))
        v = rng.normal(size=40)
        out = project_out(v, M)
        p_v = v - out
        assert p_v + out == pytest.approx(v, abs=1e-12)
        assert np.abs(M.T @ out).max() < 1e-10 * np.abs(M.T @ v).max()

    def test_matrix_argument(self):
        rng = np.random.default_rng(18)
        M = rng.normal(size=(25, 2))
        V = rng.normal(size=(25, 5))
        out = project_out(V, M)
        assert out.shape == V.shape
        assert np.abs(M.T @ out).max() < 1e-8

    def test_rank_deficient_target(self):
        M = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(CollinearityError):
            project_out(np.arange(10.0), M)
