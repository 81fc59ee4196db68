"""Penalized least-squares engine: solver, GCV selection, projections."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from spatialconfound import (
    CollinearityError,
    empty_basis,
    fit_pls,
    fourier_basis,
    generate_dataset,
    make_grid,
    project_out,
    scenario_config,
    select_lambda_gcv,
    sweep_lambda,
)
from spatialconfound.mc import SCENARIO_STRONG_EXPOSURE
from spatialconfound import pls
from spatialconfound.errors import _is_real
from spatialconfound.pls import (
    DEFAULT_LAMBDA_GRID,
    _label_weights,
    _shrinkage,
    basis_moments,
    select_moments,
    sweep_moments,
)
from support import fourier_columns, residuals


def penalized_objective(y, F, b, lam, alpha, gamma):
    resid = y - F @ alpha - fourier_columns(b) @ gamma
    return float(resid @ resid + lam * (gamma * b.freq.astype(float) ** 2) @ gamma)


def random_problem(seed, n=64, m=8, max_freq=3, noise=0.5):
    rng = np.random.default_rng(seed)
    grid = make_grid(m)
    b = fourier_basis(grid, max_freq)
    F = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    y = F @ rng.normal(size=3) + fourier_columns(b) @ rng.normal(size=b.p) * 0.3
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
        X = np.column_stack([F, fourier_columns(b)])
        pen = np.concatenate([np.zeros(q), lam * b.freq.astype(float) ** 2])
    A = X.T @ X
    A_pen = A + np.diag(pen)
    coef = np.linalg.solve(A_pen, X.T @ y)
    edf = float(np.trace(np.linalg.solve(A_pen, A)))
    resid = y - X @ coef
    rss = float(resid @ resid)
    cov_fixed = rss / (n - edf) * np.linalg.inv(A_pen)[:q, :q]
    return coef[:q], edf, n * rss / (n - edf) ** 2, cov_fixed


class TestToyInstance:
    """The 3 x 3 grid (n = 9), intercept plus the Fourier basis at label 1:
    the four pairs (0, 1), (1, -1), (1, 0), (1, 1), whose eight cos and sin
    columns have squared norm d0 = 4.5 and penalty 1; y = 1 + the (1, 0)
    cos column, lam = 4.5."""

    b = fourier_basis(make_grid(3), 1)
    cos, sin = fourier_columns(b)[:, 4:6].T  # the (1, 0) pair
    y = 1.0 + cos
    F = np.ones((9, 1))

    def test_hand_solved_solution(self):
        assert self.b.pairs.tolist() == [[0, 1], [1, -1], [1, 0], [1, 1]]
        fit = fit_pls(self.y, self.F, self.b, lam=4.5)
        # Normal equations: intercept 1; (1, 0) cos coefficient = shrinkage
        # 4.5/(4.5+4.5) = 1/2 applied to the unpenalized coefficient 1; the
        # other seven 0.  edf = 1 + 8 * 1/2.
        assert fit.fixed_coefs[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.basis_coefs == pytest.approx([0, 0, 0, 0, 0.5, 0, 0, 0], abs=1e-12)
        assert fit.edf == pytest.approx(5.0, abs=1e-12)
        # Residuals cos / 2: RSS = 4.5 / 4 = 9/8, penalized objective 9/4.
        resid = residuals(self.y, self.F, self.b, fit)
        assert float(resid @ resid) == pytest.approx(9 / 8, abs=1e-12)
        obj = penalized_objective(self.y, self.F, self.b, 4.5, fit.fixed_coefs, fit.basis_coefs)
        assert obj == pytest.approx(9 / 4, abs=1e-12)

    def test_brute_force_grid_minimization(self):
        # Scan a fine grid around the reported solution in the intercept and
        # the (1, 0) pair; nothing beats it.  The other six columns are
        # orthogonal to y and to these, so they stay at 0.
        fit = fit_pls(self.y, self.F, self.b, lam=4.5)
        best = penalized_objective(
            self.y, self.F, self.b, 4.5, fit.fixed_coefs, fit.basis_coefs
        )
        axes = (np.linspace(0.0, 2.0, 81), np.linspace(-0.5, 1.5, 81), np.linspace(-1.0, 1.0, 81))
        a, gc, gs = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        resid = self.y - a[:, None] - gc[:, None] * self.cos - gs[:, None] * self.sin
        values = (resid * resid).sum(axis=1) + 4.5 * (gc * gc + gs * gs)
        assert values.min() >= best - 1e-9
        argbest = int(np.argmin(values))
        assert a[argbest] == pytest.approx(1.0, abs=0.026)
        assert gc[argbest] == pytest.approx(0.5, abs=0.026)
        assert gs[argbest] == pytest.approx(0.0, abs=0.026)


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
        X = np.column_stack([F, fourier_columns(b)])
        ref = np.linalg.solve(X.T @ X, X.T @ y)
        joint = np.concatenate([fit.fixed_coefs, fit.basis_coefs])
        assert joint == pytest.approx(ref, rel=1e-8)
        assert fit.edf == pytest.approx(X.shape[1])

    def test_residuals_are_response_minus_fitted(self):
        # The solver's RSS, formed from moments, is that of y - (F a + B g).
        y, F, b = random_problem(2)
        for lam in (0.0, 3.7, math.inf):
            fit = fit_pls(y, F, b, lam)
            resid = residuals(y, F, b, fit)
            rss = sweep_lambda(y, F, b, lam).rss[0]
            assert rss == pytest.approx(float(resid @ resid), rel=1e-10)

    def test_negative_lambda_rejected(self):
        y, F, b = random_problem(3)
        with pytest.raises(ValueError):
            fit_pls(y, F, b, -1.0)


class TestMonotonicityAndGradient:
    lambdas = [0.0, 1e-3, 1e-1, 1.0, 10.0, 1e3, 1e5]

    def test_rss_nondecreasing_edf_nonincreasing(self):
        y, F, b = random_problem(4)
        fits = [fit_pls(y, F, b, lam) for lam in self.lambdas]
        rss = [float(r @ r) for r in (residuals(y, F, b, f) for f in fits)]
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
        expected = ols.basis_coefs * d / (d + lam * b.freq.astype(float) ** 2)
        assert fit.basis_coefs == pytest.approx(expected, rel=1e-8)


class TestSweep:
    def test_matches_fit_pls_pointwise(self):
        y, F, b = random_problem(7)
        lams = [0.0, 1e-2, 1.0, 50.0, 1e4, math.inf]
        sweep = sweep_lambda(y, F, b, lams)
        for i, lam in enumerate(lams):
            fit = fit_pls(y, F, b, lam)
            # The fit's RSS is summed here over its n residuals, the sweep's is not.
            resid = residuals(y, F, b, fit)
            assert sweep.rss[i] == pytest.approx(float(resid @ resid), rel=1e-8, abs=1e-10)
            assert (sweep.edf[i], sweep.gcv[i], sweep.aic[i]) == (fit.edf, fit.gcv, fit.aic)
            assert np.array_equal(sweep.fixed_coefs[i], fit.fixed_coefs)

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


class TestGridIsPointwise:
    """A grid is solved in one batch; each row is the one-point fit, bit for bit."""

    @pytest.fixture(scope="class")
    def problem(self):
        obs = generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 3).observations()
        F = np.column_stack([np.ones(obs.grid.n), obs.Z, obs.C])
        return obs.Y, F, fourier_basis(obs.grid, 10)

    def test_default_grid_sweep_rows(self, problem):
        y, F, b = problem
        sweep = sweep_lambda(y, F, b, DEFAULT_LAMBDA_GRID)
        # None is the default grid in a sweep too, bit for bit.
        m = basis_moments(np.column_stack([F, y]), b)
        for default in (sweep_lambda(y, F, b, None), sweep_moments(m, None)):
            for field in SWEEP_FIELDS:
                assert getattr(default, field).tobytes() == getattr(sweep, field).tobytes()
        # A sweep keeps no basis coefficients; a fit's are (B'y - B'F a) / D.
        WX = m.WX
        inv_D = _shrinkage(b, _label_weights(b, DEFAULT_LAMBDA_GRID))[3]
        for i, lam in enumerate(DEFAULT_LAMBDA_GRID):
            fit = fit_pls(y, F, b, lam)
            assert (sweep.edf[i], sweep.gcv[i], sweep.aic[i]) == (fit.edf, fit.gcv, fit.aic)
            assert np.array_equal(sweep.fixed_coefs[i], fit.fixed_coefs)
            gap = WX[:, -1] - (WX[:, :-1] @ sweep.fixed_coefs[i][:, None])[:, 0]
            assert np.array_equal(inv_D[i] * gap, fit.basis_coefs)
            one = sweep_lambda(y, F, b, lam)
            assert (sweep.sigma2[i], sweep.V[i].tobytes()) == (one.sigma2[0], one.V[0].tobytes())
            s_inv = sweep.V[i] @ sweep.V[i].T
            assert np.array_equal(sweep.sigma2[i] * 0.5 * (s_inv + s_inv.T), fit.cov_fixed)

    def test_default_grid_choice_is_the_one_point_fit(self, problem):
        y, F, b = problem
        sel = select_lambda_gcv(y, F, b)
        ref = fit_pls(y, F, b, sel.lam)
        assert 0.0 < sel.lam < DEFAULT_LAMBDA_GRID[-1]
        for field in ("fixed_coefs", "basis_coefs", "cov_fixed", "edf", "gcv", "aic"):
            assert np.array_equal(getattr(sel, field), getattr(ref, field)), field


SWEEP_FIELDS = ("lambdas", "rss", "edf", "gcv", "aic", "fixed_coefs", "sigma2", "V")


@pytest.mark.parametrize("reverse", [False, True], ids=["small-first", "default-first"])
def test_kept_shrinkage_weights_give_the_fresh_sweeps(reverse, monkeypatch):
    # The lambda-grid weights are kept per (grid size, max_freq, grid), not
    # per basis; sweeps that reuse them equal, bit for bit, those worked out
    # with none kept.
    obs = generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 4).observations()
    X = np.column_stack([np.ones(obs.grid.n), obs.Z, obs.C, obs.Y])
    b = fourier_basis(obs.grid, 10)
    grids = [[3.0], [math.inf, 0.0], list(DEFAULT_LAMBDA_GRID)]
    pls._kept_shrinkage.cache_clear()
    for lams in grids[::-1] if reverse else grids:
        for _ in range(2):
            kept = sweep_moments(basis_moments(X, b), lams)
            with monkeypatch.context() as none_kept:
                none_kept.setattr(pls, "_kept_shrinkage", pls._kept_shrinkage.__wrapped__)
                fresh = sweep_moments(basis_moments(X, b), lams)
            for field in SWEEP_FIELDS:
                assert getattr(kept, field).tobytes() == getattr(fresh, field).tobytes(), field
    assert pls._kept_shrinkage.cache_info().currsize == len(grids)
    weights = _label_weights(b, [3.0])
    rows = _shrinkage(b, weights)
    assert len(rows) == 4 and not any(a.flags.writeable for a in rows)
    # The basis itself, a copy of it, or another one built alike: one entry.
    for other in (b, replace(b), fourier_basis(make_grid(obs.grid.m), 10)):
        assert _shrinkage(other, weights) is rows
    # Another max_freq is another entry.
    lower = fourier_basis(obs.grid, 9)
    assert _shrinkage(lower, _label_weights(lower, [3.0])) is not rows


def test_kept_shrinkage_stays_at_its_bound():
    # Fits on 50 distinct grids keep the rows of the last 8 of them, each
    # equal, bit for bit, to a fresh computation.
    pls._kept_shrinkage.cache_clear()
    y, F, b = random_problem(5)
    m = basis_moments(np.column_stack([F, y]), b)
    grids = [[0.0, 0.1 * (k + 1), 10.0 + k] for k in range(50)]
    for grid in grids:
        select_moments(m, grid)
    info = pls._kept_shrinkage.cache_info()
    assert info.currsize == info.maxsize == 8 and info.misses == 50
    for grid in grids[-8:]:
        weights = _label_weights(b, grid)
        kept = _shrinkage(b, weights)
        fresh = pls._kept_shrinkage.__wrapped__(b.grid.m, b.max_freq, weights.shape, weights.tobytes())
        assert kept is not fresh
        assert [a.tobytes() for a in kept] == [a.tobytes() for a in fresh]
    assert pls._kept_shrinkage.cache_info().misses == 50


def test_kept_shrinkage_shared_by_threads():
    # Threads share the memo, as run_mc's workers do: each gets the rows of
    # a fresh computation, and the memo stays at its bound.
    pls._kept_shrinkage.cache_clear()
    b = fourier_basis(make_grid(8), 3)
    grids = [[0.0, 0.5 * (k + 1)] for k in range(20)] * 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda g: _shrinkage(b, _label_weights(b, g)), grids, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for grid, rows in zip(grids, got):
        w = _label_weights(b, grid)
        fresh = pls._kept_shrinkage.__wrapped__(b.grid.m, b.max_freq, w.shape, w.tobytes())
        assert [a.tobytes() for a in rows] == [a.tobytes() for a in fresh]
    assert pls._kept_shrinkage.cache_info().currsize == 8


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
    @pytest.mark.parametrize(
        "lam", [0.0, 3.7, math.inf, 2, pytest.param(np.float64(3.7), id="float64")]
    )
    def test_singleton_grid(self, lam):
        # A fixed lambda, given alone or as a list, is the one-point grid:
        # the same fit, bit for bit.
        y, F, b = random_problem(9)
        ref = fit_pls(y, F, b, lam)
        assert ref.lam == lam
        for sel in (select_lambda_gcv(y, F, b, [lam]), select_lambda_gcv(y, F, b, lam)):
            for name, value in vars(ref).items():
                assert np.array_equal(getattr(sel, name), value), name

    def test_noiseless_response_in_span_interpolated(self):
        y, F, b = random_problem(10, noise=0.0)
        sel = select_lambda_gcv(y, F, b)
        resid = residuals(y, F, b, sel)
        assert float(resid @ resid) < 1e-18 * float(y @ y)

    def test_argmin_contract_against_independent_refits(self):
        y, F, b = random_problem(11)
        grid = [0.0, 1e-2, 1.0, 30.0, 1e3]
        sel = select_lambda_gcv(y, F, b, grid)
        for lam in grid:
            ref = fit_pls(y, F, b, lam)
            assert sel.gcv <= ref.gcv * (1 + 1e-9)

    @pytest.mark.parametrize(
        "grid, match",
        [([], "nonempty"), ([1.0, 1.0], "distinct"), ([-1.0, 2.0], "nonnegative")],
        ids=["empty", "repeated", "negative"],
    )
    def test_bad_grids_rejected(self, grid, match):
        # A sweep reads its grid by the rule a selection does.
        y, F, b = random_problem(12)
        for call in (select_lambda_gcv, sweep_lambda):
            with pytest.raises(ValueError, match=match):
                call(y, F, b, grid)

    def test_default_grid_checked_once_explicit_grids_per_call(self, monkeypatch):
        # The default grid is checked at import; an explicit one once per call.
        y, F, b = random_problem(12)
        m = basis_moments(np.column_stack([F, y]), b)
        calls = []

        def counted(value):
            calls.append(value)
            return _is_real(value)

        monkeypatch.setattr("spatialconfound.pls._is_real", counted)
        select_moments(m)
        select_lambda_gcv(y, F, b)
        sweep_moments(m, None)
        assert calls == []
        select_lambda_gcv(y, F, b, [0.0, 1.0])
        assert calls == [[0.0, 1.0], 0.0, 1.0]  # is it one number?, then each value
        for grid in ([], [1.0, 1.0], [-1.0, 2.0], "12"):
            with pytest.raises(ValueError):
                select_moments(m, grid)

    def test_basis_of_another_grid_rejected(self):
        y, F, _ = random_problem(12)  # n = 64
        with pytest.raises(ValueError, match="basis rows do not match the response length"):
            select_lambda_gcv(y, F, fourier_basis(make_grid(6), 2))

    @pytest.mark.parametrize(
        "grid",
        ["12", True, np.True_, [True, 2.0], [0.0, "1"]],
        ids=["str", "bool", "np-bool", "bool-in-grid", "str-in-grid"],
    )
    def test_strings_and_bools_rejected(self, grid):
        # Neither is read as a number: "12" is not the grid [1.0, 2.0].
        y, F, b = random_problem(12)
        for call in (select_lambda_gcv, sweep_lambda):
            with pytest.raises(ValueError, match="real numbers"):
                call(y, F, b, grid)


class TestCollinearity:
    def test_duplicate_fixed_column_named(self):
        grid = make_grid(6)
        rng = np.random.default_rng(13)
        z = rng.normal(size=grid.n)
        F = np.column_stack([np.ones(grid.n), z, z])
        with pytest.raises(CollinearityError) as err:
            fit_pls(rng.normal(size=grid.n), F, empty_basis(grid), 0.0, ["intercept", "Z", "Zcopy"])
        assert "collinear" in str(err.value)
        assert {"Z", "Zcopy"} <= set(err.value.columns)

    def test_fixed_inside_basis_span_at_lambda_zero(self):
        grid = make_grid(8)
        b = fourier_basis(grid, 2)
        columns = fourier_columns(b)
        z = columns[:, 0] + 0.5 * columns[:, 3]
        F = np.column_stack([np.ones(grid.n), z])
        rng = np.random.default_rng(14)
        with pytest.raises(CollinearityError) as err:
            fit_pls(rng.normal(size=grid.n), F, b, 0.0, ["intercept", "Z"])
        # The joint null vector names the fixed and the basis columns it loads on.
        assert err.value.columns == ("Z", "cos(k=(0,1))", "sin(k=(1,-1))")

    @pytest.mark.parametrize(
        "grid, what",
        [
            ([0.0], "joint design at lambda=0"),
            ([0.0, 1.0], "fixed design"),
            ([1.0], "fixed design"),
        ],
    )
    def test_fixed_rank_checked_before_joint(self, grid, what):
        # A collinear F is reported as such whenever the grid has a positive
        # lambda, even next to lambda = 0; only at lambda = 0 alone is it joint.
        b = fourier_basis(make_grid(8), 2)
        rng = np.random.default_rng(22)
        z = rng.normal(size=64)
        F = np.column_stack([np.ones(64), z, z])
        for call in (sweep_lambda, select_lambda_gcv):
            with pytest.raises(CollinearityError) as err:
                call(rng.normal(size=64), F, b, grid, ["intercept", "Z", "Zcopy"])
            assert str(err.value).startswith(f"{what} is numerically collinear")
            assert err.value.columns == ("Z", "Zcopy")

    def test_fixed_in_basis_span_is_joint_at_lambda_zero(self):
        b = fourier_basis(make_grid(8), 2)
        columns = fourier_columns(b)
        F = np.column_stack([np.ones(64), columns[:, 0] + 0.5 * columns[:, 3]])
        y = np.random.default_rng(23).normal(size=64)
        for call in (sweep_lambda, select_lambda_gcv):
            with pytest.raises(CollinearityError) as err:
                call(y, F, b, [0.0, 1.0], ["intercept", "Z"])
            assert str(err.value).startswith("joint design at lambda=0 is numerically collinear")
            assert "Z" in err.value.columns
        assert sweep_lambda(y, F, b, [1.0]).edf[0] > 2.0

    def test_positive_lambda_still_requires_full_rank_fixed(self):
        grid = make_grid(4)
        F = np.column_stack([np.ones(grid.n), np.ones(grid.n)])
        with pytest.raises(CollinearityError):
            fit_pls(np.arange(grid.n, dtype=float), F, empty_basis(grid), 2.0)

    def test_more_columns_than_rows(self):
        grid = make_grid(4)  # n=16
        b = fourier_basis(grid, 1)  # p=8
        F = np.column_stack([np.ones(16), np.linspace(0, 1, 16)] + [np.eye(16)[:, i] for i in range(7)])
        with pytest.raises(CollinearityError):
            fit_pls(np.ones(16), F, b, 0.0)
        wide = np.column_stack([np.eye(16), np.ones(16)])  # 17 fixed columns, no basis
        with pytest.raises(CollinearityError):
            fit_pls(np.ones(16), wide, empty_basis(grid), 0.0)


class TestExactFit:
    """q = n and p = 0: the fixed design spans every response."""

    def test_nothing_outside_the_fixed_span(self):
        # The R factor of [F y] has no row below the F block, so the part of
        # y outside col(F) is exactly zero, not an n-row round-off sum.
        rng = np.random.default_rng(3)
        y, F = rng.normal(size=9), rng.normal(size=(9, 9))
        m = basis_moments(np.column_stack([F, y]), empty_basis(make_grid(3)))
        assert m.R.shape == (9, 10) and m.R[9:, 9] @ m.R[9:, 9] == 0.0
        sweep = sweep_lambda(y, F, m.basis, [0.0])
        assert sweep.edf[0] == 9
        assert sweep.sigma2[0] == math.inf and sweep.gcv[0] == math.inf
        assert sweep.rss[0] < 1e-24 * (y @ y)

    def test_infinite_sigma2_times_zero_is_zero(self):
        # sigma2 = inf scales S^-1 into cov_fixed; its exact zeros stay 0,
        # not NaN with a RuntimeWarning.
        fit = fit_pls(np.arange(1.0, 5.0), 2.0 * np.eye(4), empty_basis(make_grid(2)), 0.0)
        assert np.array_equal(fit.cov_fixed, np.where(np.eye(4) > 0, math.inf, 0.0))

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_interpolation_exact_in_floating_point(self, scale):
        # A solve with no round-off leaves RSS = 0: sigma2 and GCV are inf
        # and AIC is -inf, with no RuntimeWarning.
        y = np.arange(1.0, 5.0)
        sweep = sweep_lambda(y, scale * np.eye(4)[::-1], empty_basis(make_grid(2)), [0.0])
        assert sweep.rss[0] == 0.0
        assert (sweep.sigma2[0], sweep.gcv[0], sweep.aic[0]) == (math.inf, math.inf, -math.inf)
        assert np.array_equal(sweep.fixed_coefs[0], y[::-1] / scale)


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
