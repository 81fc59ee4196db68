"""Fourier tensor basis: counts, orthogonality, cutoffs, penalties."""

import math
from dataclasses import fields

import numpy as np
import pytest

from spatialconfound import (
    BasisSet,
    Observations,
    SpectralSpec,
    empty_basis,
    fit_spatial_plus_lowfreq,
    fourier_basis,
    generate_dataset,
    make_grid,
    sample_grf,
    scenario_config,
)
from spatialconfound.mc import SCENARIO_STRONG_EXPOSURE
from spatialconfound.pls import _label_weights, _shrinkage, basis_moments, select_moments
from support import fourier_columns


def brute_force_column_count(max_freq):
    """Count separable tensor combinations with 1 <= max-norm <= max_freq.

    Enumerates cos/sin products per nonnegative frequency pair, dropping
    sin factors at zero frequency (identically zero).  This family spans
    the same space as the directional cos/sin pairs the basis uses, so the
    counts must agree.
    """
    count = 0
    for k1 in range(0, max_freq + 1):
        for k2 in range(0, max_freq + 1):
            if not 1 <= max(k1, k2) <= max_freq:
                continue
            for use_sin_x in (False, True):
                for use_sin_y in (False, True):
                    if (use_sin_x and k1 == 0) or (use_sin_y and k2 == 0):
                        continue
                    count += 1
    return count


class TestFourierBasis:
    def test_count_max_freq_1(self):
        b = fourier_basis(make_grid(8), 1)
        assert b.p == 8
        assert np.all(b.freq == 1)
        assert brute_force_column_count(1) == 8

    @pytest.mark.parametrize("max_freq", [1, 2, 3, 5])
    def test_count_matches_brute_force(self, max_freq):
        b = fourier_basis(make_grid(16), max_freq)
        assert b.p == brute_force_column_count(max_freq)

    @pytest.mark.parametrize("m,max_freq", [(8, 3), (16, 5), (17, 8), (32, 10)])
    def test_gram_diagonal_on_regular_grid(self, m, max_freq):
        grid = make_grid(m)
        b = fourier_basis(grid, max_freq)
        columns = fourier_columns(b)
        gram = columns.T @ columns
        diag = np.diag(gram)
        off = gram - np.diag(diag)
        assert np.abs(off).max() < 1e-10 * diag.max()
        # Columns carry squared norm n/2 and are orthogonal to the constant.
        assert diag == pytest.approx(np.full(b.p, grid.n / 2), rel=1e-10)
        assert np.abs(columns.sum(axis=0)).max() < 1e-8

    def test_aliasing_guard(self):
        grid = make_grid(16)
        with pytest.raises(ValueError):
            fourier_basis(grid, 8)  # m/2 aliases
        with pytest.raises(ValueError):
            fourier_basis(grid, 0)
        fourier_basis(grid, 7)

    def test_penalty_default_quadratic(self):
        # lam = 1 weighs each column by its label squared.
        b = fourier_basis(make_grid(16), 4)
        w = _label_weights(b, [1.0])[0, b.freq - 1]
        assert np.array_equal(w, b.freq.astype(float) ** 2)

    def test_penalty_monotone_in_frequency(self):
        b = fourier_basis(make_grid(32), 9)
        order = np.argsort(b.freq, kind="stable")
        assert np.all(np.diff(_label_weights(b, [1.0])[0, b.freq[order] - 1]) >= 0)

    def test_span_contains_band_limited_fields(self):
        grid = make_grid(32)
        b = fourier_basis(grid, 8)
        f = sample_grf(grid, SpectralSpec(1, 8, 0.3, 1.0), seed=21)
        # Least-squares residual of the field on [1 | columns].
        X = np.column_stack([np.ones(grid.n), fourier_columns(b)])
        resid = f - X @ np.linalg.lstsq(X, f, rcond=None)[0]
        assert np.linalg.norm(resid) < 1e-9 * np.linalg.norm(f)


LAMS = [0.0, 0.3, 2.0, math.inf]


class TestRestrictLowFrequency:
    """A cutoff is a row of label weights: +inf on the labels above it."""

    def test_identity_restriction(self):
        # A cutoff at the largest label drops nothing: the rows lam * f**2.
        b = fourier_basis(make_grid(16), 5)
        w = _label_weights(b, LAMS, 5)
        assert w.tobytes() == _label_weights(b, LAMS).tobytes()
        f2 = b.freq.astype(float) ** 2
        assert np.array_equal(w[1:3, b.freq - 1], np.array(LAMS[1:3])[:, None] * f2)

    def test_cutoff_filters_labels(self):
        b = fourier_basis(make_grid(16), 5)
        r = fourier_basis(b.grid, 2)
        assert r.p == brute_force_column_count(2)
        rho, delta, root, inv_D = _shrinkage(b, _label_weights(b, LAMS, 2))
        keep = b.freq <= 2
        assert keep.sum() == r.p
        # The dropped columns are shrunk all the way (1/D = 0, delta = 1/d0);
        # the kept ones keep their labels, and so their shrinkage, bit for bit.
        assert np.all(rho[:, ~keep] == 1.0) and np.all(inv_D[:, ~keep] == 0.0)
        assert np.array_equal(delta[:, ~keep], np.broadcast_to(1.0 / b.d0[~keep], (5, b.p - r.p)))
        for got, want in zip((rho, delta, root, inv_D), _shrinkage(r, _label_weights(r, LAMS))):
            assert got[:, keep].tobytes() == want.tobytes()

    @pytest.mark.parametrize("cutoff", [0, 6, -1])
    def test_cutoff_out_of_range(self, cutoff):
        grid = make_grid(16)
        b = fourier_basis(grid, 5)
        rng = np.random.default_rng(0)
        obs = Observations(*rng.normal(size=(3, grid.n)), grid=grid)
        with pytest.raises(ValueError, match=rf"^cutoff must be in \[1, 5\], got {cutoff}$"):
            fit_spatial_plus_lowfreq(obs.moments(b), cutoff)

    def test_high_band_field_orthogonal_to_low_basis(self):
        grid = make_grid(32)
        b = fourier_basis(grid, 2)
        f = sample_grf(grid, SpectralSpec(4, 5, 0.0, 1.0), seed=33)
        columns = fourier_columns(b)
        proj = columns @ np.linalg.lstsq(columns, f, rcond=None)[0]
        assert np.linalg.norm(proj) < 1e-10 * np.linalg.norm(f)

    @pytest.mark.parametrize("low,high", [((1, 2), (3, 5)), ((1, 3), (4, 7)), ((2, 2), (5, 7))])
    def test_disjoint_bands_are_orthogonal(self, low, high):
        grid = make_grid(16)
        f_low = sample_grf(grid, SpectralSpec(*low, 0.0, 1.0), seed=1)
        f_high = sample_grf(grid, SpectralSpec(*high, 0.0, 1.0), seed=2)
        inner = abs(float(f_low @ f_high))
        scale = np.linalg.norm(f_low) * np.linalg.norm(f_high)
        assert inner < 1e-10 * scale


@pytest.mark.parametrize("cutoff", [None, 1, 3])
def test_d0_is_the_gram_diagonal(cutoff):
    b = fourier_basis(make_grid(16), 5 if cutoff is None else cutoff)
    assert np.array_equal(b.d0, np.diag(b.gram()))
    assert not b.d0.flags.writeable


def brute_force_labels(b):
    """Each column's max-norm label, its f**2 penalty and the largest
    label, from the pairs one at a time."""
    freq = [max(abs(int(k1)), abs(int(k2))) for k1, k2 in b.pairs for _ in ("cos", "sin")]
    return freq, [float(f * f) for f in freq], max(freq, default=0)


def _built_bases():
    """Name -> (basis, the max_freq it was built to): Fourier bases up to
    labels 1, 2 and the largest each grid allows, and the p = 0 basis."""
    for m, top in [(8, 3), (16, 5), (32, 10)]:
        for max_freq in (top, 1, 2):
            yield f"fourier-{m}-{max_freq}", (fourier_basis(make_grid(m), max_freq), max_freq)
    yield "empty", (empty_basis(make_grid(8)), 0)


BUILT = dict(_built_bases())


@pytest.mark.parametrize("name", list(BUILT))
def test_labels_penalty_and_max_freq_follow_from_the_pairs(name):
    b, built_to = BUILT[name]
    freq, penalty, max_freq = brute_force_labels(b)
    assert b.freq.tolist() == freq
    assert _label_weights(b, [1.0])[0, b.freq - 1].tolist() == penalty
    assert type(b.max_freq) is int and b.max_freq == max_freq == built_to


def test_basis_has_two_init_fields():
    assert [f.name for f in fields(BasisSet) if f.init] == ["grid", "max_freq"]


@pytest.mark.parametrize("m", [5, 8, 12, 32, 128])
def test_a_restriction_is_the_leading_block_of_the_basis(m):
    # The basis up to a cutoff is the leading block of the columns, and so
    # are the columns a lam = 0 cutoff row keeps unpenalized.
    grid = make_grid(m)
    b = fourier_basis(grid, (m - 1) // 2)
    for f in range(1, b.max_freq + 1):
        assert np.flatnonzero(b.freq == f).tolist() == list(range(4 * f * (f - 1), 4 * f * (f + 1)))
    for cutoff in range(1, b.max_freq + 1):
        r = fourier_basis(grid, cutoff)
        assert r.max_freq == cutoff and r.p == 4 * cutoff * (cutoff + 1)
        assert np.array_equal(r.pairs, b.pairs[: r.p // 2])
        assert np.array_equal(r.freq, b.freq[: r.p])
        rho = _shrinkage(b, _label_weights(b, [0.0], cutoff))[0][0]
        assert np.flatnonzero(rho == 0.0).tolist() == list(range(r.p))


@pytest.mark.parametrize("cutoff", [1, 2, 5])
def test_restricted_moments_are_those_on_the_restricted_basis(cutoff):
    # The moments on the full basis with a cutoff row fit what the moments
    # on the basis that stops at the cutoff fit.
    grid = make_grid(16)
    b = fourier_basis(grid, 5)
    X = np.random.default_rng(cutoff).normal(size=(grid.n, 3))
    r = fourier_basis(grid, cutoff)
    for grid_lams in ([0.0], [0.0, 0.1, 10.0]):
        got = select_moments(basis_moments(X, b), grid_lams, cutoff=cutoff)
        want = select_moments(basis_moments(X, r), grid_lams)
        assert got.lam == want.lam
        for field in ("fixed_coefs", "cov_fixed", "edf", "gcv", "aic"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12), field
        assert got.basis_coefs[: r.p] == pytest.approx(want.basis_coefs, rel=1e-12, abs=1e-15)
        assert not got.basis_coefs[r.p :].any()


@pytest.mark.parametrize("name", ["fourier-16-5", "fourier-16-2", "empty"])
@pytest.mark.parametrize("attr", ["pairs", "freq", "d0"])
def test_basis_arrays_are_read_only(name, attr):
    # A write would leave the weights ``pls`` keeps for the basis stale.
    a = getattr(BUILT[name][0], attr)
    assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0


class TestEmptyBasis:
    """The p = 0 basis: the basis on the grid at ``max_freq`` 0, with no
    frequency pairs."""

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_shape(self, m):
        b = empty_basis(make_grid(m))
        assert b.p == 0 and b.n == m * m and b.pairs.shape == (0, 2) and b.max_freq == 0
        assert b.gram().shape == (0, 0) and b.d0.shape == (0,)
        assert b.analyze(np.ones((b.n, 3))).shape == (0, 3)
        assert np.array_equal(b.synthesize(np.zeros((0, 2))), np.zeros((b.n, 2)))

    def test_moments_are_the_qr_of_x(self):
        grid = make_grid(6)
        X = np.random.default_rng(5).normal(size=(grid.n, 4))
        m = basis_moments(X, empty_basis(grid))
        assert m.WX.shape == (0, 4)
        assert m.R.tobytes() == np.linalg.qr(X, mode="r").tobytes()

    def test_basis_on_another_grid_refused(self):
        X = np.ones((36, 2))
        with pytest.raises(ValueError, match="basis rows do not match the response length"):
            basis_moments(X, empty_basis(make_grid(5)))

    def test_observations_without_a_basis_use_their_grid(self):
        obs = generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 1).observations()
        m = obs.moments(None)
        assert m.basis.grid is obs.grid and m.basis.p == 0
        assert m.without_basis(np.eye(4)).basis.grid is obs.grid
