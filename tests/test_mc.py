"""Monte Carlo harness: determinism, accounting, summaries, experiments."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spatialconfound.mc
from spatialconfound import (
    CollinearityError,
    EstimandUndefinedError,
    EstimatorKind,
    EstimatorSpec,
    IidSpec,
    MCPlan,
    ScenarioConfig,
    SpectralSpec,
    aic_bias_experiment,
    aic_table_to_csv,
    compute_estimands,
    default_aic_plan,
    default_scenario_plan,
    run_mc,
    scenario_config,
    scenario_experiment,
    summary_to_csv,
)
from spatialconfound.mc import SCENARIO_STRONG_EXPOSURE, SCENARIO_STRONG_OUTCOME, TARGET_NAMES


def small_config(**overrides):
    defaults = dict(
        beta=(0.0, 2.0, 1.0, 0.5, 0.5, 0.0),
        loadings=(0.7, 0.5, 0.3),
        nu_sd=1.0,
        sigma=0.5,
        spec_S1=SpectralSpec(1, 2, 0.0, 1.0),
        spec_S2=SpectralSpec(3, 5, 0.0, 1.0),
        spec_C=IidSpec(1.0),
        e_sd=0.4,
        u_sd=0.0,
        m=12,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def small_plan(r=6, seed=11, estimators=None, **config_overrides):
    if estimators is None:
        estimators = (
            EstimatorSpec(kind=EstimatorKind.NONSPATIAL_OLS),
            EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=4),
        )
    return MCPlan(
        config=small_config(**config_overrides),
        estimators=tuple(estimators),
        R=r,
        master_seed=seed,
    )


class TestPlanValidation:
    def test_targets_auto_computed(self):
        plan = small_plan()
        assert plan.targets is not None
        assert plan.targets.beta_structural == 2.0

    def test_r_below_one(self):
        with pytest.raises(ValueError):
            small_plan(r=0)

    @pytest.mark.parametrize("r", [True, 2.5])
    def test_r_not_an_integer(self, r):
        with pytest.raises(ValueError, match="replication count R must be an integer"):
            small_plan(r=r)

    @pytest.mark.parametrize("seed", [True, 2.5, "11"], ids=["bool", "float", "str"])
    def test_master_seed_not_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"^master_seed must be an integer, got {seed!r}$"):
            small_plan(seed=seed)

    def test_master_seed_any_integer_stored_as_int(self):
        plan = small_plan(seed=np.int64(-3))
        assert type(plan.master_seed) is int and plan.master_seed == -3
        assert run_mc(plan).to_dict() == run_mc(small_plan(seed=-3)).to_dict()

    @pytest.mark.parametrize("max_freq", [2.5, True, "4", 0])
    def test_max_freq_checked_when_built(self, max_freq):
        # Its upper bound needs the grid; an integer of at least 1 does not.
        with pytest.raises(ValueError, match="^max_freq must be"):
            EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=max_freq)

    @pytest.mark.parametrize("kind", [EstimatorKind.SPATIAL, EstimatorKind.SPATIAL_PLUS_LOWFREQ])
    def test_max_freq_beyond_the_grid_refused_when_built(self, kind):
        # m = 12 holds labels up to 5, as fourier_basis says.
        spec = EstimatorSpec(kind=kind, max_freq=6, cutoff=2)
        msg = r"^max_freq for an m=12 grid must be in \[1, 5\], got 6$"
        with pytest.raises(ValueError, match=msg):
            small_plan(estimators=(spec,))
        assert small_plan(estimators=(replace(spec, max_freq=5),)).estimators[0].max_freq == 5

    def test_duplicate_labels(self):
        specs = (
            EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=3),
            EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=4),
        )
        with pytest.raises(ValueError, match="unique"):
            small_plan(estimators=specs)

    @pytest.mark.parametrize(
        "settings, match",
        [
            ({"kind": EstimatorKind.SPATIAL, "max_freq": None}, "max_freq"),
            ({"kind": EstimatorKind.SPATIAL_PLUS_LOWFREQ}, "cutoff"),
            ({"kind": EstimatorKind.SPATIAL_PLUS_LOWFREQ, "cutoff": 0}, "cutoff"),
            ({"kind": EstimatorKind.SPATIAL_PLUS_LOWFREQ, "cutoff": 5}, "cutoff"),
            ({"kind": EstimatorKind.SPATIAL, "smoothing": [0.0, 1.0, 1.0]}, "distinct"),
            ({"kind": EstimatorKind.SPATIAL, "smoothing": "12"}, "real numbers"),
        ],
        ids=["no-max-freq", "no-cutoff", "cutoff-0", "cutoff-above-max-freq",
             "repeated-grid", "string-smoothing"],
    )
    def test_bad_settings_rejected_before_any_dataset(self, monkeypatch, settings, match):
        def no_draws(*args, **kwargs):
            raise AssertionError("a dataset was drawn")

        monkeypatch.setattr(spatialconfound.mc, "generate_dataset", no_draws)
        with pytest.raises(ValueError, match=match):
            run_mc(small_plan(estimators=(EstimatorSpec(**{"max_freq": 4, **settings}),)))

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda: EstimatorSpec(kind="spatial", max_freq=4), "'spatial'"),
            (lambda: EstimatorSpec(kind="nonspatial"), "'nonspatial'"),
            (lambda: small_plan(estimators=("spatial",)), "'spatial'"),
        ],
        ids=["spec-kind-name", "spec-kind-name-no-basis", "plan-entry-name"],
    )
    def test_kind_names_refused(self, build, value):
        # A kind's name is not the kind: it is a ValueError naming the value,
        # not an AttributeError while checking or formatting.
        with pytest.raises(ValueError, match=f"got {value}$"):
            build()

    @pytest.mark.parametrize(
        "smoothing, stored",
        [
            ((3, 1.5), (3.0, 1.5)),
            ([3, 1.5], (3.0, 1.5)),
            (np.array([3.0, 1.5]), (3.0, 1.5)),
            ((v for v in (3, 1.5)), (3.0, 1.5)),
            (np.int64(2), 2.0),
            (None, None),
        ],
        ids=["tuple", "list", "array", "generator", "real", "none"],
    )
    def test_settings_stored_parsed(self, smoothing, stored):
        # A grid is stored as a tuple of floats in the order given, one real
        # number as a float: specs of the same values hash and compare alike.
        def spec(value):
            return EstimatorSpec(
                kind=EstimatorKind.SPATIAL_PLUS_LOWFREQ, max_freq=4, smoothing=value, cutoff=2
            )

        got = spec(smoothing)
        assert (got.max_freq, got.smoothing, got.cutoff) == (4, stored, 2)
        assert type(got.smoothing) is type(stored)
        if isinstance(stored, tuple):
            assert all(type(v) is float for v in got.smoothing)
        assert got == spec(stored) and hash(got) == hash(spec(stored))

    def test_replaced_config_recomputes_targets(self):
        plan = default_scenario_plan(SCENARIO_STRONG_EXPOSURE, r=2)
        other = scenario_config(SCENARIO_STRONG_OUTCOME)
        assert replace(plan, config=other).targets == compute_estimands(other)
        assert replace(plan, config=other).targets != plan.targets

    def test_degenerate_config_raises_at_plan_build(self):
        with pytest.raises(EstimandUndefinedError):
            small_plan(nu_sd=0.0, e_sd=0.0)


def test_import_loads_no_thread_pool():
    # run_mc imports concurrent.futures only when it starts worker threads.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    script = (
        "import sys, spatialconfound\n"
        "print(sorted(m for m in ('concurrent.futures', 'logging', 'queue') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


class TestRunMc:
    @staticmethod
    def _count_basis_passes(monkeypatch):
        counts = {"analyze": 0, "synthesize": 0}
        basis_cls = spatialconfound.basis.BasisSet
        for name in counts:
            method = getattr(basis_cls, name)

            def counted(self, *args, _method=method, _name=name):
                counts[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(basis_cls, name, counted)
        return counts

    def test_one_basis_pass_per_replication(self, monkeypatch):
        # Spatial, Spatial+ and gSEM share the moments of [1, Z, C, Y]: one
        # B'X and one back-projection per replication, whatever the stages.
        counts = self._count_basis_passes(monkeypatch)
        run_mc(default_scenario_plan(SCENARIO_STRONG_EXPOSURE, r=1))
        assert counts == {"analyze": 1, "synthesize": 1}

    def test_one_basis_pass_per_replication_every_kind(self, monkeypatch):
        # Spatial+-lowfreq fits the moments on the full basis with its high
        # labels dropped, and the non-spatial fit takes none.
        counts = self._count_basis_passes(monkeypatch)
        every_kind = tuple(
            EstimatorSpec(
                kind=k, max_freq=4, cutoff=2 if k is EstimatorKind.SPATIAL_PLUS_LOWFREQ else None
            )
            for k in EstimatorKind
        )
        run_mc(small_plan(r=1, estimators=every_kind))
        assert counts == {"analyze": 1, "synthesize": 1}

    def test_one_basis_pass_per_aic_replication(self, monkeypatch):
        counts = self._count_basis_passes(monkeypatch)
        aic_bias_experiment(default_aic_plan(r=1), [0.0, 1.0])
        assert counts == {"analyze": 1, "synthesize": 1}

    def test_single_replication_flags_sd_undefined(self):
        summary = run_mc(small_plan(r=1))
        cell = summary.cells["nonspatial"]["beta_structural"]
        assert not cell.sd_defined
        assert np.isnan(cell.sd)
        assert np.isnan(cell.mc_se_of_bias)
        assert np.isfinite(cell.mean_bias)
        assert cell.n_success == 1 and cell.n_failed == 0

    def test_generator_smoothing_runs_as_its_tuple(self):
        # A spec reads a generator once, when built, not at the first fit.
        grid = (0.0, 1.0, 10.0)
        summaries = [
            run_mc(small_plan(r=3, estimators=(
                EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS, max_freq=4, smoothing=smoothing),
            ))).to_dict()
            for smoothing in ((v for v in grid), grid)
        ]
        assert summaries[0] == summaries[1]

    def test_repeat_run_identical(self):
        a = run_mc(small_plan(r=5))
        b = run_mc(small_plan(r=5))
        assert a == b

    def test_thread_count_does_not_change_results(self):
        plan = small_plan(r=6)
        serial = run_mc(plan, n_jobs=1)
        threaded = run_mc(plan, n_jobs=3)
        assert serial == threaded

    @pytest.mark.parametrize(
        "n_jobs,match",
        [(0, "at least 1"), (-4, "at least 1"), (True, "an integer"), (2.0, "an integer")],
        ids=["0", "-4", "True", "2.0"],
    )
    def test_thread_count_below_one_rejected(self, n_jobs, match):
        with pytest.raises(ValueError, match=f"n_jobs must be {match}"):
            run_mc(small_plan(r=2), n_jobs=n_jobs)

    def test_master_seed_changes_results(self):
        a = run_mc(small_plan(r=4, seed=1))
        b = run_mc(small_plan(r=4, seed=2))
        cell_a = a.cells["nonspatial"]["beta_structural"]
        cell_b = b.cells["nonspatial"]["beta_structural"]
        assert cell_a.mean_bias != cell_b.mean_bias

    def test_rmse_decomposition_identity(self):
        summary = run_mc(small_plan(r=12))
        for per_target in summary.cells.values():
            for cell in per_target.values():
                assert cell.rmse**2 == pytest.approx(
                    cell.mean_bias**2 + cell.sd**2, rel=1e-9
                )

    def test_every_target_summarized(self):
        summary = run_mc(small_plan(r=3))
        for per_target in summary.cells.values():
            assert set(per_target) == set(TARGET_NAMES)

    def test_failures_counted_not_fatal(self):
        # A spatial C inside the basis span makes RSR's augmented design
        # rank deficient every replication; OLS is unaffected.
        specs = (
            EstimatorSpec(kind=EstimatorKind.NONSPATIAL_OLS),
            EstimatorSpec(kind=EstimatorKind.RSR, max_freq=4),
        )
        plan = small_plan(r=4, estimators=specs, spec_C=SpectralSpec(1, 2, 0.0, 1.0))
        summary = run_mc(plan)
        rsr_cell = summary.cells["rsr"]["beta_structural"]
        ols_cell = summary.cells["nonspatial"]["beta_structural"]
        assert rsr_cell.n_failed == 4 and rsr_cell.n_success == 0
        assert np.isnan(rsr_cell.mean_bias)
        assert ols_cell.n_success == 4 and ols_cell.n_failed == 0

    def test_partial_failures_drop_only_their_replications(self, monkeypatch):
        # Spatial fails on every other replication: its cell reduces the
        # estimates that survived, and OLS keeps all of its own.
        real = spatialconfound.mc.fit_estimator
        spatial = []

        def every_other_spatial_fails(kind, *args, **kwargs):
            rec = real(kind, *args, **kwargs)
            if kind is EstimatorKind.SPATIAL:
                spatial.append(rec.beta1_hat)
                if len(spatial) % 2 == 0:
                    raise CollinearityError("injected")
            return rec

        monkeypatch.setattr(spatialconfound.mc, "fit_estimator", every_other_spatial_fails)
        plan = small_plan(r=7)
        summary = run_mc(plan, n_jobs=1)
        kept = spatial[::2]
        assert len(kept) == 4
        for t in TARGET_NAMES:
            cell = summary.cells["spatial"][t]
            assert (cell.n_success, cell.n_failed) == (4, 3)
            assert cell.mean_bias == np.array(kept).mean() - getattr(plan.targets, t)
            ols = summary.cells["nonspatial"][t]
            assert (ols.n_success, ols.n_failed) == (7, 0)

    def test_linalg_error_propagates(self, monkeypatch):
        # Data degeneracies arrive as typed errors; a LinAlgError is a bug.
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(spatialconfound.mc, "fit_estimator", broken)
        with pytest.raises(np.linalg.LinAlgError):
            run_mc(small_plan(r=2))

    def test_no_confounding_all_estimators_unbiased(self):
        # Neutrality is a no-smoothing property: data-driven smoothing in
        # the two-stage methods carries a small O(edf/n) regularization
        # bias even without confounding, so the penalized methods run at
        # lambda = 0 here.
        config = small_config(
            beta=(0.0, 2.0, 1.0, 0.0, 0.0, 0.0),
            loadings=(0.0, 0.0, 0.3),
            m=16,
            spec_S2=SpectralSpec(3, 5, 0.0, 1.0),
        )
        specs = (
            EstimatorSpec(kind=EstimatorKind.NONSPATIAL_OLS),
            EstimatorSpec(kind=EstimatorKind.RSR, max_freq=5),
            EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=5, smoothing=0.0),
            EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS, max_freq=5, smoothing=0.0),
            EstimatorSpec(kind=EstimatorKind.GSEM, max_freq=5, smoothing=0.0),
            EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS_LOWFREQ, max_freq=5, cutoff=2),
        )
        plan = MCPlan(config=config, estimators=specs, R=200, master_seed=7)
        summary = run_mc(plan)
        for name, per_target in summary.cells.items():
            cell = per_target["beta_structural"]
            assert cell.n_failed == 0, name
            assert abs(cell.mean_bias) < 3 * cell.mc_se_of_bias, (name, cell)


class TestScenarioExperiment:
    def test_structure_and_config_override(self):
        base = default_scenario_plan(SCENARIO_STRONG_EXPOSURE, r=2, master_seed=3, max_freq=6)
        result = scenario_experiment(SCENARIO_STRONG_EXPOSURE, base)
        assert result.kind == SCENARIO_STRONG_EXPOSURE
        assert result.plan.config.loadings[1] == 2.0
        assert result.plan.config.beta[4] == 0.2
        assert set(result.verdict.bias) == {"spatial", "spatial-plus", "gsem"}
        assert set(result.summary.cells) == {"spatial", "spatial-plus", "gsem"}
        assert result.verdict.expected_winner == "spatial-plus"
        d = result.verdict.to_dict()
        assert d["kind"] == SCENARIO_STRONG_EXPOSURE

    def test_unknown_kind(self):
        base = default_scenario_plan(SCENARIO_STRONG_EXPOSURE, r=2)
        with pytest.raises(ValueError):
            scenario_experiment("mystery", base)

    def test_single_replication_verdict_follows_ordering(self):
        # At R=1 every MC-SE is NaN: the verdict must still follow |bias|,
        # and the margin in MC-SEs is undefined.
        base = default_scenario_plan(SCENARIO_STRONG_OUTCOME, r=1, master_seed=3)
        verdict = scenario_experiment(SCENARIO_STRONG_OUTCOME, base).verdict
        assert verdict.expected_winner == "spatial"
        assert verdict.holds == (verdict.abs_bias["spatial"] < verdict.abs_bias["spatial-plus"])
        assert not verdict.holds
        assert np.isnan(verdict.margin_se)

    def test_plan_other_than_trio_rejected(self):
        base = default_scenario_plan(SCENARIO_STRONG_EXPOSURE, r=2, max_freq=6)
        base = replace(base, estimators=base.estimators[:2])
        with pytest.raises(ValueError, match="gsem"):
            scenario_experiment(SCENARIO_STRONG_EXPOSURE, base)


class TestAicBias:
    def test_table_shape_and_reference_row(self):
        base = default_aic_plan(r=3, master_seed=5, max_freq=6)
        lams = [0.0, 1.0, 100.0]
        result = aic_bias_experiment(base, lams)
        assert [r.lam for r in result.rows] == lams
        assert all(np.isfinite(r.mean_aic) for r in result.rows)
        assert all(np.isfinite(r.abs_mean_bias) for r in result.rows)
        assert result.n_failed == 0

    def test_requires_zero_in_grid(self):
        base = default_aic_plan(r=2)
        with pytest.raises(ValueError, match="0"):
            aic_bias_experiment(base, [1.0, 10.0])

    @pytest.mark.parametrize(
        "lams,match", [([0.0, 1.0, 1.0], "distinct"), ([0.0, -1.0], "nonnegative")]
    )
    def test_bad_grid_rejected_before_any_dataset(self, monkeypatch, lams, match):
        def no_draws(*args, **kwargs):
            raise AssertionError("a dataset was drawn")

        monkeypatch.setattr(spatialconfound.mc, "generate_dataset", no_draws)
        with pytest.raises(ValueError, match=match):
            aic_bias_experiment(default_aic_plan(r=2, max_freq=6), lams)

    def test_requires_spatial_estimator(self):
        base = default_aic_plan(r=2, max_freq=6)
        base = replace(base, estimators=(EstimatorSpec(kind=EstimatorKind.GSEM, max_freq=6),))
        with pytest.raises(ValueError, match="spatial"):
            aic_bias_experiment(base, [0.0, 1.0])

    def test_rows_match_run_mc_at_fixed_lambda(self):
        # Both experiments draw their datasets through the same loop, so a
        # fixed-lambda row is the run_mc cell of Spatial at that lambda.
        base = default_aic_plan(r=8, master_seed=4, max_freq=6)
        row = aic_bias_experiment(base, [0.0, 1.0]).rows[0]
        spec = EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=6, smoothing=0.0)
        cell = run_mc(replace(base, estimators=(spec,))).cells["spatial"]["beta_cond_achieved"]
        assert row.mean_bias == cell.mean_bias
        assert row.mean_aic == cell.mean_aic

    @pytest.mark.parametrize("master_seed,r", [(5, 3), (6, 13), (9, 8)])
    def test_every_row_is_its_run_mc_cell_bit_for_bit(self, master_seed, r):
        # The table's rows come from run_mc's own cell reduction, so no row
        # differs from its cell in the last bits.
        lams = [0.0, 1.0, 10.0]
        base = default_aic_plan(r=r, master_seed=master_seed, max_freq=6)
        rows = aic_bias_experiment(base, lams).rows
        for row, lam in zip(rows, lams):
            spec = EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=6, smoothing=lam)
            cell = run_mc(replace(base, estimators=(spec,))).cells["spatial"]["beta_cond_achieved"]
            assert (row.mean_aic, row.mean_bias, row.mc_se_of_bias) == (
                cell.mean_aic, cell.mean_bias, cell.mc_se_of_bias
            )

    def test_one_replication_table(self):
        # One replication leaves every MC-SE NaN, so nothing can be flagged;
        # each row is still its run_mc cell (compared NaN-aware).
        lams = [0.0, 1.0]
        base = default_aic_plan(r=1, max_freq=6)
        result = aic_bias_experiment(base, lams)
        assert not result.flag and result.flagged_lambdas == ()
        for row, lam in zip(result.rows, lams):
            assert np.isfinite(row.mean_bias) and np.isnan(row.mc_se_of_bias)
            spec = EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=6, smoothing=lam)
            cell = run_mc(replace(base, estimators=(spec,))).cells["spatial"]["beta_cond_achieved"]
            np.testing.assert_array_equal(
                [row.mean_aic, row.mean_bias, row.mc_se_of_bias],
                [cell.mean_aic, cell.mean_bias, cell.mc_se_of_bias],
            )

    def test_linalg_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(spatialconfound.mc, "sweep_lambda", broken)
        with pytest.raises(np.linalg.LinAlgError):
            aic_bias_experiment(default_aic_plan(r=2, max_freq=6), [0.0, 1.0])

    def test_nothing_to_confound_no_flag(self):
        config = small_config(
            beta=(0.0, 2.0, 1.0, 0.0, 0.0, 0.0), m=16, spec_S2=SpectralSpec(3, 5, 0.0, 1.0)
        )
        plan = MCPlan(
            config=config,
            estimators=(EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=5),),
            R=40,
            master_seed=9,
        )
        result = aic_bias_experiment(plan, [0.0, 1.0, 100.0, 10000.0])
        assert not result.flag


class TestSerialization:
    def test_summary_csv_and_json(self, tmp_path):
        summary = run_mc(small_plan(r=3))
        csv_path = tmp_path / "summary.csv"
        summary_to_csv(summary, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,target,")
        assert len(lines) == 1 + 2 * len(TARGET_NAMES)
        doc = summary.to_dict()
        assert doc["provenance"]["R"] == 3
        assert set(doc["cells"]) == {"nonspatial", "spatial"}

    def test_aic_table_csv(self, tmp_path):
        base = default_aic_plan(r=2, master_seed=5, max_freq=6)
        result = aic_bias_experiment(base, [0.0, 10.0])
        path = tmp_path / "aic.csv"
        aic_table_to_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,mean_aic,mean_bias,abs_mean_bias,mc_se_of_bias"
        assert len(lines) == 3
