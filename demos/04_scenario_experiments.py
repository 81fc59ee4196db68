"""The two confounding scenarios and the AIC-versus-bias table, reduced size.

Replays the Monte Carlo experiments at R=60 so the demo finishes in a few
seconds; the acceptance suite runs the full R=500/R=300 versions.  Scenario
"strong exposure / weak outcome" is where the two-stage estimator shines:
its exposure model refuses to smooth away the high-frequency confounder.
In the reversed scenario both methods lean on the outcome model's
smoothing and end up nearly tied.
"""

from spatialconfound import (
    aic_bias_experiment,
    default_aic_plan,
    default_scenario_plan,
    scenario_experiment,
)
from spatialconfound.mc import SCENARIO_KINDS

R = 60

for kind in SCENARIO_KINDS:
    base = default_scenario_plan(kind, r=R, master_seed=20240501)
    result = scenario_experiment(kind, base)
    v = result.verdict
    print(f"scenario: {kind}  (R={R})")
    print(f"  a2={result.plan.config.loadings[1]}, b4={result.plan.config.beta[4]}, "
          f"target beta_cond_achieved={result.plan.targets.beta_cond_achieved:.4f}")
    for name in ("spatial", "spatial-plus", "gsem"):
        print(f"  {name:13s} bias {v.bias[name]:+.4f} (mc se {v.mc_se[name]:.4f})")
    print(f"  expected winner: {v.expected_winner}; holds: {v.holds} "
          f"(margin {v.margin_se:.1f} combined MC-SEs)")
    print(f"  gSEM not worse than both: {v.gsem_not_worse_than_both}\n")

plan = default_aic_plan(r=R, master_seed=20240707)
table = aic_bias_experiment(plan, [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0])
print(f"AIC vs bias, Spatial model, high-frequency confounder (R={R}):")
print(f"{'lambda':>8s} {'mean aic':>10s} {'|mean bias|':>12s}")
for row in table.rows:
    print(f"{row.lam:8.1f} {row.mean_aic:10.1f} {row.abs_mean_bias:12.4f}")
print(f"\nflag (some lambda has lower AIC and significantly higher bias "
      f"than lambda=0): {table.flag}")
