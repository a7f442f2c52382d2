#!/usr/bin/env python3
"""Walk through the feedback simulator: preferences, exposure, sampled logs.

A two-sided market has a proactive side (browses and selects first) and a
reactive side (responds to selections).  This script builds a synthetic
market, derives popularity-based exposure probabilities, samples one round of
implicit feedback, and shows the structure of what was logged.
"""

import numpy as np

from matchltr import (
    SideAssignment,
    exposure_from_popularity,
    make_folds,
    sample_dataset,
    synth_preferences,
)

N_PRO, N_REA = 60, 60
ETA = 1.0

print("=== 1. ground-truth preferences ===")
m = synth_preferences(N_PRO, N_REA, rank=4, noise=0.05, seed=7)
print(f"forward preference probabilities: {m.forward.shape}, "
      f"range [{m.forward.min():.3f}, {m.forward.max():.3f}]")
print(f"backward preference probabilities: {m.backward.shape}, "
      f"range [{m.backward.min():.3f}, {m.backward.max():.3f}]")

print("\n=== 2. popularity-driven exposure ===")
exposure = exposure_from_popularity(m, eta=ETA)
theta_v = exposure.theta_reactive_exposure
theta_u = exposure.theta_proactive_exposure
print(f"eta = {ETA}: a user's exposure probability is "
      "(its share of incoming preference mass / the maximum share) ** eta")
print(f"reactive-side exposure:  min {theta_v.min():.3f}, median "
      f"{np.median(theta_v):.3f}, max {theta_v.max():.0f}")
print(f"proactive-side exposure: min {theta_u.min():.3f}, median "
      f"{np.median(theta_u):.3f}, max {theta_u.max():.0f}")
print("the least popular users are examined far less often than the most "
      "popular ones, which is exactly what biases logged feedback")

print("\n=== 3. sampled implicit feedback ===")
plan = make_folds(SideAssignment.trivial(N_PRO, N_REA), k=5, seed=0)
dataset = sample_dataset(m, exposure, plan, seed=1)
print(f"{len(dataset)} observations over non-test pairs "
      f"(the {len(plan.proactive_folds[0])}x{len(plan.reactive_folds[0])} "
      "test block is held out)")

# the dataset holds proactive x reactive tables; `observed` marks the logged pairs
log = {name: getattr(dataset, name)[dataset.observed]
       for name in ("r_fwd", "o_fwd", "y_fwd", "r_bwd", "o_bwd", "y_bwd", "theta_fwd")}

print("\ncomposition identities hold for every observation:")
print("  y_fwd == o_fwd * r_fwd        ->",
      bool(np.array_equal(log["y_fwd"], log["o_fwd"] * log["r_fwd"])))
print("  y_bwd == y_fwd * o_bwd * r_bwd ->",
      bool(np.array_equal(log["y_bwd"], log["y_fwd"] * log["o_bwd"] * log["r_bwd"])))

print("\nrates (a backward response needs the full chain of four events):")
for name in ("r_fwd", "o_fwd", "y_fwd", "r_bwd", "o_bwd", "y_bwd"):
    print(f"  mean {name}: {log[name].mean():.3f}")

print("\ncensoring in action: how much of the true relevance shows up in the log")
quartiles = np.quantile(log["theta_fwd"], [0.25, 0.5, 0.75])
labels = ["lowest", "second", "third", "highest"]
bins = np.digitize(log["theta_fwd"], quartiles)
for q in range(4):
    sel = bins == q
    rel = log["r_fwd"][sel].mean()
    fed = log["y_fwd"][sel].mean()
    print(f"  {labels[q]:>8} exposure quartile: relevance rate {rel:.3f}, "
          f"feedback rate {fed:.3f} ({fed / rel:.0%} captured)")
print("the log captures most of what popular users earn but swallows a big "
      "share of unpopular users' relevance: naive training undervalues them")
