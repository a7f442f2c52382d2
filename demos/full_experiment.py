#!/usr/bin/env python3
"""Run a small cross-validated experiment grid end to end.

For each (eta, fold) cell the driver samples a fresh biased dataset, trains
all three methods, and scores the held-out test block with true-relevance
DCG.  The same protocol at full size (a 200x200 market, eta in {0.5, 1.0},
5 folds) is what the acceptance suite uses to check the qualitative trend.
Here we use a 120x120 market and 3 folds so the grid finishes in seconds.
At this size the methods are close: a run puts the two-sided method on top
in 3 of the 6 cells at DCG@10, the conventional one in 2 and the one-sided
one in 1, since a small market leaves more room for reweighting variance.
The two-sided method wins most cells on the full-size grid of acceptance
criterion 6 (200x200, 5 folds, 100 epochs at dimension 64), not on this one.
"""

import collections

from matchltr import (
    ExperimentPlan,
    TrainConfig,
    default_method_configs,
    run_experiment,
    save_eval_report,
    synth_preferences,
)

m = synth_preferences(120, 120, rank=4, noise=0.05, seed=11)
plan = ExperimentPlan(etas=(0.5, 1.0), folds=3, k_values=(3, 10), seeds=(0,))
cfgs = default_method_configs(TrainConfig(dim=32, epochs=100, learning_rate=0.2,
                                          batch=16, k_valid=10))

records = run_experiment(
    m, plan, cfgs,
    progress=lambda **cell: print(f"  trained eta={cell['eta']} "
                                  f"fold={cell['fold']} {cell['method']}"),
)

print("\nper-cell test DCG@10:")
cells = collections.defaultdict(dict)
for r in records:
    if r.k == 10:
        cells[(r.eta, r.fold)][r.method] = r.dcg_mean
wins = collections.Counter()
for (eta, fold), vals in sorted(cells.items()):
    best = max(vals, key=vals.get)
    wins[best] += 1
    row = "  ".join(f"{m_}={v:.3f}" for m_, v in sorted(vals.items()))
    print(f"  eta={eta:.1f} fold={fold}: {row}   best: {best}")
print(f"\nwins per method: {dict(wins)}")

save_eval_report(records, "demo_eval.csv")
print("wrote demo_eval.csv; render tables with:  matchltr report demo_eval.csv")
