"""The library's input checks: each bad argument is rejected with its own message.

One row per check that no other test reaches: the call, the exception class and
a fragment of the message.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from matchltr import (
    ContractViolation,
    DataFormatError,
    ExperimentPlan,
    ExposureModel,
    FeedbackDataset,
    FoldPlan,
    LambdaWeight,
    OracleInstance,
    PreferenceMatrix,
    RankerModel,
    TrainConfig,
    estimate_metric,
    exposure_from_popularity,
    init_model,
    latent_preferences,
    load_model,
    loss_user,
    metric_ground_truth,
    rank_candidates,
    run_verification,
    sample_dataset,
    save_model,
    synth_preferences,
    train_model,
)
from matchltr.core import write_arrays
from matchltr.metrics import dcg_from_gains
from matchltr.ranker import _CKPT_MAGIC, TABLES
from matchltr.train import test_dcg_records as dcg_records  # not a test to collect
from matchltr.verify import check_settings

ONE = np.ones((1, 1))
PLAN_2x2 = FoldPlan(k=2, proactive_folds=((0,), (1,)), reactive_folds=((0,), (1,)))


def _tables(**shapes):
    """RankerModel tables of zeros, 2x1 unless ``shapes`` names another shape."""
    names = ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd")
    return {name: np.zeros(shapes.get(name, (2, 1))) for name in names}


def _sample(m: PreferenceMatrix, plan: FoldPlan, exposure_of=None) -> FeedbackDataset:
    return sample_dataset(m, exposure_from_popularity(exposure_of or m, 0.5), plan, seed=0)


def _load_checkpoint_of_other_layout():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_model(init_model(2, 2, 1, seed=0), path)
        path.write_bytes(path.read_bytes().replace(b'"<f8"', b'"<f4"', 1))
        load_model(path)


def _load_checkpoint_of_dimension_zero():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        header = {"dim": 0, "n_proactive": 2, "n_reactive": 2, "tables": list(TABLES),
                  "dtype": "<f8"}
        write_arrays(path, _CKPT_MAGIC, header, [np.zeros((2, 0), dtype="<f8")] * 4)
        load_model(path)


def _train_with_an_empty_candidate_list():
    # every reactive user in fold 0: test-fold proactive user 0 has no training pair
    plan = FoldPlan(k=2, proactive_folds=((0,), (1,)), reactive_folds=((0, 1), ()))
    train_model(_sample(synth_preferences(2, 2, 1, 0.0, seed=0), plan), TrainConfig(epochs=1))


CHECKS = [
    # core
    ("core:preferences-non-finite",
     lambda: PreferenceMatrix(forward=np.full((2, 2), np.nan), backward=np.zeros((2, 2))),
     ContractViolation, "forward preferences contain non-finite entries"),
    ("core:fold-count",
     lambda: FoldPlan(k=1, proactive_folds=((0,),), reactive_folds=((0,),)),
     ContractViolation, "fold count must be >= 2, got 1"),
    ("core:block-count",
     lambda: FoldPlan(k=2, proactive_folds=((0,), (1,)), reactive_folds=((0, 1),)),
     ContractViolation, "number of blocks must equal k"),
    # metrics
    ("metrics:unknown-estimator",
     lambda: estimate_metric("ipw2", np.zeros((1, 1), dtype=int), ONE, ONE, ONE, ONE,
                             LambdaWeight(k=1)),
     ContractViolation, "unknown estimator kind 'ipw2'"),
    ("metrics:pair-table-not-2d",
     lambda: metric_ground_truth(np.zeros((1, 1), dtype=int), np.ones(1), ONE, LambdaWeight(k=1)),
     ContractViolation, "r_fwd must be a 2-d"),
    ("metrics:scores-non-finite",
     lambda: rank_candidates(np.array([[0.5, np.nan]])),
     ContractViolation, "scores must be finite"),
    ("metrics:gains-shape",
     lambda: dcg_from_gains(np.zeros((1, 2)), np.zeros((1, 3)), 1),
     ContractViolation, "gains must have the same shape as scores"),
    ("metrics:gains-non-finite",
     lambda: dcg_from_gains(np.zeros((1, 2)), np.array([[np.nan, 1.0]]), 1),
     ContractViolation, "gains has no value for some ranked pair"),
    # ranker
    ("ranker:table-not-2d",
     lambda: RankerModel(**{**_tables(), "w_rea_fwd": np.zeros(2)}),
     ContractViolation, "w_rea_fwd must be a 2-d table"),
    ("ranker:table-non-finite",
     lambda: RankerModel(**{**_tables(), "w_pro_bwd": np.full((2, 1), np.inf)}),
     ContractViolation, "w_pro_bwd contains non-finite entries"),
    ("ranker:dimensions-differ",
     lambda: RankerModel(**_tables(w_rea_bwd=(2, 3))),
     ContractViolation, "all embedding tables must share one dimension"),
    ("ranker:row-counts-differ",
     lambda: RankerModel(**_tables(w_rea_bwd=(3, 1))),
     ContractViolation, "reactive tables must have equal row counts"),
    ("ranker:dimension-zero",
     lambda: init_model(2, 2, 0, seed=0),
     ContractViolation, "embedding dimension must be >= 1, got 0"),
    ("ranker:model-dimension-zero",
     lambda: RankerModel(**_tables(**dict.fromkeys(TABLES, (2, 0)))),
     ContractViolation, "embedding dimension must be >= 1, got 0"),
    ("ranker:checkpoint-dimension-zero",
     _load_checkpoint_of_dimension_zero,
     ContractViolation, "embedding dimension must be >= 1, got 0"),
    ("ranker:duplicate-candidates",
     lambda: loss_user(init_model(2, 2, 1, seed=0), 0, [1, 1], [0, 0], [0, 0]),
     ContractViolation, "candidate list contains duplicates"),
    ("ranker:feedback-misaligned",
     lambda: loss_user(init_model(2, 2, 1, seed=0), 0, [0, 1], [0], [0]),
     ContractViolation, "feedback vectors must align with the candidate list"),
    ("ranker:checkpoint-layout",
     _load_checkpoint_of_other_layout,
     DataFormatError, "checkpoint: malformed header: unsupported table layout"),
    # simulate
    ("simulate:exposure-not-a-vector",
     lambda: ExposureModel(eta=0.5, theta_reactive_exposure=ONE,
                           theta_proactive_exposure=np.ones(1)),
     ContractViolation, "theta_reactive_exposure must be a non-empty vector"),
    ("simulate:factors-not-2d",
     lambda: latent_preferences(np.ones(2), np.ones((2, 1))),
     ContractViolation, "factor matrices must be 2-d with a shared latent dimension"),
    *((f"simulate:{where}-noise-{label}", call, ContractViolation,
       f"noise must be a number, got {noise!r}")
      for label, noise in (("true", True), ("string", "0.1"), ("none", None))
      for where, call in (
          ("synth", lambda noise=noise: synth_preferences(2, 2, 1, noise, seed=0)),
          ("latent", lambda noise=noise: latent_preferences(ONE, ONE, noise=noise)),
      )),
    ("simulate:rank-zero",
     lambda: synth_preferences(2, 2, 0, 0.0, seed=0),
     ContractViolation, "rank must be >= 1, got 0"),
    ("simulate:empty-side",
     lambda: synth_preferences(0, 2, 1, 0.0, seed=0),
     ContractViolation, "both sides need at least one user"),
    ("simulate:columns-misaligned",
     lambda: FeedbackDataset.from_columns(PLAN_2x2, [0], [0, 1]),
     ContractViolation, "columns must be vectors of one length"),
    ("simulate:plan-size",
     lambda: _sample(synth_preferences(3, 2, 1, 0.0, seed=0), PLAN_2x2),
     ContractViolation, "proactive x reactive sizes disagree: preference matrix 3x2, fold plan 2x2"),
    ("simulate:exposure-size",
     lambda: _sample(synth_preferences(2, 2, 1, 0.0, seed=0), PLAN_2x2,
                     exposure_of=synth_preferences(2, 3, 1, 0.0, seed=0)),
     ContractViolation,
     "proactive x reactive sizes disagree: preference matrix 2x2, fold plan 2x2, exposure model 2x3"),
    # train
    ("train:empty-candidate-list",
     _train_with_an_empty_candidate_list,
     ContractViolation, "user 0 has an empty training candidate list"),
    ("train:label-mode",
     lambda: dcg_records(init_model(2, 2, 1, seed=0), synth_preferences(2, 2, 1, 0.0, 0),
                         PLAN_2x2, 0.5, "ipw2", (1,), 0, "bogus"),
     ContractViolation, "unknown label mode 'bogus'"),
    ("train:plan-empty-grid",
     lambda: ExperimentPlan(etas=()),
     ContractViolation, "etas, k_values and seeds must be non-empty"),
    ("train:plan-fold-count",
     lambda: ExperimentPlan(etas=(0.5,), folds=1),
     ContractViolation, "folds must be >= 2, got 1"),
    ("train:plan-cutoff",
     lambda: ExperimentPlan(etas=(0.5,), k_values=(3, 0)),
     ContractViolation, "cutoffs must be positive"),
    ("train:plan-no-test-folds",
     lambda: ExperimentPlan(etas=(0.5,), test_folds=()),
     ContractViolation, "test_folds must be non-empty when given"),
    ("train:plan-test-fold-range",
     lambda: ExperimentPlan(etas=(0.5,), folds=3, test_folds=(0, 3)),
     ContractViolation, "test_folds must lie in [0, folds)"),
    # verify
    *((f"verify:{where}-tolerance-{label}", call, ContractViolation,
       f"tolerance must be a number, got {tolerance!r}")
      for label, tolerance in (("true", True), ("string", "0"))
      for where, call in (
          ("run", lambda tolerance=tolerance: run_verification(trials=1, tolerance=tolerance)),
          ("settings", lambda tolerance=tolerance: check_settings(tolerance, 4, 6)),
      )),
    ("verify:instance-shape",
     lambda: OracleInstance(np.ones((1, 2)), ONE, np.ones((1, 2)), np.ones((1, 2)),
                            np.array([[0, 1]]), 1),
     ContractViolation, "r_bwd must match the instance shape (1, 2)"),
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in CHECKS],
                         ids=[row[0] for row in CHECKS])
def test_rejected(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)
