"""matchltr: unbiased learning-to-rank for two-sided matching markets.

Simulates popularity-biased implicit feedback between a proactive and a
reactive user side, provides naive / one-sided / two-sided
inverse-propensity-weighted ranking-metric estimators with exact expectation
oracles, and trains matrix-factorization rankers under the matching listwise
losses.
"""

import os

# One BLAS thread unless the environment says otherwise, set before numpy
# loads: a GEMM split over threads sums in another order, so output bytes
# would depend on the thread count.  Each run.json records the values in effect.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

from .core import (
    AssumptionViolationError,
    ContractViolation,
    DataFormatError,
    DivergenceError,
    FoldInfeasibleError,
    FoldPlan,
    InvalidPopulationError,
    MatchLtrError,
    PreferenceMatrix,
    RankedList,
    SideAssignment,
    UndefinedAverageError,
)
from .metrics import (
    EstimatorKind,
    EvalRecord,
    LambdaWeight,
    MetricValue,
    dcg_at_k,
    estimate_metric,
    gain_ipw,
    gain_surrogate,
    gain_true,
    load_eval_report,
    metric_ground_truth,
    rank_candidates,
    save_eval_report,
)
from .ranker import (
    GradientTables,
    LossKind,
    RankerModel,
    init_model,
    load_model,
    loss_gradient,
    loss_user,
    save_model,
    score_matrix,
)
from .simulate import (
    ExposureModel,
    FeedbackDataset,
    assign_sides,
    exposure_from_popularity,
    latent_preferences,
    load_dataset,
    load_exposure,
    load_fold_plan,
    load_preferences,
    load_side_assignment,
    load_square_preferences,
    make_folds,
    sample_dataset,
    save_dataset,
    save_exposure,
    save_fold_plan,
    save_preferences,
    save_side_assignment,
    synth_preferences,
)
from .train import (
    ExperimentPlan,
    TrainConfig,
    TrainingLog,
    default_method_configs,
    load_training_log,
    run_experiment,
    save_training_log,
    test_dcg_records,
    train_model,
    validation_metric,
)
from .util import derive_seed
from .verify import (
    OracleInstance,
    VerificationReport,
    check_instance,
    expected_metric_exact,
    random_instance,
    run_verification,
    single_pair_witness,
)

__version__ = "0.1.0"
