"""matchltr: unbiased learning-to-rank for two-sided matching markets.

Simulates popularity-biased implicit feedback between a proactive and a
reactive user side, provides naive / one-sided / two-sided
inverse-propensity-weighted ranking-metric estimators with exact expectation
oracles, and trains matrix-factorization rankers under the matching listwise
losses.

Each public name loads its module on first use, so a process imports only the
code it runs.
"""

import importlib
import os

# One BLAS thread unless the environment says otherwise, set before numpy
# loads: a GEMM split over threads sums in another order, so output bytes
# would depend on the thread count.  Each run.json records the values in effect.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var


def _lazy(module: str, homes: dict) -> tuple:
    """Names and a PEP 562 ``__getattr__`` for the module ``module``.

    ``homes`` maps a module of this package to the names it defines, separated
    by whitespace; the first use of a name imports its module.
    """
    home = {name: source for source, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__name__}.{home[name]}"), name)

    return list(home), __getattr__


__all__, __getattr__ = _lazy(__name__, {
    "util": """AssumptionViolationError ContractViolation DataFormatError DivergenceError
        FoldInfeasibleError InvalidPopulationError MatchLtrError UndefinedAverageError
        EvalRecord derive_seed load_eval_report save_eval_report""",
    "core": "FoldPlan PreferenceMatrix RankedList SideAssignment",
    "metrics": """EstimatorKind LambdaWeight MetricValue dcg_at_k estimate_metric gain_ipw
        gain_surrogate gain_true metric_ground_truth rank_candidates""",
    "ranker": """GradientTables LossKind RankerModel init_model load_model loss_gradient
        loss_user save_model score_matrix""",
    "simulate": """ExposureModel FeedbackDataset assign_sides exposure_from_popularity
        latent_preferences load_dataset load_exposure load_fold_plan load_preferences
        load_side_assignment load_square_preferences make_folds sample_dataset save_dataset
        save_exposure save_fold_plan save_preferences save_side_assignment synth_preferences""",
    "train": """ExperimentPlan TrainConfig TrainingLog default_method_configs load_training_log
        run_experiment save_training_log test_dcg_records train_model validation_metric""",
    "verify": """OracleInstance VerificationReport check_instance expected_metric_exact
        random_instance run_verification single_pair_witness""",
})


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
