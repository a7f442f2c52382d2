"""Training loop, checkpoint selection, and the cross-validated experiment driver.

Training is plain constant-rate SGD over user-level minibatches of the
listwise loss.  After every epoch the model ranks the validation block with
its mutual score and the configured validation estimator is evaluated; the
checkpoint returned is the epoch with the best validation value.  The
experiment driver sweeps (eta, fold, method) cells and scores each trained
model on the held-out test block with true-relevance DCG.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ContractViolation,
    DivergenceError,
    FoldPlan,
    PreferenceMatrix,
    SideAssignment,
    UndefinedAverageError,
)
from .metrics import (  # bench/tracing.py wraps estimate_metric here
    EstimatorKind,
    LambdaWeight,
    _coefficients,
    _discounted,
    _gain,
    _user_mean,
    dcg_at_k,
    dcg_from_gains,
    estimate_metric,
    rank_candidates,
)
from .ranker import (
    LossKind,
    RankerModel,
    accumulate_gradient,
    init_model,
    score_matrix,
)
from .simulate import FeedbackDataset, exposure_from_popularity, make_folds, sample_dataset
from .util import EvalRecord, derive_seed, load_rows, save_rows


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    Validation uses the estimator paired with the loss: conventional -> naive,
    one-sided -> one-sided, two-sided -> two-sided.
    """

    loss_kind: LossKind = LossKind.CONVENTIONAL
    dim: int = 64
    learning_rate: float = 0.05
    epochs: int = 200
    batch: int = 32
    seed: int = 0
    k_valid: int = 10
    weight_decay: float = 0.0

    def __post_init__(self):
        # operator.index rejects 16.7 or 3.0 instead of truncating it
        for name in ("dim", "epochs", "batch", "seed", "k_valid"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.dim < 1 or self.epochs < 0 or self.batch < 1 or self.k_valid < 1:
            raise ContractViolation("dim, batch and k_valid must be positive; epochs >= 0")
        # written so that NaN fails too
        if not 0.0 < self.learning_rate < np.inf:
            raise ContractViolation(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )
        if not 0.0 <= self.weight_decay < np.inf:
            raise ContractViolation(
                f"weight decay must be finite and non-negative, got {self.weight_decay}"
            )


_LOG_COLUMNS = ("epoch", "train_loss", "valid_metric")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    valid_metric: float


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)

    @property
    def best_epoch(self) -> int | None:
        """Epoch of the (first) maximal validation metric; None for an empty log."""
        if not self.records:
            return None
        best = max(range(len(self.records)), key=lambda i: (self.records[i].valid_metric, -i))
        return self.records[best].epoch

    @property
    def best_valid_metric(self) -> float | None:
        if not self.records:
            return None
        return max(r.valid_metric for r in self.records)


def save_training_log(log: TrainingLog, path) -> None:
    save_rows(log.records, _LOG_COLUMNS, path)


def load_training_log(path) -> TrainingLog:
    return TrainingLog(load_rows(EpochRecord, _LOG_COLUMNS, path, "training log CSV"))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def training_sub_seeds(seed: int) -> dict[str, int]:
    """Sub-seeds of one training run by label: model init and epoch order."""
    return {label: derive_seed(seed, label) for label in ("init", "epochs")}


def labels_sub_seeds(seed: int, fold: int) -> dict[str, int]:
    """The one sub-seed, by label, that draws a test fold's sampled labels."""
    label = f"test-labels:fold={fold}"
    return {label: derive_seed(seed, label)}


def _per_user_training_data(dataset: FeedbackDataset):
    """Each user's training candidates with their feedback and propensities."""
    tables = (dataset.y_fwd, dataset.y_bwd, dataset.theta_fwd, dataset.theta_bwd)
    rows = map(np.flatnonzero, dataset.fold_plan.train_mask())
    return [(cands, *(t[u, cands] for t in tables)) for u, cands in enumerate(rows)]


def _loss_tables(dataset: FeedbackDataset, kind: LossKind):
    """The minibatch kernel's per-run inputs, built once per training run.

    Returns the training mask, the ``(2, n_proactive, n_reactive)`` forward
    and backward loss weights, zero off the training block, and their
    ``(2, n_proactive)`` row sums.  The dataset's tables were checked when it
    was built, so they go to the coefficient table unchecked and uncast.
    """
    mask = dataset.fold_plan.train_mask()
    empty = ~mask.any(axis=1)
    if empty.any():
        raise ContractViolation(f"user {np.argmax(empty)} has an empty training candidate list")
    weights = _coefficients(kind.paired_metric, dataset.y_fwd, dataset.y_bwd,
                            dataset.theta_fwd, dataset.theta_bwd)
    coef = np.zeros((2, *mask.shape))
    for table, w in zip(coef, weights):
        np.copyto(table, w, where=mask)
    return mask, coef, coef.sum(axis=2)


def _validation_context(dataset: FeedbackDataset, kind: EstimatorKind):
    """Per-run validation table: users, candidates, the estimator's per-pair gain
    over the block (from the dataset's checked tables) and the ``(n_users, 1)``
    row index that picks each user's ranked gains."""
    plan = dataset.fold_plan
    val_users = np.asarray(plan.proactive_folds[plan.validation_fold], dtype=np.intp)
    val_cands = np.asarray(plan.reactive_folds[plan.validation_fold], dtype=np.intp)
    if val_users.size == 0:
        raise UndefinedAverageError("the validation block has no users to average over")
    block = np.ix_(val_users, val_cands)
    tables = (dataset.y_fwd, dataset.y_bwd, dataset.theta_fwd, dataset.theta_bwd)
    gain = _gain(*_coefficients(kind, *(t[block] for t in tables)))
    return val_users, val_cands, gain, np.arange(val_users.size)[:, None]


def validation_metric(
    model: RankerModel,
    dataset: FeedbackDataset,
    kind: EstimatorKind,
    k: int,
    _ctx=None,
) -> float:
    """Estimator value on the validation block, ranking candidates by mutual score.

    Bit for bit :func:`estimate_metric` on the block's tables; ``_ctx`` is a
    training run's :func:`_validation_context`.
    """
    k = LambdaWeight(k=k).k
    val_users, val_cands, gain, rows = _ctx or _validation_context(dataset, kind)
    ranking = rank_candidates(score_matrix(model, val_users, val_cands))
    return _user_mean(_discounted(gain[rows, ranking[:, :k]])).value


@np.errstate(over="ignore", invalid="ignore")  # divergence is a DivergenceError, not a warning
def train_model(dataset: FeedbackDataset, cfg: TrainConfig) -> tuple[RankerModel, TrainingLog]:
    """SGD-train a ranker and return the checkpoint with the best validation value.

    The log holds one record per epoch (mean per-user training loss as
    encountered during the epoch, then the post-epoch validation metric).
    With ``epochs=0`` the freshly initialized model is returned unchanged;
    otherwise every pair outside the test block must be observed.

    Each minibatch subtracts ``learning_rate * grad / batch``, scaled in the
    kernel's own gradient buffers, from the batch's proactive rows and every
    reactive row; weight decay, when set, first shrinks every row of every
    table.  The best epoch is copied into stacks allocated once per run.
    """
    plan = dataset.fold_plan
    n_pro = plan.n_proactive
    seeds = training_sub_seeds(cfg.seed)
    model = init_model(n_pro, plan.n_reactive, cfg.dim, seeds["init"])
    log = TrainingLog()
    if cfg.epochs == 0:
        return model, log

    gaps = ~(dataset.observed | plan.test_mask())
    if gaps.any():
        u, v = np.argwhere(gaps)[0]
        raise ContractViolation(f"user {u} has an unobserved pair (v={v}) outside the test block")
    mask, coef, coef_sum = _loss_tables(dataset, cfg.loss_kind)
    metric_kind = cfg.loss_kind.paired_metric
    val_ctx = _validation_context(dataset, metric_kind)
    rng = np.random.default_rng(seeds["epochs"])
    pro, rea = model.pro, model.rea
    keep = 1.0 - cfg.learning_rate * cfg.weight_decay

    best_pro, best_rea = np.empty_like(pro), np.empty_like(rea)
    best_value = -np.inf  # validation values are >= 0, so epoch 1 always improves
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_pro)
        loss_sum = 0.0
        for start in range(0, n_pro, cfg.batch):
            # a slice of a permutation: no user repeats, so the batch's
            # proactive gradient rows can be subtracted by fancy indexing
            batch = order[start:start + cfg.batch]
            terms, grad_pro, grad_rea = accumulate_gradient(
                model, batch, mask[batch], coef.take(batch, axis=1), coef_sum[:, batch]
            )
            # one addition per user in batch order, not a (pairwise) array sum
            for loss in (terms[:, 0] + terms[:, 1]).tolist():
                loss_sum += loss
            if cfg.weight_decay > 0.0:
                pro *= keep
                rea *= keep
            # lr * (g * (1/B)) in the kernel's own buffers, as multiplication
            # commutes; take + setitem is twice as fast as pro[:, batch] -=
            for grad in (grad_pro, grad_rea):
                grad *= 1.0 / batch.size
                grad *= cfg.learning_rate
            rows = pro.take(batch, axis=1)
            rows -= grad_pro
            pro[:, batch] = rows
            rea -= grad_rea
        train_loss = loss_sum / n_pro
        # the last minibatches can overflow the tables while the loss is still finite
        if not (np.isfinite(train_loss) and np.isfinite(pro).all() and np.isfinite(rea).all()):
            raise DivergenceError(
                f"non-finite training loss or embeddings at epoch {epoch} "
                f"(learning rate {cfg.learning_rate})"
            )
        value = validation_metric(model, dataset, metric_kind, cfg.k_valid, val_ctx)
        log.records.append(EpochRecord(epoch=epoch, train_loss=train_loss, valid_metric=value))
        if value > best_value:
            best_value = value
            np.copyto(best_pro, pro)
            np.copyto(best_rea, rea)

    return RankerModel(best_pro[0], best_rea[0], best_pro[1], best_rea[1]), log


# ---------------------------------------------------------------------------
# test evaluation
# ---------------------------------------------------------------------------

def expected_dcg_gain(m_fwd: np.ndarray, m_bwd: np.ndarray) -> np.ndarray:
    """Exact expectation of ``2**(R_fwd*(1+R_bwd))`` under Bernoulli relevance."""
    m_fwd = np.asarray(m_fwd, dtype=np.float64)
    m_bwd = np.asarray(m_bwd, dtype=np.float64)
    return (1.0 - m_fwd) + 2.0 * m_fwd * (1.0 - m_bwd) + 4.0 * m_fwd * m_bwd


def test_dcg_records(
    model: RankerModel,
    m: PreferenceMatrix,
    plan: FoldPlan,
    eta: float,
    method: str,
    k_values: Sequence[int],
    labels_seed: int,
    label_mode: str = "sampled",
) -> list[EvalRecord]:
    """Score the test block with mutual scores and report DCG@K rows.

    ``label_mode="sampled"`` draws test relevance bits from the preference
    matrix (seeded per fold, so every method sees the same labels);
    ``"expected"`` uses the exact expected gain instead of sampled bits.
    The model, the preference matrix and the fold plan must have equal sizes.
    """
    sizes = {
        "model": (model.n_proactive, model.n_reactive),
        "preference matrix": m.forward.shape,
        "fold plan": (plan.n_proactive, plan.n_reactive),
    }
    if len(set(sizes.values())) > 1:
        detail = ", ".join(f"{name} {p}x{r}" for name, (p, r) in sizes.items())
        raise ContractViolation(f"proactive x reactive sizes disagree: {detail}")
    test_users = np.asarray(plan.proactive_folds[plan.test_fold], dtype=np.intp)
    test_cands = np.asarray(plan.reactive_folds[plan.test_fold], dtype=np.intp)
    scores = score_matrix(model, test_users, test_cands)
    block = np.ix_(test_users, test_cands)

    if label_mode == "sampled":
        rng = np.random.default_rng(labels_seed)
        r_fwd = (rng.random(m.forward.shape) < m.forward)[block]
        r_bwd = (rng.random(m.backward.shape) < m.backward)[block]
    elif label_mode == "expected":
        gains = expected_dcg_gain(m.forward[block], m.backward[block])
    else:
        raise ContractViolation(f"unknown label mode {label_mode!r}")

    records = []
    for k in k_values:
        if label_mode == "sampled":
            per_user = dcg_at_k(scores, r_fwd, r_bwd, k)
        else:
            per_user = dcg_from_gains(scores, gains, k)
        n = per_user.shape[0]
        stderr = float(per_user.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        records.append(EvalRecord(
            fold=plan.test_fold,
            eta=float(eta),
            method=method,
            k=int(k),
            dcg_mean=float(per_user.mean()),
            dcg_stderr=stderr,
            n_users=int(n),
        ))
    return records


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    """Grid of the cross-validated comparison: exposure strengths x folds x cutoffs.

    ``folds`` is the cross-validation fold count; ``test_folds`` optionally
    restricts which of them are actually run as the test fold (all by default).
    """

    etas: tuple[float, ...]
    folds: int = 5
    k_values: tuple[int, ...] = (3, 10, 20, 30)
    seeds: tuple[int, ...] = (0,)
    test_folds: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        # operator.index rejects 5.9 or 0.4 instead of truncating it
        object.__setattr__(self, "folds", operator.index(self.folds))
        object.__setattr__(self, "k_values", tuple(map(operator.index, self.k_values)))
        object.__setattr__(self, "seeds", tuple(map(operator.index, self.seeds)))
        if self.test_folds is not None:
            object.__setattr__(self, "test_folds", tuple(map(operator.index, self.test_folds)))
        if not self.etas or not self.k_values or not self.seeds:
            raise ContractViolation("etas, k_values and seeds must be non-empty")
        if self.folds < 2:
            raise ContractViolation(f"folds must be >= 2, got {self.folds}")
        if min(self.k_values) < 1:
            raise ContractViolation("cutoffs must be positive")
        if self.test_folds is not None:
            if not self.test_folds:
                raise ContractViolation("test_folds must be non-empty when given")
            if min(self.test_folds) < 0 or max(self.test_folds) >= self.folds:
                raise ContractViolation("test_folds must lie in [0, folds)")

    @property
    def folds_to_run(self) -> tuple[int, ...]:
        return self.test_folds if self.test_folds is not None else tuple(range(self.folds))


def default_method_configs(base: TrainConfig | None = None) -> dict[LossKind, TrainConfig]:
    """One config per loss variant, sharing every other hyperparameter."""
    base = base or TrainConfig()
    return {kind: replace(base, loss_kind=kind) for kind in LossKind}


def run_experiment(
    m: PreferenceMatrix,
    plan: ExperimentPlan,
    cfgs: Mapping[LossKind, TrainConfig] | None = None,
    label_mode: str = "sampled",
    progress=None,
) -> list[EvalRecord]:
    """Run the full (seed, eta, fold, method) grid and collect DCG records.

    Folds are drawn once per seed and the test fold rotates through them.
    Test labels depend only on (seed, fold), so all methods and etas of a
    fold are scored against identical relevance draws.  Per-cell training
    seeds are derived from the plan seed; ``cfg.seed`` is ignored here.
    """
    cfgs = cfgs or default_method_configs()
    sides = SideAssignment.trivial(m.n_proactive, m.n_reactive)
    records: list[EvalRecord] = []
    for seed in plan.seeds:
        base_folds = make_folds(sides, plan.folds, derive_seed(seed, "folds"))
        for eta in plan.etas:
            exposure = exposure_from_popularity(m, eta)
            for fold in plan.folds_to_run:
                fplan = base_folds.with_test_fold(fold)
                dataset = sample_dataset(
                    m, exposure, fplan,
                    derive_seed(seed, f"sampling:eta={eta!r}:fold={fold}"),
                )
                (labels_seed,) = labels_sub_seeds(seed, fold).values()
                for kind, cfg in cfgs.items():
                    cell_cfg = replace(
                        cfg,
                        loss_kind=kind,
                        seed=derive_seed(seed, f"train:eta={eta!r}:fold={fold}:method={kind.value}"),
                    )
                    model, _ = train_model(dataset, cell_cfg)
                    records.extend(test_dcg_records(
                        model, m, fplan, eta, kind.value, plan.k_values,
                        labels_seed, label_mode,
                    ))
                    if progress is not None:
                        progress(seed=seed, eta=eta, fold=fold, method=kind.value)
    return records

