"""Training loop, checkpoint selection, and the cross-validated experiment driver.

Training is plain constant-rate SGD over user-level minibatches of the
listwise loss.  After every epoch the model ranks the validation block with
its mutual score and the configured validation estimator is evaluated; the
checkpoint returned is the epoch with the best validation value.  The
experiment driver sweeps (eta, fold, method) cells and scores each trained
model on the held-out test block with true-relevance DCG.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ContractViolation,
    DivergenceError,
    FoldPlan,
    MatchLtrError,
    PreferenceMatrix,
    SideAssignment,
    UndefinedAverageError,
    _index,
    _real,
    _same_shape,
)
from .metrics import (  # bench/tracing.py wraps dcg_at_k, estimate_metric and rank_candidates here
    EstimatorKind,
    LambdaWeight,
    _coefficients,
    _discounts,
    _gain,
    _user_mean,
    dcg_at_k,
    dcg_from_gains,
    estimate_metric,
    gain_true,
    rank_candidates,
)
from .ranker import (
    PROB_FLOOR,
    LossKind,
    RankerModel,
    _mutual_scores,
    accumulate_gradient,
    init_model,
    score_matrix,
)
from .simulate import FeedbackDataset, exposure_from_popularity, make_folds, sample_dataset
from .util import EvalRecord, Worker, derive_seed, load_rows, save_rows, usable_cores


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

    def __post_init__(self):
        for name in ("dim", "epochs", "batch", "seed", "k_valid"):
            object.__setattr__(self, name, _index(getattr(self, name)))
        if self.dim < 1 or self.epochs < 0 or self.batch < 1 or self.k_valid < 1:
            raise ContractViolation("dim, batch and k_valid must be positive; epochs >= 0")
        rate = _real(self.learning_rate, "learning rate", positive=True)
        object.__setattr__(self, "learning_rate", rate)


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
    ``(2, n_proactive, 1)`` row sums.  The dataset's tables were checked when it
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
    return mask, coef, coef.sum(axis=2, keepdims=True)


def _validation_context(dataset: FeedbackDataset, kind: EstimatorKind):
    """Per-run validation table: users, candidates, the estimator's per-pair gain
    over the block (from the dataset's checked tables), the ``(n_users, 1)``
    row index that picks each user's ranked gains and the discounts of every rank."""
    plan = dataset.fold_plan
    val_users, val_cands = plan.block(plan.validation_fold)
    if val_users.size == 0 or val_cands.size == 0:
        raise UndefinedAverageError(f"the validation block is empty ({val_users.size} users"
                                    f" x {val_cands.size} candidates): no average to take")
    block = np.ix_(val_users, val_cands)
    tables = (dataset.y_fwd, dataset.y_bwd, dataset.theta_fwd, dataset.theta_bwd)
    gain = _gain(*_coefficients(kind, *(t[block] for t in tables)))
    rows = np.arange(val_users.size)[:, None]
    return val_users, val_cands, gain, rows, _discounts(val_cands.size)


def validation_metric(
    model: RankerModel,
    dataset: FeedbackDataset,
    kind: EstimatorKind,
    k: int,
    _ctx=None,
) -> float:
    """Estimator value on the validation block, ranking candidates by mutual score.

    Bit for bit :func:`estimate_metric` on the block's tables; ``_ctx`` is a
    training run's :func:`_validation_context`, whose caller has checked the
    cutoff ``k`` and the model's sizes (:func:`train_model` does).  Non-finite
    scores are a :class:`DivergenceError`.
    """
    if _ctx is None:
        _same_shape({"model": model, "dataset": dataset})
        k = LambdaWeight(k=k).k
        _ctx = _validation_context(dataset, kind)
    val_users, val_cands, gain, rows, discounts = _ctx
    scores = _mutual_scores(model, val_users, val_cands)
    if not np.isfinite(scores).all():  # finite tables whose products overflow
        raise DivergenceError("non-finite validation scores")
    # rank_candidates and estimate_metric's discounted mean, in their order of
    # operations, without the checks that this run's context has made once
    ranking = np.argsort(-scores, axis=1, kind="stable")
    per_user = gain[rows, ranking[:, :k]] @ discounts[:k]
    return float(per_user.sum() / per_user.shape[0])


# A run splits over two processes when n_proactive * n_reactive * dim * epochs
# reaches this.  A split costs the fork, page faults on memory that both
# processes then write, and one pipe record of the backward space per epoch:
# 7-15 ms at 200x200 to 500x500 (BENCH_split_spaces.json), more than a
# smaller run gains.
_SPLIT_WORK = 1 << 26
# A user's loss term is at most its coefficient sum times -log(PROB_FLOOR), so
# coefficient sums below this keep an epoch's loss sum below 1e307.
_LOSS_BOUND = 1e307 / -math.log(PROB_FLOOR)
_FORWARD, _BACKWARD, _BOTH = slice(0, 1), slice(1, 2), slice(0, 2)


@np.errstate(over="ignore", invalid="ignore")  # divergence is a DivergenceError, not a warning
def train_model(
    dataset: FeedbackDataset, cfg: TrainConfig, *, _loss: bool = True,
) -> tuple[RankerModel, TrainingLog]:
    """SGD-train a ranker and return the checkpoint with the best validation value.

    The log holds one record per epoch (mean per-user training loss as
    encountered during the epoch, then the post-epoch validation metric).
    With ``epochs=0`` the freshly initialized model is returned unchanged;
    otherwise every pair outside the test block must be observed.

    ``_loss=False``, for a caller that discards the log, skips computing the
    training loss and logs it as NaN; the tables, validation values and any
    :class:`DivergenceError` keep their bits.  With finite tables the loss is
    non-finite only if its sum overflows, so a run whose coefficients sum to
    ``_LOSS_BOUND`` or more computes the loss anyway.

    Each minibatch subtracts ``learning_rate * grad / batch``, scaled in the
    kernel's own gradient buffers, from the batch's proactive rows and every
    reactive row.  The best epoch is copied into stacks allocated once per run.

    The two embedding spaces step independently, so a big enough run
    (``n_proactive * n_reactive * dim * epochs`` at least ``_SPLIT_WORK``),
    with at least two :func:`~matchltr.util.usable_cores` (one while BLAS runs
    more than one thread), is split: a forked worker steps the backward space,
    drawing the same minibatch order, and streams each epoch's tables and loss
    terms to this process.  The result is bit for bit that of one process.
    A worker that dies raises :class:`MatchLtrError`.
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
    terms = np.empty((2, n_pro))  # each user's loss terms per space, in epoch order
    # a loss that cannot overflow is non-finite only through a NaN score row,
    # which turns the tables NaN in the same step, where the epoch's check sees it
    loss = _loss or not coef_sum.sum() < _LOSS_BOUND

    def sgd_epoch(spaces: slice, out: np.ndarray) -> None:
        """One epoch on the embedding spaces ``spaces``; their loss terms, if
        computed, go to ``out``."""
        space_pro, space_rea = pro[spaces], rea[spaces]
        space_coef, space_sum = coef[spaces], coef_sum[spaces]
        order = rng.permutation(n_pro)
        for start in range(0, n_pro, cfg.batch):
            # a slice of a permutation: no user repeats, so the batch's
            # proactive gradient rows can be subtracted by fancy indexing
            batch = order[start:start + cfg.batch]
            batch_terms, grad_pro, grad_rea = accumulate_gradient(
                model, batch, mask[batch], space_coef.take(batch, axis=1),
                space_sum[:, batch], spaces, loss,
            )
            if loss:
                out[:, start:start + batch.size] = batch_terms.T
            # lr * (g * (1/B)) in the kernel's own buffers, as multiplication
            # commutes; take + setitem is twice as fast as pro[:, batch] -=
            for grad in (grad_pro, grad_rea):
                grad *= 1.0 / batch.size
                grad *= cfg.learning_rate
            rows = space_pro.take(batch, axis=1)
            rows -= grad_pro
            space_pro[:, batch] = rows
            space_rea -= grad_rea

    split = n_pro * plan.n_reactive * cfg.dim * cfg.epochs >= _SPLIT_WORK and usable_cores() >= 2
    best_pro, best_rea = np.empty_like(pro), np.empty_like(rea)
    best_value = -np.inf  # validation values are >= 0, so epoch 1 always improves
    with ExitStack() as stack:
        if split:
            own, receive = _FORWARD, _fork_backward(stack, sgd_epoch, pro, rea, cfg.epochs)
        else:
            own, receive = _BOTH, None
        for epoch in range(1, cfg.epochs + 1):
            sgd_epoch(own, terms[own])
            if receive is not None:
                receive(terms[1], pro[1], rea[1])
            train_loss = math.nan
            if loss:
                # one addition per user in epoch order, not a (pairwise) array sum
                loss_sum = 0.0
                for term in (terms[0] + terms[1]).tolist():
                    loss_sum += term
                train_loss = loss_sum / n_pro
            # the last minibatches can overflow the tables while the loss is still finite
            try:
                if not ((not loss or np.isfinite(train_loss))
                        and np.isfinite(pro).all() and np.isfinite(rea).all()):
                    raise DivergenceError("non-finite training loss or embeddings")
                value = validation_metric(model, dataset, metric_kind, cfg.k_valid, val_ctx)
            except DivergenceError as exc:
                raise DivergenceError(f"{exc} at epoch {epoch} (learning rate {cfg.learning_rate})") from None
            log.records.append(EpochRecord(epoch=epoch, train_loss=train_loss, valid_metric=value))
            if value > best_value:
                best_value = value
                np.copyto(best_pro, pro)
                np.copyto(best_rea, rea)

    return RankerModel(best_pro[0], best_rea[0], best_pro[1], best_rea[1]), log


def _fork_backward(stack: ExitStack, sgd_epoch, pro, rea, epochs: int):
    """Step the backward space in a forked :class:`Worker` for ``epochs`` epochs.

    After each epoch the worker writes the space's loss terms (computed or
    not) and tables to one pipe and goes on without waiting: the pipe is
    enlarged to 1 MiB where Linux allows, so it holds several epochs of a
    200x200 run, and a default-size pipe only makes the worker wait more.
    Returns ``receive(terms, pro, rea)``, which reads the next epoch into the
    given arrays.  The worker is killed and reaped, also while it is blocked
    in a write, and the pipe is closed when ``stack`` closes.
    """
    import fcntl  # not on Windows, where nothing forks

    reader, writer = map(open, os.pipe(), ("rb", "wb"))
    stack.enter_context(reader)
    with suppress(OSError):
        fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, 1 << 20)

    def backward():
        reader.close()  # so that a write fails, not blocks, once this process has exited
        terms = np.zeros((1, pro.shape[1]))
        for _ in range(epochs):
            sgd_epoch(_BACKWARD, terms)
            for table in (terms, pro[1], rea[1]):
                writer.write(table)
            writer.flush()

    try:
        worker = stack.enter_context(Worker(backward))
    finally:
        writer.close()  # so that this process sees end-of-file when the worker exits

    def receive(*into) -> None:
        for target in into:
            if reader.readinto(target) < target.nbytes:
                raise MatchLtrError(
                    f"training: the backward-space worker exited with status {worker.wait()}")

    return receive


# ---------------------------------------------------------------------------
# test evaluation
# ---------------------------------------------------------------------------

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

    ``label_mode="sampled"`` draws relevance bits from the preference matrix
    (seeded per fold, so every method sees the same labels); ``"expected"``
    uses the exact expectation of the ``+1``-floor gain ``2**(r_fwd*(1+r_bwd))``.
    The model, the preference matrix and the fold plan must have equal sizes.
    """
    _same_shape({"model": model, "preference matrix": m, "fold plan": plan})
    test_users, test_cands = plan.block(plan.test_fold)
    scores = score_matrix(model, test_users, test_cands)
    block = np.ix_(test_users, test_cands)

    if label_mode == "sampled":
        rng = np.random.default_rng(labels_seed)
        r_fwd = (rng.random(m.forward.shape) < m.forward)[block]
        r_bwd = (rng.random(m.backward.shape) < m.backward)[block]
        gains = 1.0 + gain_true(r_fwd, r_bwd)
    elif label_mode == "expected":
        f, b = m.forward[block], m.backward[block]
        gains = (1.0 - f) + 2.0 * f * (1.0 - b) + 4.0 * f * b
    else:
        raise ContractViolation(f"unknown label mode {label_mode!r}")

    records = []
    for k in k_values:
        mean = _user_mean(dcg_from_gains(scores, gains, k))
        records.append(EvalRecord(
            fold=plan.test_fold,
            eta=float(eta),
            method=method,
            k=_index(k),
            dcg_mean=mean.value,
            dcg_stderr=mean.stderr,
            n_users=mean.n_users,
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
        object.__setattr__(self, "etas", tuple(_real(eta, "eta") for eta in self.etas))
        object.__setattr__(self, "folds", _index(self.folds))
        for name in ("k_values", "seeds", "test_folds"):
            if (values := getattr(self, name)) is not None:
                object.__setattr__(self, name, tuple(map(_index, values)))
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


def default_method_configs(base: TrainConfig | None = None) -> dict[LossKind, TrainConfig]:
    """One config per loss variant, sharing every other hyperparameter."""
    base = base or TrainConfig()
    return {kind: replace(base, loss_kind=kind) for kind in LossKind}


def run_experiment(
    m: PreferenceMatrix,
    plan: ExperimentPlan,
    cfgs: Mapping[LossKind, TrainConfig] | None = None,
    progress=None,
) -> list[EvalRecord]:
    """Run the full (seed, eta, fold, method) grid and collect DCG records.

    Folds are drawn once per seed and the test fold rotates through them.
    Test labels depend only on (seed, fold), so all methods and etas of a
    fold are scored against identical relevance draws.  Per-cell training
    seeds are derived from the plan seed; ``cfg.seed`` is ignored here.
    Cells discard their training logs, so they train with ``_loss=False``:
    the training loss is computed only where a log is kept (``train``).
    """
    cfgs = cfgs or default_method_configs()
    sides = SideAssignment.trivial(m.n_proactive, m.n_reactive)
    records: list[EvalRecord] = []
    for seed in plan.seeds:
        base_folds = make_folds(sides, plan.folds, derive_seed(seed, "folds"))
        for eta in plan.etas:
            exposure = exposure_from_popularity(m, eta)
            for fold in plan.test_folds or range(plan.folds):
                fplan = replace(base_folds, test_fold=fold)
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
                    model, _ = train_model(dataset, cell_cfg, _loss=False)
                    records.extend(test_dcg_records(
                        model, m, fplan, eta, kind.value, plan.k_values, labels_seed,
                    ))
                    if progress is not None:
                        progress(seed=seed, eta=eta, fold=fold, method=kind.value)
    return records

