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
import mmap
import operator
import os
import select
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import _BLAS_THREAD_VARS
from .core import (
    ContractViolation,
    DivergenceError,
    FoldPlan,
    MatchLtrError,
    PreferenceMatrix,
    SideAssignment,
    UndefinedAverageError,
)
from .metrics import (  # bench/tracing.py wraps dcg_at_k and estimate_metric here
    EstimatorKind,
    LambdaWeight,
    _coefficients,
    _discounted,
    _gain,
    _user_mean,
    dcg_at_k,
    dcg_from_gains,
    estimate_metric,
    gain_true,
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
    val_users, val_cands = plan.block(plan.validation_fold)
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


# A run splits over two processes when n_proactive * n_reactive * dim * epochs
# reaches this.  A split costs 7-15 ms at 200x200 to 500x500 (the fork, and
# page faults on memory that both processes then write), so a smaller run
# gains less than that (BENCH_split_spaces.json).
_SPLIT_WORK = 1 << 26
_SPIN_S = 0.05  # how long a barrier polls before it blocks
_FORWARD, _BACKWARD, _BOTH = slice(0, 1), slice(1, 2), slice(0, 2)


@np.errstate(over="ignore", invalid="ignore")  # divergence is a DivergenceError, not a warning
def train_model(dataset: FeedbackDataset, cfg: TrainConfig) -> tuple[RankerModel, TrainingLog]:
    """SGD-train a ranker and return the checkpoint with the best validation value.

    The log holds one record per epoch (mean per-user training loss as
    encountered during the epoch, then the post-epoch validation metric).
    With ``epochs=0`` the freshly initialized model is returned unchanged;
    otherwise every pair outside the test block must be observed.

    Each minibatch subtracts ``learning_rate * grad / batch``, scaled in the
    kernel's own gradient buffers, from the batch's proactive rows and every
    reactive row.  The best epoch is copied into stacks allocated once per run.

    The two embedding spaces step independently, so a big enough run
    (``n_proactive * n_reactive * dim * epochs`` at least ``_SPLIT_WORK``),
    with at least two :func:`~matchltr.util.usable_cores` and the BLAS thread
    variables at ``1``, is split: a forked worker steps the backward space,
    drawing the same minibatch order, and after each epoch hands this process
    its loss terms and tables.  The result is bit for bit that of one process.
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

    def sgd_epoch(spaces: slice, out: np.ndarray) -> None:
        """One epoch on the embedding spaces ``spaces``; their loss terms go to ``out``."""
        space_pro, space_rea = pro[spaces], rea[spaces]
        space_coef, space_sum = coef[spaces], coef_sum[spaces]
        order = rng.permutation(n_pro)
        for start in range(0, n_pro, cfg.batch):
            # a slice of a permutation: no user repeats, so the batch's
            # proactive gradient rows can be subtracted by fancy indexing
            batch = order[start:start + cfg.batch]
            batch_terms, grad_pro, grad_rea = accumulate_gradient(
                model, batch, mask[batch], space_coef.take(batch, axis=1),
                space_sum[:, batch], spaces,
            )
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

    # a BLAS thread pool is threads outside Python, which usable_cores cannot
    # see, and would compete with the worker for the same cores
    split = (n_pro * plan.n_reactive * cfg.dim * cfg.epochs >= _SPLIT_WORK
             and all(os.environ.get(var) == "1" for var in _BLAS_THREAD_VARS)
             and usable_cores() >= 2)
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
                receive(epoch, terms[1], pro[1], rea[1])
            # one addition per user in epoch order, not a (pairwise) array sum
            loss_sum = 0.0
            for loss in (terms[0] + terms[1]).tolist():
                loss_sum += loss
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


def _fork_backward(stack: ExitStack, sgd_epoch, pro, rea, epochs: int):
    """Step the backward space in a forked :class:`Worker` for ``epochs`` epochs.

    After each epoch the worker puts the space's loss terms and tables into
    one of two slots of an anonymous shared mapping, by epoch parity, and both
    processes meet at a barrier.  Returns ``receive(epoch, terms, pro, rea)``,
    which waits for that epoch and copies it into the given arrays; a slot is
    written again only two barriers later, after this process has read it.
    The worker is killed and reaped and its pipes are closed when ``stack``
    closes; the mapping goes with the last reference to ``receive``.
    """
    shapes = [(2, pro.shape[1]), (2, *pro.shape[1:]), (2, *rea.shape[1:])]
    sizes = [math.prod(shape) for shape in shapes]
    shared = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), np.float64)
    slots = [a.reshape(shape)
             for a, shape in zip(np.split(shared, np.cumsum(sizes)[:-1]), shapes)]
    # (read, write) ends: worker to this process, this process to the worker
    up_r, up_w, down_r, down_w = (stack.enter_context(open(fd, mode, buffering=0))
                                  for fd, mode in zip((*os.pipe(), *os.pipe()), ("rb", "wb") * 2))
    for end in (up_r, down_r):
        os.set_blocking(end.fileno(), False)

    def backward():
        up_r.close()  # so that each side sees end-of-file when the other exits
        down_w.close()
        for epoch in range(1, epochs + 1):
            slot_terms, slot_pro, slot_rea = (a[epoch % 2] for a in slots)
            sgd_epoch(_BACKWARD, slot_terms[None])
            np.copyto(slot_pro, pro[1])
            np.copyto(slot_rea, rea[1])
            if not _barrier(up_w, down_r):
                return

    try:
        worker = stack.enter_context(Worker(backward))
    finally:
        down_r.close()
        up_w.close()

    def receive(epoch: int, *into) -> None:
        if not _barrier(down_w, up_r):
            raise MatchLtrError(
                f"training: the backward-space worker exited with status {worker.wait()}")
        for target, slot in zip(into, slots):
            np.copyto(target, slot[epoch % 2])

    return receive


def _barrier(send, recv) -> bool:
    """Send the peer process one byte and wait for its byte; False once it has exited.

    ``recv`` is non-blocking.  The wait polls, yielding the core, for up to
    ``_SPIN_S`` before it blocks in ``select``.  A wait that blocks at once
    lets the waiting vCPU halt, and waking it every epoch made a split
    200x200 run slower than one process (BENCH_split_spaces.json).
    """
    try:
        send.write(b"\0")
    except BrokenPipeError:
        return False
    deadline = time.perf_counter() + _SPIN_S
    while (byte := recv.read(1)) is None:
        if time.perf_counter() < deadline:
            os.sched_yield()
        else:
            select.select([recv], [], [])
    return byte == b"\0"  # b"" at end of file


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
    sizes = {
        "model": (model.n_proactive, model.n_reactive),
        "preference matrix": m.forward.shape,
        "fold plan": (plan.n_proactive, plan.n_reactive),
    }
    if len(set(sizes.values())) > 1:
        detail = ", ".join(f"{name} {p}x{r}" for name, (p, r) in sizes.items())
        raise ContractViolation(f"proactive x reactive sizes disagree: {detail}")
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
        per_user = dcg_from_gains(scores, gains, k)
        mean = _user_mean(per_user)
        n = mean.n_users
        stderr = float(per_user.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        records.append(EvalRecord(
            fold=plan.test_fold,
            eta=float(eta),
            method=method,
            k=int(k),
            dcg_mean=mean.value,
            dcg_stderr=stderr,
            n_users=n,
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
                        model, m, fplan, eta, kind.value, plan.k_values, labels_seed,
                    ))
                    if progress is not None:
                        progress(seed=seed, eta=eta, fold=fold, method=kind.value)
    return records

