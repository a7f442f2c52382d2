"""Training loop, checkpoint selection, and experiment-driver contracts."""

import gc
import itertools
import json
import os
import signal
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from matchltr import (
    ContractViolation,
    DataFormatError,
    DivergenceError,
    EstimatorKind,
    ExposureModel,
    ExperimentPlan,
    FoldPlan,
    LambdaWeight,
    LossKind,
    MatchLtrError,
    PreferenceMatrix,
    RankedList,
    SideAssignment,
    TrainConfig,
    UndefinedAverageError,
    default_method_configs,
    derive_seed,
    estimate_metric,
    exposure_from_popularity,
    init_model,
    load_fold_plan,
    load_training_log,
    make_folds,
    run_experiment,
    sample_dataset,
    save_fold_plan,
    save_training_log,
    synth_preferences,
    train_model,
    validation_metric,
)
from matchltr import train
from matchltr.metrics import feedback_coefficients, rank_candidates
from matchltr.ranker import PROB_FLOOR, SPACES, GradientTables, accumulate_gradient, score_matrix
from matchltr.train import (
    EpochRecord,
    TrainingLog,
    _loss_tables,
    _per_user_training_data,
    _validation_context,
)
from matchltr.train import test_dcg_records as dcg_records  # not a test for pytest to collect
from matchltr.util import sigmoid

TABLES = ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd")


def _world(n=12, eta=0.8, k=3, seed=0, m_seed=1):
    rng = np.random.default_rng(m_seed)
    m = PreferenceMatrix(forward=rng.random((n, n)) * 0.9 + 0.05,
                         backward=rng.random((n, n)) * 0.9 + 0.05)
    exposure = exposure_from_popularity(m, eta)
    plan = make_folds(SideAssignment.trivial(n, n), k, seed=seed)
    dataset = sample_dataset(m, exposure, plan, seed=seed + 100)
    return m, exposure, plan, dataset


class TestTrainConfig:
    def test_validation_pairing(self):
        assert LossKind.CONVENTIONAL.paired_metric is EstimatorKind.NAIVE
        assert LossKind.IPW1.paired_metric is EstimatorKind.IPW1
        assert LossKind.IPW2.paired_metric is EstimatorKind.IPW2

    def test_positivity_checks(self):
        with pytest.raises(ContractViolation):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=-1)
        with pytest.raises(ContractViolation):
            TrainConfig(batch=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", np.nan), ("learning_rate", np.inf),
    ])
    def test_non_finite_rates_rejected(self, field, value):
        with pytest.raises(ContractViolation, match=field.replace("_", " ")):
            TrainConfig(**{field: value})


class TestTrainModel:
    def test_zero_epochs_returns_initialized_model(self):
        _, _, _, dataset = _world()
        cfg = TrainConfig(dim=4, epochs=0, seed=9)
        model, log = train_model(dataset, cfg)
        fresh = init_model(dataset.n_proactive, dataset.n_reactive, 4,
                           derive_seed(9, "init"))
        for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
            assert np.array_equal(getattr(model, name), getattr(fresh, name))
        assert log.records == [] and log.best_epoch is None

    def test_unit_exposure_trajectories_collapse_bitwise(self):
        # eta = 0 gives theta = 1 everywhere; all three losses and their
        # validation metrics must then coincide bit-for-bit, epoch by epoch
        _, _, _, dataset = _world(eta=0.0)
        assert (dataset.theta_fwd == 1.0).all() and (dataset.theta_bwd == 1.0).all()
        outputs = {}
        for kind in LossKind:
            cfg = TrainConfig(loss_kind=kind, dim=4, epochs=12,
                              learning_rate=0.3, batch=4, seed=5)
            outputs[kind] = train_model(dataset, cfg)
        base_model, base_log = outputs[LossKind.CONVENTIONAL]
        for kind in (LossKind.IPW1, LossKind.IPW2):
            model, log = outputs[kind]
            assert log.records == base_log.records
            for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
                assert np.array_equal(getattr(model, name), getattr(base_model, name))

    def test_checkpoint_has_best_validation_value(self):
        _, _, _, dataset = _world()
        cfg = TrainConfig(loss_kind=LossKind.IPW2, dim=4, epochs=10,
                          learning_rate=0.3, batch=4, seed=2, k_valid=3)
        model, log = train_model(dataset, cfg)
        values = [r.valid_metric for r in log.records]
        assert log.best_valid_metric == max(values)
        # training went on past the kept epoch and the last epoch scores lower,
        # so a snapshot that aliased the live tables would fail the check below
        assert log.best_epoch < cfg.epochs and values[-1] < max(values)
        recomputed = validation_metric(model, dataset, EstimatorKind.IPW2, 3)
        assert recomputed == max(values)

    def test_training_reduces_loss(self):
        _, _, _, dataset = _world()
        cfg = TrainConfig(loss_kind=LossKind.CONVENTIONAL, dim=8, epochs=30,
                          learning_rate=0.3, batch=6, seed=3)
        _, log = train_model(dataset, cfg)
        losses = [r.train_loss for r in log.records]
        assert losses[-1] < losses[0]

    def test_reproducible_bitwise(self):
        _, _, _, dataset = _world()
        cfg = TrainConfig(loss_kind=LossKind.IPW1, dim=4, epochs=8,
                          learning_rate=0.2, batch=5, seed=11)
        m1, log1 = train_model(dataset, cfg)
        m2, log2 = train_model(dataset, cfg)
        assert log1.records == log2.records
        for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))

    def test_test_block_isolation(self):
        _, _, plan, dataset = _world()
        test_mask = plan.test_mask()
        for u, (cands, *_rest) in enumerate(_per_user_training_data(dataset)):
            assert not test_mask[u, cands].any()
        val_users, val_cands, *_ = _validation_context(dataset, EstimatorKind.IPW2)
        assert not test_mask[np.ix_(val_users, val_cands)].any()

    def test_strongly_biased_1000_market(self):
        # at eta 3 the smallest propensity is 0.013 and the largest possible
        # two-sided weight 1 / (theta_fwd * theta_bwd) about 3.2e3
        m = synth_preferences(1000, 1000, rank=4, noise=0.05, seed=5)
        plan = make_folds(SideAssignment.trivial(1000, 1000), 5, seed=6)
        dataset = sample_dataset(m, exposure_from_popularity(m, 3.0), plan, seed=7)
        cfg = TrainConfig(loss_kind=LossKind.IPW2, epochs=3, learning_rate=0.2,
                          batch=32, seed=8)
        model, log = train_model(dataset, cfg)
        assert [r.epoch for r in log.records] == [1, 2, 3]
        assert all(np.isfinite([r.train_loss, r.valid_metric]).all() for r in log.records)
        assert model.w_pro_fwd.shape == model.w_pro_bwd.shape == (1000, 64)
        assert model.w_rea_fwd.shape == model.w_rea_bwd.shape == (1000, 64)

    @pytest.mark.parametrize("block", ["train", "validation"])
    def test_unobserved_pair_names_the_user(self, block):
        _, _, plan, dataset = _world()
        mask = plan.train_mask() if block == "train" else plan.validation_mask()
        u, v = np.argwhere(mask)[-1]
        observed = dataset.observed.copy()
        observed[u, v] = False
        gap = {name: np.where(observed, getattr(dataset, name), 0)
               for name in ("r_fwd", "r_bwd", "o_fwd", "o_bwd", "y_fwd", "y_bwd")}
        gap.update({name: np.where(observed, getattr(dataset, name), 1.0)
                    for name in ("theta_fwd", "theta_bwd")})
        dataset = replace(dataset, observed=observed, **gap)
        with pytest.raises(ContractViolation, match=rf"user {u} has an unobserved pair \(v={v}\)"):
            train_model(dataset, TrainConfig(dim=2, epochs=1))

    def test_divergence_raises(self):
        _, _, _, dataset = _world()
        cfg = TrainConfig(loss_kind=LossKind.CONVENTIONAL, dim=4, epochs=200,
                          learning_rate=1e12, batch=12, seed=0)
        with pytest.raises(DivergenceError, match="epoch"):
            train_model(dataset, cfg)

    def test_divergence_within_an_epoch_raises(self):
        # the last minibatches overflow the tables while the epoch's loss is finite
        m = synth_preferences(40, 40, rank=3, noise=0.05, seed=1)
        plan = make_folds(SideAssignment.trivial(40, 40), 4, seed=0)
        dataset = sample_dataset(m, exposure_from_popularity(m, 1.0), plan, seed=1)
        cfg = TrainConfig(loss_kind=LossKind.IPW2, dim=8, batch=8, epochs=5,
                          learning_rate=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warnings on the way
            with pytest.raises(DivergenceError, match=r"epoch 1 \(learning rate 1e\+200\)"):
                train_model(dataset, cfg)


class TestValidationTable:
    """validation_metric reads a per-run gain table; the public estimator pins its bits."""

    @pytest.mark.parametrize("trained", [False, True])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_equals_estimate_metric_bitwise(self, kind, trained):
        _, _, plan, dataset = _world(n=14, eta=1.2)
        val_users = np.asarray(plan.proactive_folds[plan.validation_fold])
        val_cands = np.asarray(plan.reactive_folds[plan.validation_fold])
        if trained:
            loss_kind = next(lk for lk in LossKind if lk.paired_metric is kind)
            cfg = TrainConfig(loss_kind=loss_kind, dim=4, epochs=6, learning_rate=0.3,
                              batch=4, seed=3, k_valid=3)
            model, _ = train_model(dataset, cfg)
        else:
            model = init_model(plan.n_proactive, plan.n_reactive, 4, seed=3)
        block = np.ix_(val_users, val_cands)
        tables = [t[block] for t in (dataset.y_fwd, dataset.y_bwd,
                                     dataset.theta_fwd, dataset.theta_bwd)]
        ranking = rank_candidates(score_matrix(model, val_users, val_cands))
        ctx = _validation_context(dataset, kind)
        for k in (1, 3, val_cands.size + 5):
            expected = estimate_metric(kind, ranking, *tables, LambdaWeight(k)).value
            assert validation_metric(model, dataset, kind, k).hex() == expected.hex()
            assert validation_metric(model, dataset, kind, k, ctx).hex() == expected.hex()

    def test_empty_validation_block_raises(self):
        # test fold 0, so the validation block is proactive fold 1, which is empty
        plan = FoldPlan(k=3, proactive_folds=((0, 1, 2), (), (3, 4, 5)),
                        reactive_folds=((0, 1), (2, 3), (4, 5)))
        rng = np.random.default_rng(1)
        m = PreferenceMatrix(forward=rng.random((6, 6)) * 0.9 + 0.05,
                             backward=rng.random((6, 6)) * 0.9 + 0.05)
        dataset = sample_dataset(m, exposure_from_popularity(m, 0.8), plan, seed=2)
        with pytest.raises(UndefinedAverageError):
            train_model(dataset, TrainConfig(dim=2, epochs=1))
        with pytest.raises(UndefinedAverageError):
            validation_metric(init_model(6, 6, 2, seed=0), dataset, EstimatorKind.IPW2, 3)


def _reference_user_gradient(model, u, cands, coef_fwd, coef_bwd, out):
    """One user's loss, adding its gradient into ``out``, one space at a time."""
    losses = []
    for w_pro, w_rea, coef, grad_pro, grad_rea in (
        (model.w_pro_fwd, model.w_rea_fwd, coef_fwd, out.w_pro_fwd, out.w_rea_fwd),
        (model.w_pro_bwd, model.w_rea_bwd, coef_bwd, out.w_pro_bwd, out.w_rea_bwd),
    ):
        w_cands = w_rea[cands]
        s = sigmoid(w_cands @ w_pro[u])
        p = s / s.sum()
        losses.append(float(-(coef @ np.log(np.maximum(p, PROB_FLOOR)))))
        dz = (coef.sum() * p - coef) * (1.0 - s)
        grad_pro[u] += dz @ w_cands
        grad_rea[cands] += dz[:, None] * w_pro[u][None, :]
    return losses[0] + losses[1]


def _reference_train(dataset, cfg):
    """train_model as a loop over users, one gradient call each."""
    plan = dataset.fold_plan
    model = init_model(plan.n_proactive, plan.n_reactive, cfg.dim, derive_seed(cfg.seed, "init"))
    per_user = [
        (cands, *feedback_coefficients(cfg.loss_kind.paired_metric, *feedback))
        for cands, *feedback in _per_user_training_data(dataset)
    ]
    rng = np.random.default_rng(derive_seed(cfg.seed, "epochs"))
    log, best_model, best_value = TrainingLog(), None, -np.inf
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(plan.n_proactive)
        loss_sum = 0.0
        for start in range(0, order.size, cfg.batch):
            batch = order[start:start + cfg.batch]
            grads = GradientTables.zeros_like(model)
            for u in batch:
                loss_sum += _reference_user_gradient(model, u, *per_user[u], grads)
            for name in TABLES:
                table, grad = getattr(model, name), getattr(grads, name)
                grad *= 1.0 / batch.size
                table -= cfg.learning_rate * grad
        value = validation_metric(model, dataset, cfg.loss_kind.paired_metric, cfg.k_valid)
        log.records.append(EpochRecord(epoch, loss_sum / plan.n_proactive, value))
        if value > best_value:
            best_model, best_value = model.copy(), value
    return best_model, log


# The minibatch kernel sums in another order than the per-user loop, so the
# two agree to this tolerance relative to the largest magnitude compared.
RTOL = 1e-12


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=RTOL * np.abs(expected).max())


class TestMinibatchGradientBitIdentity:
    """train_model against the per-user loop, equal up to float order."""

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_matches_per_user_loop(self, kind):
        # 13 users in 3 folds: training rows of 8, 9 and 13 candidates, batches of 5, 5 and 3
        _, _, plan, dataset = _world(n=13, eta=1.2)
        assert len({int(row.sum()) for row in plan.train_mask()}) > 1
        cfg = TrainConfig(loss_kind=kind, dim=6, epochs=6, learning_rate=0.3,
                          batch=5, seed=4, k_valid=3)
        model, log = train_model(dataset, cfg)
        ref_model, ref_log = _reference_train(dataset, cfg)
        for name in TABLES:
            assert_close(getattr(model, name), getattr(ref_model, name))
        assert [r.epoch for r in log.records] == [r.epoch for r in ref_log.records]
        for field in ("train_loss", "valid_metric"):
            assert_close(
                np.array([getattr(r, field) for r in log.records]),
                np.array([getattr(r, field) for r in ref_log.records]),
            )


def _buffered_train(dataset, cfg):
    """train_model with a gradient buffer: the kernel's pieces are scattered
    into full gradient tables, scaled by 1/batch and subtracted from every row."""
    plan = dataset.fold_plan
    model = init_model(plan.n_proactive, plan.n_reactive, cfg.dim, derive_seed(cfg.seed, "init"))
    mask, coef, _ = _loss_tables(dataset, cfg.loss_kind)
    rng = np.random.default_rng(derive_seed(cfg.seed, "epochs"))
    log, best_model, best_value = TrainingLog(), None, -np.inf
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(plan.n_proactive)
        loss_sum = 0.0
        for start in range(0, order.size, cfg.batch):
            batch = order[start:start + cfg.batch]
            terms, grad_pro, grad_rea = accumulate_gradient(
                model, batch, mask[batch], coef[:, batch]
            )
            pieces = zip(grad_pro, grad_rea)
            for loss in (terms[:, 0] + terms[:, 1]).tolist():
                loss_sum += loss
            grads = GradientTables.zeros_like(model)
            for (pro, rea), (grad_pro, grad_rea) in zip(SPACES, pieces):
                np.add.at(getattr(grads, pro), batch, grad_pro)
                getattr(grads, rea)[:] += grad_rea
            for name in TABLES:
                table, grad = getattr(model, name), getattr(grads, name)
                grad *= 1.0 / batch.size
                table -= cfg.learning_rate * grad
        value = validation_metric(model, dataset, cfg.loss_kind.paired_metric, cfg.k_valid)
        log.records.append(EpochRecord(epoch, loss_sum / plan.n_proactive, value))
        if value > best_value:
            best_model, best_value = model.copy(), value
    return best_model, log


@pytest.mark.parametrize("kind", list(LossKind))
def test_in_place_step_matches_buffered_step(kind):
    # 30 users in batches of 8, 8, 8 and 6
    _, _, _, dataset = _world(n=30, eta=1.0)
    cfg = TrainConfig(loss_kind=kind, dim=8, epochs=5, learning_rate=0.3,
                      batch=8, seed=6, k_valid=5)
    model, log = train_model(dataset, cfg)
    ref_model, ref_log = _buffered_train(dataset, cfg)
    for name in TABLES:
        assert np.array_equal(getattr(model, name), getattr(ref_model, name))
    assert log.records == ref_log.records


def _per_space_kernel(model, users, mask_rows, coef_fwd, coef_bwd):
    """The minibatch kernel one embedding space at a time, with the sigmoid
    written out: the byte-level reference for the stacked kernel."""
    terms = np.empty((users.size, 2))
    grads = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for space, ((pro, rea), coef) in enumerate(zip(SPACES, (coef_fwd, coef_bwd))):
            w_rea = getattr(model, rea)
            w_users = getattr(model, pro).take(users, axis=0)
            s = 1.0 / (1.0 + np.exp(-(w_users @ w_rea.T)))
            p = s * mask_rows
            p /= p.sum(axis=1, keepdims=True)
            log_p = np.log(np.maximum(p, PROB_FLOOR))
            terms[:, space] = -np.einsum("ij,ij->i", coef, log_p)
            dz = (coef.sum(axis=1, keepdims=True) * p - coef) * (1.0 - s)
            grads.append((dz @ w_rea, dz.T @ w_users))
    return terms, grads


def _per_space_train(dataset, cfg):
    """train_model with the per-space kernel and one update per named table."""
    plan = dataset.fold_plan
    model = init_model(plan.n_proactive, plan.n_reactive, cfg.dim, derive_seed(cfg.seed, "init"))
    mask = plan.train_mask()
    coef_fwd, coef_bwd = (
        np.where(mask, c, 0.0)
        for c in feedback_coefficients(cfg.loss_kind.paired_metric, dataset.y_fwd,
                                       dataset.y_bwd, dataset.theta_fwd, dataset.theta_bwd)
    )
    rng = np.random.default_rng(derive_seed(cfg.seed, "epochs"))
    log, best_model, best_value = TrainingLog(), None, -np.inf
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(plan.n_proactive)
        loss_sum = 0.0
        for start in range(0, order.size, cfg.batch):
            batch = order[start:start + cfg.batch]
            terms, grads = _per_space_kernel(
                model, batch, mask[batch], coef_fwd[batch], coef_bwd[batch]
            )
            for loss in (terms[:, 0] + terms[:, 1]).tolist():
                loss_sum += loss
            for space, space_grads in zip(SPACES, grads):
                for name, rows, grad in zip(space, (batch, slice(None)), space_grads):
                    getattr(model, name)[rows] -= cfg.learning_rate * (grad * (1.0 / batch.size))
        value = validation_metric(model, dataset, cfg.loss_kind.paired_metric, cfg.k_valid)
        log.records.append(EpochRecord(epoch, loss_sum / plan.n_proactive, value))
        if value > best_value:
            best_model, best_value = model.copy(), value
    return best_model, log


@pytest.mark.parametrize("batch", [16, 7])
@pytest.mark.parametrize("kind", list(LossKind))
def test_stacked_step_matches_per_space_step(kind, batch):
    # 30 users: batches of 16 and 14, or four of 7 and a short one of 2
    _, _, _, dataset = _world(n=30, eta=1.0)
    cfg = TrainConfig(loss_kind=kind, dim=8, epochs=5, learning_rate=0.3,
                      batch=batch, seed=7, k_valid=5)
    model, log = train_model(dataset, cfg)
    ref_model, ref_log = _per_space_train(dataset, cfg)
    for name in TABLES:
        assert np.array_equal(getattr(model, name), getattr(ref_model, name))
    assert log.records == ref_log.records


@pytest.mark.parametrize("n, batch", [(200, 16), (500, 32), (60, 16), (37, 5)])
def test_one_space_kernel_is_the_stacked_kernel(n, batch):
    # a split run steps each space alone; its bits must be the stacked call's
    rng = np.random.default_rng(n)
    model = init_model(n, n, 64, seed=n)
    users = rng.permutation(n)[:batch]
    mask = rng.random((batch, n)) < 0.7
    coef = rng.random((2, batch, n)) * mask
    terms, grad_pro, grad_rea = accumulate_gradient(model, users, mask, coef)
    for space in (slice(0, 1), slice(1, 2)):
        one = accumulate_gradient(model, users, mask, coef[space], spaces=space)
        for stacked, alone in zip((terms.T, grad_pro, grad_rea), (one[0].T, *one[1:])):
            assert np.array_equal(stacked[space], alone)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="counts fds and mappings in /proc")
class TestSplitSpaces:
    """A run big enough trains the backward space in a forked worker, to the
    bytes of one process.  The core count and the work threshold are patched."""

    @pytest.fixture(autouse=True)
    def _deadline(self):
        """A barrier that never returns fails the test instead of hanging it."""
        def expire(signum, frame):
            raise TimeoutError("training did not finish in 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def _split(monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(train, "_SPLIT_WORK", 0)

    @staticmethod
    def _count_forks(monkeypatch):
        forks, fork = [], os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @staticmethod
    def _resources():
        """Open fds and shared mappings of this process, after a garbage collection."""
        gc.collect()
        with open("/proc/self/maps") as maps:
            shared = sum(" rw-s " in line for line in maps)
        return sorted(os.listdir("/proc/self/fd")), shared

    def _assert_released(self, before):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert self._resources() == before

    @staticmethod
    def _world():
        # 23 users in batches of 5 leave a ragged batch of 3; the validation
        # fold (1) holds one proactive user
        m = synth_preferences(23, 19, rank=3, noise=0.05, seed=4)
        plan = FoldPlan(3, (tuple(range(11)), (11,), tuple(range(12, 23))),
                        (tuple(range(6)), tuple(range(6, 12)), tuple(range(12, 19))))
        return sample_dataset(m, exposure_from_popularity(m, 1.0), plan, seed=5)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_split_equals_serial(self, monkeypatch, kind):
        dataset = self._world()
        cfg = TrainConfig(loss_kind=kind, dim=6, epochs=7, learning_rate=0.4, batch=5,
                          seed=8, k_valid=4)
        serial_model, serial_log = train_model(dataset, cfg)
        before = self._resources()
        self._split(monkeypatch, 2)
        forks = self._count_forks(monkeypatch)
        model, log = train_model(dataset, cfg)
        assert len(forks) == 1
        assert log.records == serial_log.records
        for name in TABLES:
            assert np.array_equal(getattr(model, name), getattr(serial_model, name))
        self._assert_released(before)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_two_processes_on_one_core(self, monkeypatch):
        """Many barriers while the worker and this process preempt each other on
        one core: a slot read before it was written, or overwritten before it
        was read, would change the records."""
        dataset = _world()[3]
        cfg = TrainConfig(loss_kind=LossKind.IPW2, dim=4, epochs=300, learning_rate=0.05,
                          batch=5, seed=4)
        serial_model, serial_log = train_model(dataset, cfg)
        cores = os.sched_getaffinity(0)
        self._split(monkeypatch, 2)
        os.sched_setaffinity(0, {min(cores)})  # the worker inherits it
        try:
            model, log = train_model(dataset, cfg)
        finally:
            os.sched_setaffinity(0, cores)
        assert log.records == serial_log.records
        assert np.array_equal(model.pro, serial_model.pro)
        assert np.array_equal(model.rea, serial_model.rea)

    @staticmethod
    def _diverging(case):
        """The two divergence cases of ``TestTrainModel`` and the message each gives."""
        if case == "loss":
            return _world()[3], TrainConfig(dim=4, epochs=200, learning_rate=1e12, batch=12), "epoch"
        # the last minibatches overflow the tables while the epoch's loss is finite
        m = synth_preferences(40, 40, rank=3, noise=0.05, seed=1)
        plan = make_folds(SideAssignment.trivial(40, 40), 4, seed=0)
        dataset = sample_dataset(m, exposure_from_popularity(m, 1.0), plan, seed=1)
        cfg = TrainConfig(loss_kind=LossKind.IPW2, dim=8, batch=8, epochs=5, learning_rate=1e200)
        return dataset, cfg, r"epoch 1 \(learning rate 1e\+200\)"

    @pytest.mark.parametrize("case", ["loss", "tables"])
    def test_divergence_is_the_serial_error(self, monkeypatch, case):
        dataset, cfg, message = self._diverging(case)
        with pytest.raises(DivergenceError, match=message) as serial:
            train_model(dataset, cfg)
        expected = str(serial.value)
        del serial
        before = self._resources()
        self._split(monkeypatch, 2)
        forks = self._count_forks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warnings on the way
            with pytest.raises(DivergenceError) as split:
                train_model(dataset, cfg)
        assert len(forks) == 1
        assert type(split.value) is DivergenceError and str(split.value) == expected
        del split
        self._assert_released(before)

    def test_dead_worker_raises(self, monkeypatch):
        dataset = self._world()
        parent, calls = os.getpid(), []

        def dies_in_the_worker(*args):
            calls.append(None)
            if os.getpid() != parent and len(calls) == 12:  # in the third epoch
                os._exit(3)
            return accumulate_gradient(*args)

        before = self._resources()
        self._split(monkeypatch, 2)
        monkeypatch.setattr(train, "accumulate_gradient", dies_in_the_worker)
        with pytest.raises(MatchLtrError, match="backward-space worker exited with status 3") as err:
            train_model(dataset, TrainConfig(dim=4, epochs=6, batch=5))
        del err
        self._assert_released(before)

    @pytest.mark.parametrize("reason", ["thread", "threshold", "blas"])
    def test_no_fork(self, monkeypatch, reason):
        dataset = self._world()
        cfg = TrainConfig(dim=4, epochs=3, batch=5)
        reference = train_model(dataset, cfg)
        self._split(monkeypatch, 4)

        def no_fork():
            raise AssertionError(f"forked ({reason})")

        monkeypatch.setattr(os, "fork", no_fork)
        if reason == "threshold":
            monkeypatch.setattr(train, "_SPLIT_WORK", 23 * 19 * 4 * 3 + 1)
        if reason == "blas":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if reason == "thread":
            thread.start()
        try:
            model, log = train_model(dataset, cfg)
        finally:
            stop.set()
            if reason == "thread":
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert log.records == reference[1].records
        assert np.array_equal(model.pro, reference[0].pro)


class TestSeparableToy:
    """Noiseless 4x4 block world, full exposure: training must reach the
    brute-force optimum of the validation metric at cutoff 1."""

    def _toy(self):
        # items 1 and 3 are relevant to every proactive user; backward side
        # always reciprocates; exposure is total
        forward = np.zeros((4, 4))
        forward[:, 1] = 1.0
        forward[:, 3] = 1.0
        backward = np.ones((4, 4))
        m = PreferenceMatrix(forward=forward, backward=backward)
        exposure = ExposureModel(eta=0.0,
                                 theta_reactive_exposure=np.ones(4),
                                 theta_proactive_exposure=np.ones(4))
        plan = FoldPlan(k=3,
                        proactive_folds=((0, 1), (2,), (3,)),
                        reactive_folds=((0, 1), (2,), (3,)),
                        test_fold=2)
        assert plan.validation_fold == 0
        dataset = sample_dataset(m, exposure, plan, seed=0)
        return dataset

    def _brute_force_best(self, dataset, k=1):
        plan = dataset.fold_plan
        val_users = plan.proactive_folds[plan.validation_fold]
        val_cands = list(plan.reactive_folds[plan.validation_fold])
        y_fwd = dataset.y_fwd
        y_bwd = dataset.y_bwd
        weight = LambdaWeight(k=k)
        best = 0.0
        for perms in itertools.product(itertools.permutations(val_cands),
                                       repeat=len(val_users)):
            rankings = [RankedList.from_indices(u, p)
                        for u, p in zip(val_users, perms)]
            value = estimate_metric(EstimatorKind.NAIVE, rankings, y_fwd, y_bwd,
                                    None, None, weight).value
            best = max(best, value)
        return best

    def test_reaches_brute_force_optimum(self):
        dataset = self._toy()
        best = self._brute_force_best(dataset)
        assert best == 3.0  # the mutual item ranked first for both users
        # seed 6 initializes with both validation users ranked wrong (metric 0),
        # so hitting the optimum genuinely requires learning
        initial = init_model(4, 4, 4, derive_seed(6, "init"))
        assert validation_metric(initial, dataset, EstimatorKind.NAIVE, 1) == 0.0
        cfg = TrainConfig(loss_kind=LossKind.CONVENTIONAL, dim=4, epochs=300,
                          learning_rate=0.5, batch=4, seed=6, k_valid=1)
        _, log = train_model(dataset, cfg)
        assert log.best_valid_metric == best


class TestEstimateMetricDispatch:
    def test_naive_ignores_thetas(self):
        # regression guard for the dispatch used by the toy's brute force
        rankings = [RankedList.from_indices(0, [0])]
        y = np.ones((1, 1))
        value = estimate_metric(EstimatorKind.NAIVE, rankings, y, y, None, None,
                                LambdaWeight(k=1))
        assert value.value == 3.0


class TestRunExperiment:
    def _matrix(self, n=10, seed=0):
        rng = np.random.default_rng(seed)
        return PreferenceMatrix(forward=rng.random((n, n)) * 0.9 + 0.05,
                                backward=rng.random((n, n)) * 0.9 + 0.05)

    def _cfg(self):
        return TrainConfig(dim=2, epochs=2, learning_rate=0.1, batch=8)

    def test_single_cell_row_count(self):
        m = self._matrix()
        plan = ExperimentPlan(etas=(0.5,), folds=5, k_values=(1, 2, 3),
                              test_folds=(0,))
        cfgs = {LossKind.CONVENTIONAL: self._cfg()}
        records = run_experiment(m, plan, cfgs)
        assert len(records) == 3  # one row per cutoff
        assert {r.method for r in records} == {"conventional"}

    def test_full_grid_row_count(self):
        m = self._matrix()
        plan = ExperimentPlan(etas=(0.0, 1.0), folds=2, k_values=(1, 3))
        records = run_experiment(m, plan, default_method_configs(self._cfg()))
        assert len(records) == 2 * 2 * 3 * 2  # etas x folds x methods x cutoffs

    def test_deterministic(self):
        m = self._matrix()
        plan = ExperimentPlan(etas=(0.7,), folds=2, k_values=(2,))
        cfgs = default_method_configs(self._cfg())
        assert run_experiment(m, plan, cfgs) == run_experiment(m, plan, cfgs)

    def test_labels_shared_across_methods_and_etas(self):
        m = self._matrix()
        plan = ExperimentPlan(etas=(0.0, 1.0), folds=2, k_values=(3,))
        records = run_experiment(m, plan, default_method_configs(self._cfg()))
        # every (eta, fold, method) cell is scored against its fold's labels
        keys = {(r.eta, r.fold, r.method) for r in records}
        assert len(keys) == 2 * 2 * 3

    def test_expected_labels_equal_sampled_labels_when_relevance_is_certain(self):
        # with 0/1 preferences every sampled bit is certain, so the expected
        # gain equals the sampled gain and both label modes give the same rows
        rng = np.random.default_rng(1)
        m = PreferenceMatrix(forward=(rng.random((10, 10)) < 0.5) * 1.0,
                             backward=(rng.random((10, 10)) < 0.5) * 1.0)
        plan = make_folds(SideAssignment.trivial(10, 10), 2, seed=0)
        model = init_model(10, 10, 3, seed=2)
        sampled, expected = (dcg_records(model, m, plan, 1.0, "ipw2", (1, 3, 10), 7, mode)
                             for mode in ("sampled", "expected"))
        assert sampled == expected

    def test_listed_block_order_changes_no_output(self, tmp_path):
        # a block is a set: a folds.json that lists each block reversed loads
        # as the sorted plan and gives the same training and test bits
        m = synth_preferences(40, 40, rank=3, noise=0.05, seed=2)
        plan = make_folds(SideAssignment.trivial(40, 40), 4, seed=1, test_fold=2)
        path = tmp_path / "folds.json"
        save_fold_plan(plan, path)
        payload = json.loads(path.read_text())
        for name in ("proactive_folds", "reactive_folds"):
            payload[name] = [block[::-1] for block in payload[name]]
        path.write_text(json.dumps(payload))
        shuffled = load_fold_plan(path)
        assert shuffled == plan
        exposure = exposure_from_popularity(m, 1.0)
        cfg = TrainConfig(loss_kind=LossKind.IPW2, dim=4, epochs=10, learning_rate=0.2, batch=8)
        outputs = []
        for p in (plan, shuffled):
            model, log = train_model(sample_dataset(m, exposure, p, seed=3), cfg)
            outputs.append((log.records, [dcg_records(model, m, p, 1.0, "ipw2", (3, 10), 7, mode)
                                          for mode in ("sampled", "expected")]))
        assert outputs[0] == outputs[1]

    def test_unit_exposure_methods_statistically_indistinguishable(self):
        m = self._matrix(n=14, seed=3)
        plan = ExperimentPlan(etas=(0.0,), folds=2, k_values=(3,))
        cfgs = default_method_configs(
            TrainConfig(dim=4, epochs=10, learning_rate=0.3, batch=7)
        )
        records = run_experiment(m, plan, cfgs)
        for fold in (0, 1):
            rows = [r for r in records if r.fold == fold]
            lo = max(r.dcg_mean - 2 * r.dcg_stderr for r in rows)
            hi = min(r.dcg_mean + 2 * r.dcg_stderr for r in rows)
            assert lo <= hi  # +/- 2 stderr intervals overlap


class TestLogAndConfigFiles:
    def test_training_log_round_trip(self, tmp_path):
        log = TrainingLog(records=[
            EpochRecord(1, 2.5, 0.75),
            EpochRecord(2, 1.25, 1.5),
            EpochRecord(3, 1.0, 1.5),
        ])
        path = tmp_path / "log.csv"
        save_training_log(log, path)
        again = load_training_log(path)
        assert again.records == log.records
        assert again.best_epoch == 2  # first of the tied maxima

    def test_training_log_golden_bytes(self, tmp_path):
        path = tmp_path / "log.csv"
        save_training_log(TrainingLog(records=[EpochRecord(1, 2.5, 0.75),
                                               EpochRecord(2, 0.1, 1 / 3)]), path)
        assert path.read_bytes() == (
            b"epoch,train_loss,valid_metric\r\n1,2.5,0.75\r\n2,0.1,0.3333333333333333\r\n"
        )

    def test_untrained_log_is_the_header_alone(self, tmp_path):
        _, _, _, dataset = _world()
        _, log = train_model(dataset, TrainConfig(dim=2, epochs=0))
        path = tmp_path / "log.csv"
        save_training_log(log, path)
        assert path.read_bytes() == b"epoch,train_loss,valid_metric\r\n"
        assert load_training_log(path).records == []

    @pytest.mark.parametrize("rows, message", [
        (["1,0.5,0.25,99"], "line 2: expected 3 columns, got 4"),
        (["1,0.5"], "line 2: expected 3 columns, got 2"),
        (["1,nan,0.25"], "line 2: train_loss must be finite"),
        (["1,inf,0.25"], "line 2: train_loss must be finite"),
        (["1,0.5,nan"], "line 2: valid_metric must be finite"),
        (["1,0.5,-inf"], "line 2: valid_metric must be finite"),
        (["1.0,0.5,0.25"], "line 2: epoch: invalid literal for int"),
        (["", "1,0.5,0.25", "", "", "2,0.5"], "line 6: expected 3 columns, got 2"),
        (["1_0,0.5,0.25"], "line 2: epoch: digit-group underscore in '1_0'"),
        (["1,0.5,0.2_5"], "line 2: valid_metric: digit-group underscore in '0.2_5'"),
    ], ids=["extra-column", "short-row", "train_loss-nan", "train_loss-inf",
            "valid_metric-nan", "valid_metric-inf", "epoch-1.0", "blank-lines-counted",
            "epoch-1_0", "valid_metric-0.2_5"])
    def test_malformed_training_log_row_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "log.csv"
        path.write_bytes("\r\n".join(["epoch,train_loss,valid_metric", *rows, ""]).encode())
        with pytest.raises(DataFormatError, match=f"^training log CSV: {message}"):
            load_training_log(path)

    def test_binary_training_log_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
        with pytest.raises(DataFormatError, match="training log CSV"):
            load_training_log(path)

    @pytest.mark.parametrize("build", [
        lambda: TrainConfig(seed=0.5),
        lambda: ExperimentPlan(etas=(0.5,), folds=5.9),
        lambda: ExperimentPlan(etas=(0.5,), k_values=(3, 10.0)),
        lambda: ExperimentPlan(etas=(0.5,), seeds=(1.5,)),
        lambda: ExperimentPlan(etas=(0.5,), folds=4, test_folds=(0.4,)),
        lambda: TrainConfig(epochs=3.0),
        lambda: TrainConfig(dim=16.5),
        lambda: TrainConfig(batch=16.7),
        lambda: TrainConfig(k_valid=10.2),
    ], ids=["seed", "folds", "k_values", "seeds", "test_folds", "epochs", "dim", "batch", "k_valid"])
    def test_train_config_seed_must_be_an_integer(self, build):
        with pytest.raises(TypeError, match="integer"):
            build()
