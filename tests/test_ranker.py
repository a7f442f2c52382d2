"""Model scores, listwise losses, analytic gradients, checkpoint format."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchltr import (
    AssumptionViolationError,
    ContractViolation,
    DataFormatError,
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
from matchltr.metrics import feedback_coefficients
from matchltr.ranker import PROB_FLOOR, SPACES, _user_kernel, accumulate_gradient
from matchltr.core import sigmoid

TABLES = ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd")

# The minibatch kernel sums in another order than its per-user references, so
# they agree to this tolerance relative to the largest magnitude compared.
RTOL = 1e-12


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=RTOL * np.abs(expected).max())


def _zero_model(n_pro=3, n_rea=4, dim=2):
    shape_pro = np.zeros((n_pro, dim))
    shape_rea = np.zeros((n_rea, dim))
    return RankerModel(
        w_pro_fwd=shape_pro.copy(), w_rea_fwd=shape_rea.copy(),
        w_pro_bwd=shape_pro.copy(), w_rea_bwd=shape_rea.copy(),
    )


def _random_model(rng, n_pro, n_rea, dim, scale=0.5):
    return RankerModel(
        w_pro_fwd=rng.normal(0, scale, (n_pro, dim)),
        w_rea_fwd=rng.normal(0, scale, (n_rea, dim)),
        w_pro_bwd=rng.normal(0, scale, (n_pro, dim)),
        w_rea_bwd=rng.normal(0, scale, (n_rea, dim)),
    )


def _random_feedback(rng, n):
    y_fwd = (rng.random(n) < 0.6).astype(float)
    y_bwd = y_fwd * (rng.random(n) < 0.5)
    return y_fwd, y_bwd


def _space_score(model, space, u, v):
    """One space's score from a 1x1 ``score_matrix`` block.

    With the other space's tables zeroed that space scores exactly 1/2, so
    the block is half the score.
    """
    tables = {name: getattr(model, name) for name in TABLES}
    for name in SPACES[1 - space]:
        tables[name] = np.zeros_like(tables[name])
    return 2.0 * score_matrix(RankerModel(**tables), [u], [v])[0, 0]


def _mutual_score(model, u, v):
    return score_matrix(model, [u], [v])[0, 0]


class TestScores:
    def test_zero_embeddings(self):
        model = _zero_model()
        assert _space_score(model, 0, 0, 0) == 0.5
        assert _space_score(model, 1, 1, 2) == 0.5
        assert _mutual_score(model, 2, 3) == 0.25

    def test_sigmoid_of_log3(self):
        # equal vectors with squared norm ln 3 give sigmoid(ln 3) = 3/4
        w = np.sqrt(np.log(3.0))
        model = _zero_model(dim=1)
        model.w_pro_fwd[0, 0] = w
        model.w_rea_fwd[1, 0] = w
        assert _space_score(model, 0, 0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_dot_product_symmetry(self):
        rng = np.random.default_rng(0)
        model = _random_model(rng, 2, 2, 4)
        swapped = model.copy()
        swapped.w_pro_fwd[0], swapped.w_rea_fwd[1] = (
            model.w_rea_fwd[1].copy(), model.w_pro_fwd[0].copy(),
        )
        assert _space_score(model, 0, 0, 1) == _space_score(swapped, 0, 0, 1)

    def test_backward_independent_of_forward_tables(self):
        rng = np.random.default_rng(1)
        model = _random_model(rng, 2, 2, 3)
        model.w_pro_fwd[:] = 0.0  # forward score 1/2, so the block is half the backward score
        before = _mutual_score(model, 0, 1)
        # large but orthogonal forward rows: the forward score stays 1/2
        model.w_pro_fwd[:] = [99.0, 0.0, 0.0]
        model.w_rea_fwd[:] = [0.0, -99.0, 0.0]
        assert _mutual_score(model, 0, 1) == before

    def test_mutual_bounded_by_factors(self):
        rng = np.random.default_rng(2)
        model = _random_model(rng, 3, 3, 4)
        for u in range(3):
            for v in range(3):
                s = _mutual_score(model, u, v)
                assert 0.0 < s < 1.0
                assert s <= min(_space_score(model, 0, u, v), _space_score(model, 1, u, v))

    def test_index_errors(self):
        model = _zero_model(n_pro=2, n_rea=3)
        with pytest.raises(IndexError):
            score_matrix(model, [2], [0])
        with pytest.raises(IndexError):
            score_matrix(model, [0], [3])
        with pytest.raises(IndexError):
            score_matrix(model, [-1], [0])
        with pytest.raises(IndexError):
            score_matrix(model, [0], [-1])

    def test_score_matrix_matches_pointwise(self):
        rng = np.random.default_rng(3)
        model = _random_model(rng, 4, 5, 3)
        users = np.array([1, 3])
        cands = np.array([0, 2, 4])
        block = score_matrix(model, users, cands)
        for i, u in enumerate(users):
            for j, v in enumerate(cands):
                assert block[i, j] == pytest.approx(_mutual_score(model, int(u), int(v)),
                                                    abs=1e-15)

    def test_init_model_range_and_determinism(self):
        a = init_model(5, 6, 8, seed=4)
        b = init_model(5, 6, 8, seed=4)
        bound = 1.0 / np.sqrt(8)
        for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
            table = getattr(a, name)
            assert np.abs(table).max() <= bound
            assert np.array_equal(table, getattr(b, name))

    @pytest.mark.parametrize("at", range(3))
    @pytest.mark.parametrize("bad", [6.5, True])
    def test_init_model_sizes_must_be_integers(self, at, bad):
        sizes = [5, 6, 8]  # n_proactive, n_reactive, dim
        sizes[at] = bad
        with pytest.raises(TypeError, match="integer") as err:
            init_model(*sizes, seed=4)
        assert err.traceback[-1].name == "_index"  # rejected before numpy sees it


class TestLoss:
    def test_zero_feedback_zero_loss(self):
        rng = np.random.default_rng(5)
        model = _random_model(rng, 2, 4, 3)
        cands = np.arange(4)
        zero = np.zeros(4)
        theta = np.full(4, 0.5)
        for kind in LossKind:
            assert loss_user(model, 0, cands, zero, zero, theta, theta, kind) == 0.0

    def test_singleton_positive_forward_term_vanishes(self):
        rng = np.random.default_rng(6)
        model = _random_model(rng, 2, 3, 2)
        terms, _, _ = _user_kernel(model, 0, [1], [1.0], [0.0],
                                   [0.5], [0.5], LossKind.CONVENTIONAL)
        fwd, bwd = terms[0]
        assert fwd == 0.0 and bwd == 0.0

    def test_two_equal_scores_give_log_two(self):
        model = _zero_model(n_pro=1, n_rea=2)
        loss = loss_user(model, 0, [0, 1], [1.0, 0.0], [0.0, 0.0],
                         kind=LossKind.CONVENTIONAL)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_unit_theta_collapses_to_conventional(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, 2, 5, 3)
        cands = np.arange(5)
        y_fwd, y_bwd = _random_feedback(rng, 5)
        ones = np.ones(5)
        base = loss_user(model, 1, cands, y_fwd, y_bwd, ones, ones, LossKind.CONVENTIONAL)
        for kind in (LossKind.IPW1, LossKind.IPW2):
            assert loss_user(model, 1, cands, y_fwd, y_bwd, ones, ones, kind) == base

    def test_loss_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            model = _random_model(rng, 3, 8, int(rng.integers(1, 5)))
            cands = rng.choice(8, size=n, replace=False)
            y_fwd, y_bwd = _random_feedback(rng, n)
            theta_f = rng.uniform(0.1, 1.0, n)
            theta_b = rng.uniform(0.1, 1.0, n)
            for kind in LossKind:
                assert loss_user(model, 1, cands, y_fwd, y_bwd, theta_f, theta_b,
                                 kind) >= 0.0

    @pytest.mark.parametrize("fn", [loss_user, loss_gradient])
    @pytest.mark.parametrize("kind, name", [(LossKind.IPW1, "theta_fwd"),
                                            (LossKind.IPW2, "theta_bwd")])
    @pytest.mark.parametrize("theta", [None, np.full(2, 0.5)], ids=["none", "wrong-shape"])
    def test_misaligned_propensities_are_contract_violations(self, fn, kind, name, theta):
        """A missing or misshapen propensity vector is a caller's error, not
        a propensity outside (0, 1]."""
        model = _zero_model(n_pro=1, n_rea=3)
        thetas = {"theta_fwd": np.full(3, 0.5), "theta_bwd": np.full(3, 0.5), name: theta}
        with pytest.raises(ContractViolation, match=f"{name} must be aligned with candidates"):
            fn(model, 0, [0, 1, 2], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], kind=kind, **thetas)

    def test_backward_term_weight_ordering(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            model = _random_model(rng, 2, 4, 3)
            cands = np.arange(4)
            y_fwd = np.ones(4)
            y_bwd = np.ones(4)
            theta_f = rng.uniform(0.1, 0.9, 4)
            theta_b = rng.uniform(0.1, 0.9, 4)
            terms = {
                kind: _user_kernel(model, 0, cands, y_fwd, y_bwd, theta_f, theta_b, kind)[0][0, 1]
                for kind in LossKind
            }
            assert terms[LossKind.IPW2] >= terms[LossKind.IPW1] >= terms[LossKind.CONVENTIONAL]

    def test_candidate_permutation_invariance(self):
        rng = np.random.default_rng(10)
        model = _random_model(rng, 2, 6, 3)
        cands = np.arange(6)
        y_fwd, y_bwd = _random_feedback(rng, 6)
        theta_f = rng.uniform(0.2, 1.0, 6)
        theta_b = rng.uniform(0.2, 1.0, 6)
        base = loss_user(model, 0, cands, y_fwd, y_bwd, theta_f, theta_b, LossKind.IPW2)
        perm = rng.permutation(6)
        again = loss_user(model, 0, cands[perm], y_fwd[perm], y_bwd[perm],
                          theta_f[perm], theta_b[perm], LossKind.IPW2)
        assert again == pytest.approx(base, rel=1e-12)

    def test_empty_candidates_rejected(self):
        model = _zero_model()
        with pytest.raises(ContractViolation):
            loss_user(model, 0, [], [], [], kind=LossKind.CONVENTIONAL)

    @pytest.mark.parametrize("theta", [0.0, 1.5, np.nan])
    @pytest.mark.parametrize("loss", [loss_user, loss_gradient])
    def test_bad_theta_rejected(self, loss, theta):
        model = _zero_model()
        with pytest.raises(AssumptionViolationError, match=r"^theta_fwd must lie in \(0, 1\]"):
            loss(model, 0, [0, 1], [1.0, 0.0], [0.0, 0.0], [theta, 0.5], [1.0, 1.0],
                 LossKind.IPW1)
        with pytest.raises(AssumptionViolationError, match=r"^theta_bwd must lie in \(0, 1\]"):
            loss(model, 0, [0, 1], [1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [theta, 1.0],
                 LossKind.IPW2)

    def test_infeasible_feedback_rejected(self):
        model = _zero_model()
        with pytest.raises(ContractViolation):
            loss_user(model, 0, [0, 1], [0.0, 1.0], [1.0, 0.0],
                      kind=LossKind.CONVENTIONAL)


def finite_difference_gradient(model, u, cands, y_fwd, y_bwd, tf, tb, kind, step=1e-5):
    """Central finite differences over every embedding coordinate."""
    fd = GradientTables.zeros_like(model)
    for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
        table = getattr(model, name)
        grad = getattr(fd, name)
        for i in range(table.shape[0]):
            for j in range(table.shape[1]):
                orig = table[i, j]
                table[i, j] = orig + step
                up = loss_user(model, u, cands, y_fwd, y_bwd, tf, tb, kind)
                table[i, j] = orig - step
                down = loss_user(model, u, cands, y_fwd, y_bwd, tf, tb, kind)
                table[i, j] = orig
                grad[i, j] = (up - down) / (2.0 * step)
    return fd


class TestGradient:
    def test_zero_feedback_zero_gradient(self):
        rng = np.random.default_rng(11)
        model = _random_model(rng, 2, 3, 2)
        grads = loss_gradient(model, 0, [0, 1, 2], np.zeros(3), np.zeros(3),
                              np.full(3, 0.5), np.full(3, 0.5), LossKind.IPW2)
        for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
            assert not getattr(grads, name).any()

    def test_untouched_rows_zero(self):
        rng = np.random.default_rng(12)
        model = _random_model(rng, 4, 6, 2)
        cands = np.array([1, 4])
        grads = loss_gradient(model, 2, cands, np.array([1.0, 0.0]),
                              np.array([0.0, 0.0]), np.full(2, 0.5), np.full(2, 0.5),
                              LossKind.IPW1)
        untouched_pro = [0, 1, 3]
        untouched_rea = [0, 2, 3, 5]
        assert not grads.w_pro_fwd[untouched_pro].any()
        assert not grads.w_rea_fwd[untouched_rea].any()
        assert not grads.w_pro_bwd[untouched_pro].any()
        assert not grads.w_rea_bwd[untouched_rea].any()

    def test_matches_finite_differences(self):
        # >= 100 randomized instances across dims, list sizes and loss kinds
        rng = np.random.default_rng(13)
        kinds = list(LossKind)
        checked = 0
        for trial in range(102):
            dim = int(rng.choice([2, 4]))
            n_cands = int(rng.integers(2, 6))
            n_rea = n_cands + int(rng.integers(0, 3))
            model = _random_model(rng, 3, n_rea, dim)
            u = int(rng.integers(0, 3))
            cands = rng.choice(n_rea, size=n_cands, replace=False)
            y_fwd, y_bwd = _random_feedback(rng, n_cands)
            tf = rng.uniform(0.2, 1.0, n_cands)
            tb = rng.uniform(0.2, 1.0, n_cands)
            kind = kinds[trial % 3]
            analytic = loss_gradient(model, u, cands, y_fwd, y_bwd, tf, tb, kind)
            fd = finite_difference_gradient(model, u, cands, y_fwd, y_bwd, tf, tb, kind)
            for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
                a = getattr(analytic, name)
                b = getattr(fd, name)
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
                assert (np.abs(a - b) / denom).max() < 1e-4
            checked += 1
        assert checked >= 100

    def test_ipw2_at_unit_theta_equals_conventional(self):
        rng = np.random.default_rng(14)
        model = _random_model(rng, 2, 4, 3)
        cands = np.arange(4)
        y_fwd, y_bwd = _random_feedback(rng, 4)
        ones = np.ones(4)
        g1 = loss_gradient(model, 0, cands, y_fwd, y_bwd, ones, ones, LossKind.CONVENTIONAL)
        g2 = loss_gradient(model, 0, cands, y_fwd, y_bwd, ones, ones, LossKind.IPW2)
        for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
            assert np.array_equal(getattr(g1, name), getattr(g2, name))


def _candidate_mask(n_rea, candidate_sets, groups):
    mask = np.zeros((len(groups), n_rea), dtype=bool)
    for i, g in enumerate(groups):
        mask[i, candidate_sets[g]] = True
    return mask


class TestMinibatchKernel:
    """One kernel call over a minibatch against single-user calls of the public losses."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_pro=st.integers(1, 6),
        n_rea=st.integers(1, 9),
        dim=st.integers(1, 5),
        batch=st.integers(1, 8),
        n_sets=st.integers(1, 3),
        kind=st.sampled_from(list(LossKind)),
    )
    def test_equals_batch_order_sum_of_single_users(
        self, seed, n_pro, n_rea, dim, batch, n_sets, kind
    ):
        rng = np.random.default_rng(seed)
        model = _random_model(rng, n_pro, n_rea, dim, scale=1.0)
        users = rng.integers(0, n_pro, size=batch)  # repeats allowed
        candidate_sets = [
            rng.permutation(n_rea)[:rng.integers(1, n_rea + 1)] for _ in range(n_sets)
        ]
        groups = rng.integers(0, n_sets, size=batch)
        mask = _candidate_mask(n_rea, candidate_sets, groups)
        y_fwd = (rng.random((batch, n_rea)) < 0.6).astype(float)
        y_bwd = y_fwd * (rng.random((batch, n_rea)) < 0.5)
        tf = rng.uniform(0.05, 1.0, (batch, n_rea))
        tb = rng.uniform(0.05, 1.0, (batch, n_rea))
        coef = feedback_coefficients(kind.paired_metric, y_fwd, y_bwd, tf, tb)
        for table in coef:
            table[~mask] = 0.0

        terms, grad_pro, grad_rea = accumulate_gradient(model, users, mask, np.stack(coef))
        out = _scatter(model, users, zip(grad_pro, grad_rea))

        expected = GradientTables.zeros_like(model)
        user_losses = np.empty(batch)
        for i, u in enumerate(users):
            cands = candidate_sets[groups[i]]
            feedback = (y_fwd[i, cands], y_bwd[i, cands], tf[i, cands], tb[i, cands])
            single = loss_gradient(model, int(u), cands, *feedback, kind)
            for name in TABLES:
                setattr(expected, name, getattr(expected, name) + getattr(single, name))
            user_losses[i] = loss_user(model, int(u), cands, *feedback, kind)
        assert_close(terms[:, 0] + terms[:, 1], user_losses)
        for name in TABLES:
            assert_close(getattr(out, name), getattr(expected, name))


def _scatter(model, users, grads):
    """The kernel's gradient pieces as full tables; repeated users add up."""
    out = GradientTables.zeros_like(model)
    for (pro, rea), (grad_pro, grad_rea) in zip(SPACES, grads):
        np.add.at(getattr(out, pro), users, grad_pro)
        getattr(out, rea)[:] += grad_rea
    return out


def _reference_minibatch(model, users, candidate_sets, groups, coef_fwd, coef_bwd):
    """The minibatch kernel as a plain loop over users and spaces."""
    terms = np.empty((users.size, 2))
    grads = GradientTables.zeros_like(model)
    for space, (pro, rea, coef) in enumerate((
        ("w_pro_fwd", "w_rea_fwd", coef_fwd), ("w_pro_bwd", "w_rea_bwd", coef_bwd),
    )):
        w_pro, w_rea = getattr(model, pro), getattr(model, rea)
        grad_pro, grad_rea = getattr(grads, pro), getattr(grads, rea)
        outer = np.empty_like(grad_rea)
        for i, u in enumerate(users):
            cands = candidate_sets[groups[i]]
            c = coef[i, cands]
            s = sigmoid(w_rea[cands] @ w_pro[u])
            p = s / s.sum()
            terms[i, space] = -(c @ np.log(np.maximum(p, PROB_FLOOR)))
            dz = (c.sum() * p - c) * (1.0 - s)
            grad_pro[u] += dz @ w_rea[cands]
            dz_row = np.zeros(w_rea.shape[0])
            dz_row[cands] = dz
            np.multiply(dz_row[:, None], w_pro[u], out=outer)
            grad_rea += outer
    return terms, grads


class TestMinibatchKernelAtTrainingShapes:
    """One 200x200, dim-64 minibatch of 16 users against the per-user loop.

    These shapes reach the blocked BLAS and SIMD paths of the kernel's numpy
    calls, which the small hypothesis shapes above never do.
    """

    def test_bit_identical_to_per_user_loop_in_either_layout(self):
        rng = np.random.default_rng(2024)
        n, batch = 200, 16
        model = _random_model(rng, n, n, 64, scale=0.2)
        folds = rng.permutation(n).reshape(5, 40)
        candidate_sets = (
            np.arange(n),
            np.sort(np.concatenate(folds[1:])),
            np.sort(np.concatenate(np.delete(folds, 2, axis=0))),
        )
        assert [c.size for c in candidate_sets] == [200, 160, 160]
        users = rng.choice(n, size=batch, replace=False)
        groups = rng.permutation(np.arange(batch) % 3)
        mask = _candidate_mask(n, candidate_sets, groups)
        y_fwd = (rng.random((batch, n)) < 0.3).astype(float)
        y_bwd = y_fwd * (rng.random((batch, n)) < 0.5)
        tf = rng.uniform(0.05, 1.0, (batch, n))
        tb = rng.uniform(0.05, 1.0, (batch, n))
        coef = feedback_coefficients(LossKind.IPW2.paired_metric, y_fwd, y_bwd, tf, tb)
        for table in coef:
            table[~mask] = 0.0

        ref_terms, ref_grads = _reference_minibatch(model, users, candidate_sets, groups, *coef)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            terms, grad_pro, grad_rea = accumulate_gradient(
                model, users, layout(mask), layout(np.stack(coef))
            )
            out = _scatter(model, users, zip(grad_pro, grad_rea))
            assert_close(terms, ref_terms)
            for name in TABLES:
                assert_close(getattr(out, name), getattr(ref_grads, name))


def _accumulate_gradient_reference(model, users, mask_rows, coef, coef_sum=None,
                                   spaces=slice(None), loss=True):
    """The minibatch kernel as it was before its sigmoid was written out:
    :func:`sigmoid` with its own errstate, and ``(S, batch)`` row sums."""
    users = np.asarray(users, dtype=np.intp)
    if coef_sum is None:
        coef_sum = coef.sum(axis=2)
    pro, rea = model.pro[spaces], model.rea[spaces]
    w_users = pro.take(users, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = w_users @ rea.transpose(0, 2, 1)
        sigmoid(s, out=s)
        p = s * mask_rows
        p /= p.sum(axis=2, keepdims=True)
        terms = None
        if loss:
            log_p = np.maximum(p, PROB_FLOOR)
            np.log(log_p, out=log_p)
            terms = np.einsum("sij,sij->si", coef, log_p).T
            np.negative(terms, out=terms)
        p *= coef_sum[:, :, None]
        p -= coef
        np.subtract(1.0, s, out=s)
        p *= s
    return terms, p @ rea, p.transpose(0, 2, 1) @ w_users


_SPACE_SLICES = {"both": slice(None), "forward": slice(0, 1), "backward": slice(1, 2)}


def _odd_row(model, user, row):
    """Write a saturating (about +-1e4 per score) or a NaN row into both spaces
    of proactive row ``user``, past the model's finiteness check."""
    if row == "saturate":
        model.pro[:, user] = np.where(np.arange(model.dim) % 2, 1e4, -1e4)
    elif row == "nan":
        model.pro[:, user, 0] = np.nan
    return model


class TestKernelReference:
    """The kernel keeps the bytes of :func:`_accumulate_gradient_reference`."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pro=st.integers(1, 6), n_rea=st.integers(1, 8),
           dim=st.integers(1, 4), batch=st.integers(1, 6),
           space=st.sampled_from(sorted(_SPACE_SLICES)), loss=st.booleans(),
           row=st.sampled_from(["none", "saturate", "nan"]), pass_sums=st.booleans())
    @example(seed=0, n_pro=1, n_rea=1, dim=1, batch=1, space="both", loss=True,
             row="none", pass_sums=False)
    @example(seed=1, n_pro=3, n_rea=5, dim=2, batch=1, space="forward", loss=True,
             row="saturate", pass_sums=True)
    @example(seed=2, n_pro=4, n_rea=6, dim=3, batch=4, space="backward", loss=False,
             row="nan", pass_sums=False)
    @example(seed=3, n_pro=4, n_rea=6, dim=3, batch=4, space="both", loss=True,
             row="saturate", pass_sums=False)
    def test_equal_bytes(self, seed, n_pro, n_rea, dim, batch, space, loss, row, pass_sums):
        rng = np.random.default_rng(seed)
        model = _odd_row(_random_model(rng, n_pro, n_rea, dim, scale=1.0), 0, row)
        users = rng.integers(0, n_pro, size=batch)
        users[0] = 0  # the odd row takes part
        spaces = _SPACE_SLICES[space]
        mask = rng.random((batch, n_rea)) < 0.7
        mask[:, 0] = True
        coef = (rng.random((2, batch, n_rea)) * 3.0 * mask)[spaces]
        got = accumulate_gradient(model, users, mask, coef,
                                  coef.sum(axis=2, keepdims=True) if pass_sums else None,
                                  spaces, loss)
        want = _accumulate_gradient_reference(model, users, mask, coef,
                                              coef.sum(axis=2) if pass_sums else None,
                                              spaces, loss)
        if not loss:
            assert got[0] is None and want[0] is None
        for g, w in zip(got, want):
            if w is not None:
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        if row == "nan":
            assert np.isnan(got[1][:, 0]).all()


class TestNoWarningEscapes:
    """Saturating and NaN embeddings give values, never a RuntimeWarning, on a
    direct call of the kernel and of the public losses."""

    @pytest.mark.parametrize("row", ["saturate", "nan"])
    def test_direct_calls(self, row):
        rng = np.random.default_rng(5)
        model = _odd_row(_random_model(rng, 3, 5, 4, scale=1.0), 1, row)
        cands = np.array([0, 2, 3])
        y_fwd, y_bwd = np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])
        tf, tb = np.full(3, 0.5), np.full(3, 0.25)
        mask = np.zeros((2, 5), dtype=bool)
        mask[:, cands] = True
        coef = rng.random((2, 2, 5)) * mask
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spaces in _SPACE_SLICES.values():
                for loss in (True, False):
                    accumulate_gradient(model, [1, 0], mask, coef[spaces], None, spaces, loss)
            for kind in LossKind:
                loss_user(model, 1, cands, y_fwd, y_bwd, tf, tb, kind)
                loss_gradient(model, 1, cands, y_fwd, y_bwd, tf, tb, kind)


class TestStackedStorage:
    """The named tables are views of the two stacked space tables."""

    def test_named_table_write_reaches_the_loss(self):
        rng = np.random.default_rng(19)
        model = _random_model(rng, 2, 4, 3)
        cands = np.arange(4)
        y_fwd, y_bwd = np.ones(4), np.array([1.0, 0.0, 1.0, 0.0])
        before = loss_user(model, 0, cands, y_fwd, y_bwd, kind=LossKind.CONVENTIONAL)
        model.w_rea_bwd[2, 1] += 0.5
        assert model.rea[1, 2, 1] == model.w_rea_bwd[2, 1]
        assert loss_user(model, 0, cands, y_fwd, y_bwd, kind=LossKind.CONVENTIONAL) != before

    def test_copy_shares_no_memory(self):
        model = init_model(3, 4, 2, seed=20)
        twin = model.copy()
        for name in ("pro", "rea", *TABLES):
            assert not np.shares_memory(getattr(model, name), getattr(twin, name))
            assert np.array_equal(getattr(model, name), getattr(twin, name))

    def test_constructor_copies_its_arrays(self):
        rng = np.random.default_rng(21)
        tables = {name: rng.normal(size=(3, 2)) for name in TABLES}
        model = RankerModel(**tables)
        saved = {name: table.copy() for name, table in tables.items()}
        for table in tables.values():
            table[:] = 7.0
        for name in TABLES:
            assert np.array_equal(getattr(model, name), saved[name])

    def test_save_load_save_same_bytes(self, tmp_path):
        save_model(init_model(4, 5, 3, seed=22), tmp_path / "a.bin")
        save_model(load_model(tmp_path / "a.bin"), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = init_model(5, 7, 3, seed=15)
        path = tmp_path / "model.bin"
        save_model(model, path)
        again = load_model(path)
        for name in ("w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"):
            assert np.array_equal(getattr(model, name), getattr(again, name))

    def test_byte_determinism(self, tmp_path):
        model = init_model(4, 4, 2, seed=16)
        save_model(model, tmp_path / "a.bin")
        save_model(model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint\n{}\n")
        with pytest.raises(DataFormatError, match="magic"):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        model = init_model(3, 3, 2, seed=17)
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataFormatError, match="truncated"):
            load_model(path)

    def test_layout_bytes(self, tmp_path):
        """Magic line, sorted-key JSON header line, then the four tables as
        little-endian float64 in C order."""
        model = init_model(2, 3, 2, seed=19)
        save_model(model, tmp_path / "model.bin")
        header = ('{"dim": 2, "dtype": "<f8", "n_proactive": 2, "n_reactive": 3, '
                  '"tables": ["w_pro_fwd", "w_rea_fwd", "w_pro_bwd", "w_rea_bwd"]}')
        expected = (b"matchltr-checkpoint v1\n" + header.encode() + b"\n"
                    + b"".join(getattr(model, name).astype("<f8").tobytes() for name in TABLES))
        assert (tmp_path / "model.bin").read_bytes() == expected

    @pytest.mark.parametrize("dim, message", [
        (10**15, "truncated"), (-1, "malformed header"), ("x", "malformed header"),
        # a size is a JSON integer: not truncated, parsed or a bool
        (2.9, "malformed header: .*integer"), (2.0, "malformed header: .*integer"),
        ("2", "malformed header: .*integer"), (True, "malformed header: .*integer"),
    ])
    def test_corrupt_header_size_rejected(self, tmp_path, dim, message):
        """A header size is checked against the file before anything is allocated."""
        path = tmp_path / "model.bin"
        save_model(init_model(3, 3, 2, seed=20), path)
        magic, header, tables = path.read_bytes().split(b"\n", 2)
        header = header.replace(b'"dim": 2', f'"dim": {json.dumps(dim)}'.encode())
        path.write_bytes(magic + b"\n" + header + b"\n" + tables)
        with pytest.raises(DataFormatError, match=message):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = init_model(3, 3, 2, seed=18)
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataFormatError, match="trailing"):
            load_model(path)
