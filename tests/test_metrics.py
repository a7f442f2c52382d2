"""Metric and estimator contracts, checked against independent enumeration oracles.

The key oracle here enumerates the *joint* exposure outcome space of a small
instance (4 outcomes per pair, all combinations across pairs), realizes the
feedback bits for each outcome, evaluates the estimator on that realization,
and probability-weights the results.  That brute-force average is compared
against both the per-pair closed-form expectation and the ground-truth metric.
"""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matchltr import (
    AssumptionViolationError,
    ContractViolation,
    DataFormatError,
    EstimatorKind,
    EvalRecord,
    ExposureModel,
    FeedbackDataset,
    FoldPlan,
    LambdaWeight,
    MetricValue,
    OracleInstance,
    RankedList,
    UndefinedAverageError,
    dcg_at_k,
    estimate_metric,
    expected_metric_exact,
    gain_ipw,
    gain_surrogate,
    gain_true,
    load_eval_report,
    metric_ground_truth,
    save_eval_report,
)
from matchltr.metrics import dcg_from_gains, feedback_coefficients

NAIVE, IPW1, IPW2 = EstimatorKind.NAIVE, EstimatorKind.IPW1, EstimatorKind.IPW2


def brute_force_expectation(rankings, r_fwd, r_bwd, theta_fwd, theta_bwd, weight, kind):
    """Average an estimator over every joint exposure outcome, exhaustively."""
    pairs = [(lst.owner, v) for lst in rankings for v in lst.entries]
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=2 * len(pairs)):
        o_fwd = np.zeros_like(np.asarray(theta_fwd, dtype=float))
        o_bwd = np.zeros_like(o_fwd)
        prob = 1.0
        for i, (u, v) in enumerate(pairs):
            of, ob = outcome[2 * i], outcome[2 * i + 1]
            o_fwd[u, v], o_bwd[u, v] = of, ob
            prob *= theta_fwd[u][v] if of else 1.0 - theta_fwd[u][v]
            prob *= theta_bwd[u][v] if ob else 1.0 - theta_bwd[u][v]
        y_fwd = o_fwd * np.asarray(r_fwd, dtype=float)
        y_bwd = y_fwd * o_bwd * np.asarray(r_bwd, dtype=float)
        value = estimate_metric(
            kind, rankings, y_fwd, y_bwd,
            np.asarray(theta_fwd, dtype=float), np.asarray(theta_bwd, dtype=float),
            weight,
        ).value
        total += prob * value
    return total


class TestLambdaWeight:
    def test_rank_one(self):
        assert LambdaWeight(k=1).weights([1]).tolist() == [1.0]

    def test_beyond_cutoff(self):
        assert LambdaWeight(k=3).weights([4]).tolist() == [0.0]

    def test_rank_three(self):
        assert LambdaWeight(k=10).weights([3]).tolist() == [0.5]

    def test_rank_below_one_rejected(self):
        with pytest.raises(ContractViolation):
            LambdaWeight(k=3).weights([0])

    def test_non_increasing(self):
        values = LambdaWeight(k=7).weights(np.arange(1, 15))
        assert (np.diff(values) <= 0.0).all()

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ContractViolation):
            LambdaWeight(k=0)

    def test_cutoff_must_be_an_integer(self):
        with pytest.raises(TypeError, match="integer"):
            LambdaWeight(k=2.5)
        with pytest.raises(TypeError, match="integer"):
            LambdaWeight(k=True)
        with pytest.raises(TypeError, match="integer"):
            dcg_from_gains(np.zeros((1, 3)), np.ones((1, 3)), 1.5)


class TestGains:
    def test_gain_true_values(self):
        assert gain_true(0, 0) == 0.0
        assert gain_true(0, 1) == 0.0
        assert gain_true(1, 0) == 1.0
        assert gain_true(1, 1) == 3.0

    def test_gain_surrogate_values(self):
        assert gain_surrogate(0, 0) == 0.0
        assert gain_surrogate(1, 0) == 1.0
        assert gain_surrogate(1, 1) == 3.0

    def test_gain_surrogate_infeasible_pair(self):
        with pytest.raises(ContractViolation):
            gain_surrogate(0, 1)

    def test_gain_ipw_hand_derived(self):
        # (1/(0.5*0.5)) * 2 * 1 + (1/0.5) * 1 = 8 + 2
        assert gain_ipw(1, 1, 0.5, 0.5) == 10.0
        assert gain_ipw(1, 0, 0.5, 0.5) == 2.0
        assert gain_ipw(0, 0, 0.123, 0.456) == 0.0

    def test_gain_ipw_unit_propensity_reduces_to_surrogate(self):
        for yf, yb in ((0, 0), (1, 0), (1, 1)):
            assert gain_ipw(yf, yb, 1.0, 1.0) == gain_surrogate(yf, yb)

    # the one propensity rule: 0, values above 1 and NaN are rejected
    @pytest.mark.parametrize("theta", [0.0, 1.5, np.nan])
    @pytest.mark.parametrize("reject", [
        lambda t: gain_ipw(1, 0, t, 0.5),
        lambda t: gain_ipw(1, 1, 0.5, t),
        lambda t: feedback_coefficients(IPW1, [1, 0], [0, 0], [0.5, t]),
        lambda t: feedback_coefficients(IPW2, [1, 1], [1, 0], [0.5, 0.5], [1.0, t]),
    ], ids=["gain_ipw-fwd", "gain_ipw-bwd", "coefficients-ipw1", "coefficients-ipw2"])
    def test_gain_ipw_rejects_bad_theta(self, reject, theta):
        with pytest.raises(AssumptionViolationError, match=r"^theta_\w+ must lie in \(0, 1\]"):
            reject(theta)

    def test_array_inputs(self):
        out = gain_true(np.array([0, 1, 1]), np.array([1, 0, 1]))
        assert out.tolist() == [0.0, 1.0, 3.0]

    def test_non_bits_rejected(self):
        with pytest.raises(ContractViolation):
            gain_true(0.5, 0)

    @pytest.mark.parametrize("bad", [np.nan, 0.5, 2.0, -1.0])
    def test_every_non_bit_rejected(self, bad):
        for r_fwd, r_bwd in (([1.0, bad], [0.0, 0.0]), ([1.0, 1.0], [bad, 0.0])):
            with pytest.raises(ContractViolation, match="bits"):
                gain_true(np.array(r_fwd), np.array(r_bwd))


def _single_pair_setup(r=(1, 1), theta=(0.5, 0.5)):
    rankings = [RankedList.from_indices(0, [0])]
    r_fwd = np.array([[r[0]]], dtype=float)
    r_bwd = np.array([[r[1]]], dtype=float)
    t_fwd = np.full((1, 1), theta[0])
    t_bwd = np.full((1, 1), theta[1])
    return rankings, r_fwd, r_bwd, t_fwd, t_bwd


class TestGroundTruthMetric:
    def test_all_zero_relevance(self):
        rankings, *_ = _single_pair_setup()
        zero = np.zeros((1, 1))
        assert metric_ground_truth(rankings, zero, zero, LambdaWeight(k=3)).value == 0.0

    def test_single_mutual_pair_at_rank_one(self):
        rankings, r_fwd, r_bwd, _, _ = _single_pair_setup()
        got = metric_ground_truth(rankings, r_fwd, r_bwd, LambdaWeight(k=1))
        assert got.value == 3.0 and got.n_users == 1

    def test_mean_invariance_under_duplication(self):
        rng = np.random.default_rng(0)
        r_fwd = rng.integers(0, 2, (2, 4)).astype(float)
        r_fwd[1] = r_fwd[0]
        r_bwd = rng.integers(0, 2, (2, 4)).astype(float)
        r_bwd[1] = r_bwd[0]
        order = rng.permutation(4)
        one = metric_ground_truth(
            [RankedList.from_indices(0, order)], r_fwd, r_bwd, LambdaWeight(k=3)
        )
        two = metric_ground_truth(
            [RankedList.from_indices(0, order), RankedList.from_indices(1, order)],
            r_fwd, r_bwd, LambdaWeight(k=3),
        )
        assert one.value == two.value

    def test_empty_user_set_rejected(self):
        with pytest.raises(UndefinedAverageError):
            metric_ground_truth([], np.zeros((1, 1)), np.zeros((1, 1)), LambdaWeight(k=1))

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(UndefinedAverageError):
            metric_ground_truth(
                [RankedList.from_indices(0, [])], np.zeros((1, 1)), np.zeros((1, 1)),
                LambdaWeight(k=1),
            )

    def test_missing_label_rejected(self):
        rankings = [RankedList.from_indices(0, [0, 1])]
        labels = np.array([[1.0, np.nan]])
        with pytest.raises(ContractViolation):
            metric_ground_truth(rankings, labels, labels, LambdaWeight(k=2))


class TestNaiveEstimator:
    def test_all_feedback_zero(self):
        rankings, *_ = _single_pair_setup()
        zero = np.zeros((1, 1))
        assert estimate_metric(NAIVE, rankings, zero, zero, None, None,
                               LambdaWeight(k=1)).value == 0.0

    def test_full_exposure_recovers_ground_truth(self):
        rng = np.random.default_rng(1)
        r_fwd = rng.integers(0, 2, (3, 5)).astype(float)
        r_bwd = rng.integers(0, 2, (3, 5)).astype(float)
        rankings = [RankedList.from_indices(u, rng.permutation(5)) for u in range(3)]
        w = LambdaWeight(k=4)
        # once everything is exposed, feedback equals relevance composition
        y_fwd = r_fwd
        y_bwd = r_fwd * r_bwd
        assert estimate_metric(NAIVE, rankings, y_fwd, y_bwd, None, None, w).value == \
            metric_ground_truth(rankings, r_fwd, r_bwd, w).value

    def test_bias_by_enumeration(self):
        # single mutual pair at half exposure: outcomes (o_f, o_b) with
        # probability 1/4 each give surrogate gains 0, 0, 1, 3 -> E = 1.0,
        # yet the ground truth is 3.0
        rankings, r_fwd, r_bwd, t_fwd, t_bwd = _single_pair_setup()
        w = LambdaWeight(k=1)
        expect = brute_force_expectation(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w,
                                         EstimatorKind.NAIVE)
        assert expect == pytest.approx(0.25 * 1 + 0.25 * 3, abs=1e-12)
        assert expected_metric_exact(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w,
                                     EstimatorKind.NAIVE) == pytest.approx(1.0, abs=1e-12)
        assert metric_ground_truth(rankings, r_fwd, r_bwd, w).value == 3.0

    def test_bias_is_not_proportional(self):
        # ratio of naive expectations across two label configs differs from
        # the ratio of ground truths, so no constant rescaling can fix it
        w = LambdaWeight(k=1)
        values = {}
        for label, r in (("mutual", (1, 1)), ("one_sided", (1, 0))):
            rankings, r_fwd, r_bwd, t_fwd, t_bwd = _single_pair_setup(r=r)
            values[label] = (
                expected_metric_exact(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w,
                                      EstimatorKind.NAIVE),
                metric_ground_truth(rankings, r_fwd, r_bwd, w).value,
            )
        naive_ratio = values["mutual"][0] / values["one_sided"][0]
        truth_ratio = values["mutual"][1] / values["one_sided"][1]
        assert abs(naive_ratio - truth_ratio) > 0.5


class TestIpw1Estimator:
    def test_unit_forward_theta_equals_naive(self):
        rng = np.random.default_rng(2)
        y_fwd = rng.integers(0, 2, (2, 4)).astype(float)
        y_bwd = y_fwd * rng.integers(0, 2, (2, 4))
        rankings = [RankedList.from_indices(u, rng.permutation(4)) for u in range(2)]
        w = LambdaWeight(k=3)
        ones = np.ones((2, 4))
        assert estimate_metric(IPW1, rankings, y_fwd, y_bwd, ones, None, w).value == \
            estimate_metric(NAIVE, rankings, y_fwd, y_bwd, None, None, w).value

    def test_single_contribution(self):
        rankings, *_ = _single_pair_setup()
        y_fwd = np.array([[1.0]])
        y_bwd = np.array([[0.0]])
        t_fwd = np.array([[0.5]])
        got = estimate_metric(IPW1, rankings, y_fwd, y_bwd, t_fwd, None, LambdaWeight(k=1))
        assert got.value == 2.0

    def test_zero_feedback(self):
        rankings, *_ = _single_pair_setup()
        zero = np.zeros((1, 1))
        assert estimate_metric(IPW1, rankings, zero, zero, np.full((1, 1), 0.4), None,
                               LambdaWeight(k=1)).value == 0.0

    def test_classic_one_sided_case_is_unbiased(self):
        # full backward exposure and no backward relevance: the one-sided
        # correction is exactly the classic setting and recovers the truth
        rng = np.random.default_rng(3)
        r_fwd = rng.integers(0, 2, (3, 4)).astype(float)
        r_bwd = np.zeros((3, 4))
        t_fwd = rng.uniform(0.2, 1.0, (3, 4))
        t_bwd = np.ones((3, 4))
        rankings = [RankedList.from_indices(u, rng.permutation(4)) for u in range(3)]
        w = LambdaWeight(k=3)
        expect = expected_metric_exact(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w,
                                       EstimatorKind.IPW1)
        truth = metric_ground_truth(rankings, r_fwd, r_bwd, w).value
        assert expect == pytest.approx(truth, abs=1e-12)

    def test_deviates_on_discounted_mutual_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            theta = (rng.uniform(0.1, 1.0), rng.uniform(0.1, 0.95))
            rankings, r_fwd, r_bwd, t_fwd, t_bwd = _single_pair_setup(r=(1, 1), theta=theta)
            w = LambdaWeight(k=1)
            expect = expected_metric_exact(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w,
                                           EstimatorKind.IPW1)
            truth = metric_ground_truth(rankings, r_fwd, r_bwd, w).value
            assert expect < truth - 1e-9


class TestIpw2Estimator:
    def test_unit_exposure_equals_naive_bitwise(self):
        rng = np.random.default_rng(5)
        y_fwd = rng.integers(0, 2, (3, 6)).astype(float)
        y_bwd = y_fwd * rng.integers(0, 2, (3, 6))
        rankings = [RankedList.from_indices(u, rng.permutation(6)) for u in range(3)]
        w = LambdaWeight(k=4)
        ones = np.ones((3, 6))
        assert estimate_metric(IPW2, rankings, y_fwd, y_bwd, ones, ones, w).value == \
            estimate_metric(NAIVE, rankings, y_fwd, y_bwd, None, None, w).value

    def test_unbiased_single_pair_by_enumeration(self):
        # 0.25 * gain_ipw(1,0) + 0.25 * gain_ipw(1,1) = 0.25*2 + 0.25*10 = 3.0
        rankings, r_fwd, r_bwd, t_fwd, t_bwd = _single_pair_setup()
        w = LambdaWeight(k=1)
        expect = brute_force_expectation(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w,
                                         EstimatorKind.IPW2)
        assert expect == pytest.approx(3.0, abs=1e-12)
        assert expected_metric_exact(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w,
                                     EstimatorKind.IPW2) == pytest.approx(3.0, abs=1e-12)

    def test_zero_feedback(self):
        rankings, *_ = _single_pair_setup()
        zero = np.zeros((1, 1))
        half = np.full((1, 1), 0.5)
        assert estimate_metric(IPW2, rankings, zero, zero, half, half,
                               LambdaWeight(k=1)).value == 0.0

    @pytest.mark.parametrize("theta", [0.0, 1.5, np.nan])
    def test_bad_theta_rejected(self, theta):
        rankings, _, _, _, t_bwd = _single_pair_setup()
        y = np.array([[1.0]])
        with pytest.raises(AssumptionViolationError, match=r"^theta_fwd must lie in \(0, 1\]"):
            estimate_metric(IPW2, rankings, y, np.zeros((1, 1)), np.full((1, 1), theta), t_bwd,
                            LambdaWeight(k=1))


class TestStandardError:
    """The metric's standard error over users, beside its mean and user count."""

    @staticmethod
    def _metrics(n_users, seed=11):
        """Each metric as ``f(rankings)`` on one random market of ``n_users`` x 5."""
        rng = np.random.default_rng(seed)
        r_fwd = rng.integers(0, 2, (n_users, 5)).astype(float)
        r_bwd = rng.integers(0, 2, (n_users, 5)).astype(float)
        y_fwd = r_fwd * rng.integers(0, 2, (n_users, 5))
        y_bwd = y_fwd * r_bwd * rng.integers(0, 2, (n_users, 5))
        t_fwd, t_bwd = rng.uniform(0.05, 1.0, (2, n_users, 5))
        w = LambdaWeight(k=3)
        return {"truth": lambda lists: metric_ground_truth(lists, r_fwd, r_bwd, w),
                **{kind.value: lambda lists, kind=kind: estimate_metric(
                    kind, lists, y_fwd, y_bwd, t_fwd, t_bwd, w) for kind in EstimatorKind}}

    def test_fields(self):
        assert [f.name for f in fields(MetricValue)] == ["value", "n_users", "stderr"]

    def test_zero_for_one_user(self):
        for metric in self._metrics(3).values():
            got = metric([RankedList.from_indices(1, [4, 0, 2, 1])])
            assert (got.n_users, got.stderr) == (1, 0.0)

    @pytest.mark.parametrize("n_users", [2, 7])
    def test_is_the_sample_std_over_root_n(self, n_users):
        rng = np.random.default_rng(n_users)
        lists = [RankedList.from_indices(u, rng.permutation(5)) for u in range(n_users)]
        for metric in self._metrics(n_users).values():
            per_user = np.array([metric([ranked]).value for ranked in lists])
            got = metric(lists)
            assert got.n_users == n_users
            assert got.value == pytest.approx(per_user.mean(), rel=1e-12, abs=1e-12)
            assert got.stderr == pytest.approx(
                float(per_user.std(ddof=1) / np.sqrt(n_users)), rel=1e-12, abs=1e-12)
            assert got.stderr > 0.0 or np.ptp(per_user) == 0.0


class TestExactOracle:
    def _random_instance(self, rng, n_users, n_cands):
        r_fwd = rng.integers(0, 2, (n_users, n_cands)).astype(float)
        r_bwd = rng.integers(0, 2, (n_users, n_cands)).astype(float)
        t_fwd = rng.uniform(0.05, 1.0, (n_users, n_cands))
        t_bwd = rng.uniform(0.05, 1.0, (n_users, n_cands))
        rankings = [RankedList.from_indices(u, rng.permutation(n_cands))
                    for u in range(n_users)]
        w = LambdaWeight(k=int(rng.integers(1, n_cands + 2)))
        return rankings, r_fwd, r_bwd, t_fwd, t_bwd, w

    def test_matches_joint_enumeration(self):
        # the per-pair closed form must agree with the exhaustive 4^n_pairs sum
        rng = np.random.default_rng(6)
        for _ in range(5):
            inst = self._random_instance(rng, n_users=2, n_cands=2)
            rankings, r_fwd, r_bwd, t_fwd, t_bwd, w = inst
            for kind in EstimatorKind:
                brute = brute_force_expectation(rankings, r_fwd, r_bwd, t_fwd, t_bwd,
                                                w, kind)
                closed = expected_metric_exact(rankings, r_fwd, r_bwd, t_fwd, t_bwd,
                                               w, kind)
                assert closed == pytest.approx(brute, abs=1e-12)

    def test_two_sided_unbiasedness_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n_users = int(rng.integers(1, 5))
            n_cands = int(rng.integers(1, 7))
            rankings, r_fwd, r_bwd, t_fwd, t_bwd, w = self._random_instance(
                rng, n_users, n_cands
            )
            expect = expected_metric_exact(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w,
                                           EstimatorKind.IPW2)
            truth = metric_ground_truth(rankings, r_fwd, r_bwd, w).value
            assert math.isclose(expect, truth, rel_tol=1e-12, abs_tol=1e-12)

    def test_unit_exposure_all_estimators_exact(self):
        rng = np.random.default_rng(8)
        rankings, r_fwd, r_bwd, _, _, w = self._random_instance(rng, 3, 5)
        ones = np.ones((3, 5))
        truth = metric_ground_truth(rankings, r_fwd, r_bwd, w).value
        for kind in EstimatorKind:
            expect = expected_metric_exact(rankings, r_fwd, r_bwd, ones, ones, w, kind)
            assert expect == pytest.approx(truth, abs=1e-12)

    def test_monte_carlo_consistency(self):
        # resample exposures and average the two-sided estimate; the sample
        # mean converges toward the ground truth at the usual 1/sqrt(N) rate
        rng = np.random.default_rng(9)
        n_users, n_cands = 3, 4
        r_fwd = rng.integers(0, 2, (n_users, n_cands)).astype(float)
        r_fwd[:, 0] = 1.0
        r_bwd = rng.integers(0, 2, (n_users, n_cands)).astype(float)
        r_bwd[:, 1] = 1.0
        t_fwd = rng.uniform(0.3, 1.0, (n_users, n_cands))
        t_bwd = rng.uniform(0.3, 1.0, (n_users, n_cands))
        rankings = [RankedList.from_indices(u, rng.permutation(n_cands))
                    for u in range(n_users)]
        w = LambdaWeight(k=3)
        truth = metric_ground_truth(rankings, r_fwd, r_bwd, w).value

        lam = np.stack([w.weights(np.arange(1, n_cands + 1))
                        for _ in range(n_users)])
        cols = np.stack([lst.entry_indices() for lst in rankings])
        rows = np.arange(n_users)[:, None]
        n_draws = 20000
        o_f = rng.random((n_draws, n_users, n_cands)) < t_fwd
        o_b = rng.random((n_draws, n_users, n_cands)) < t_bwd
        y_f = o_f * r_fwd
        y_b = y_f * o_b * r_bwd
        gains = np.exp2(y_f) * (np.exp2(y_b) - 1.0) / (t_fwd * t_bwd) \
            + (np.exp2(y_f) - 1.0) / t_fwd
        per_draw = (gains[:, rows, cols] * lam).sum(axis=(1, 2)) / n_users
        assert abs(per_draw.mean() - truth) / truth < 0.02

    def test_theta_above_one_rejected(self):
        rankings, r_fwd, r_bwd, _, _ = _single_pair_setup()
        with pytest.raises(AssumptionViolationError):
            expected_metric_exact(rankings, r_fwd, r_bwd, np.full((1, 1), 1.5),
                                  np.full((1, 1), 0.5), LambdaWeight(k=1),
                                  EstimatorKind.IPW2)


def test_one_propensity_rule_and_message_everywhere():
    """Models, datasets, oracle instances and estimators share one rule and message."""
    plan = FoldPlan(k=2, proactive_folds=((0,), (1,)), reactive_folds=((0,), (1,)))
    bits = {name: [0] for name in ("r_fwd", "r_bwd", "o_fwd", "o_bwd", "y_fwd", "y_bwd")}
    rankings, r_fwd, r_bwd, _, t_bwd = _single_pair_setup()
    bad = np.full((1, 1), 1.5)
    for build in (
        lambda: ExposureModel(eta=1.0, theta_reactive_exposure=[1.0, 1.5],
                              theta_proactive_exposure=[1.0]),
        lambda: FeedbackDataset.from_columns(plan, [1], [1], **bits, theta_fwd=[1.5],
                                             theta_bwd=[1.0]),
        lambda: OracleInstance(r_fwd, r_bwd, bad, t_bwd, [[0]], 1),
        lambda: estimate_metric(IPW1, rankings, r_fwd, r_bwd * 0, bad, None, LambdaWeight(k=1)),
    ):
        with pytest.raises(AssumptionViolationError) as caught:
            build()
        name = str(caught.value).split(" ")[0]
        assert name.startswith("theta_")
        assert str(caught.value).startswith(f"{name} must lie in (0, 1]")


def reference_metric(kind, rankings, y_fwd, y_bwd, theta_fwd, theta_bwd, weight):
    """The per-list loop the kernel replaced: ``lam @ gain`` per user, then the mean.

    ``kind=None`` gives the ground truth, reading ``(y_fwd, y_bwd)`` as relevance.
    """
    totals = np.empty(len(rankings))
    for i, ranked in enumerate(rankings):
        u, idx = ranked.owner, ranked.entry_indices()
        lam = weight.weights(np.arange(1, len(ranked) + 1))
        yf, yb = y_fwd[u, idx], y_bwd[u, idx]
        if kind is None:
            gain = np.exp2(yf * (1.0 + yb)) - 1.0
        elif kind is NAIVE:
            gain = np.exp2(yf + yb) - 1.0
        elif kind is IPW1:
            gain = (np.exp2(yf + yb) - 1.0) / theta_fwd[u, idx]
        else:
            tf, tb = theta_fwd[u, idx], theta_bwd[u, idx]
            gain = np.exp2(yf) * (np.exp2(yb) - 1.0) / (tf * tb) + (np.exp2(yf) - 1.0) / tf
        totals[i] = lam @ gain
    return float(totals.sum() / len(rankings))


@st.composite
def ranked_instances(draw):
    """Lists of one depth whose owners are label rows in any order, and a cutoff up to depth + 3."""
    n_rows = draw(st.integers(1, 5))
    n_cands = draw(st.integers(1, 6))
    owners = draw(st.permutations(range(n_rows)))[:draw(st.integers(1, n_rows))]
    depth = draw(st.integers(1, n_cands))
    rankings = [RankedList.from_indices(u, draw(st.permutations(range(n_cands)))[:depth])
                for u in owners]
    shape = (n_rows, n_cands)
    bits = arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0]))
    thetas = arrays(np.float64, shape, elements=st.floats(1e-6, 1.0))
    weight = LambdaWeight(k=draw(st.integers(1, depth + 3)))
    return rankings, draw(bits), draw(bits), draw(thetas), draw(thetas), weight


class TestKernelAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(ranked_instances())
    def test_estimators_and_truth_match_the_loop(self, inst):
        rankings, r_fwd, r_bwd, t_fwd, t_bwd, w = inst
        y_fwd, y_bwd = r_fwd, r_fwd * r_bwd
        for kind in EstimatorKind:
            got = estimate_metric(kind, rankings, y_fwd, y_bwd, t_fwd, t_bwd, w).value
            want = reference_metric(kind, rankings, y_fwd, y_bwd, t_fwd, t_bwd, w)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
        got = metric_ground_truth(rankings, r_fwd, r_bwd, w).value
        assert math.isclose(got, reference_metric(None, rankings, r_fwd, r_bwd, None, None, w),
                            rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(ranked_instances())
    def test_ranked_lists_and_index_array_agree(self, inst):
        rankings, r_fwd, r_bwd, t_fwd, t_bwd, w = inst
        owners = [lst.owner for lst in rankings]
        ranking = np.array([lst.entries for lst in rankings])
        lists = (rankings, r_fwd, r_bwd, t_fwd, t_bwd)
        rows = (ranking, r_fwd[owners], r_bwd[owners], t_fwd[owners], t_bwd[owners])
        feedback = (r_fwd, r_fwd * r_bwd, t_fwd, t_bwd)
        for kind in EstimatorKind:
            assert expected_metric_exact(*lists, w, kind) == expected_metric_exact(*rows, w, kind)
            assert estimate_metric(kind, rankings, *feedback, w) == \
                estimate_metric(kind, ranking, *(a[owners] for a in feedback), w)
        assert metric_ground_truth(*lists[:3], w) == metric_ground_truth(*rows[:3], w)

    @settings(max_examples=200, deadline=None)
    @given(ranked_instances())
    def test_two_sided_unbiased_for_any_theta(self, inst):
        rankings, r_fwd, r_bwd, t_fwd, t_bwd, w = inst
        expect = expected_metric_exact(rankings, r_fwd, r_bwd, t_fwd, t_bwd, w, IPW2)
        truth = metric_ground_truth(rankings, r_fwd, r_bwd, w).value
        assert math.isclose(expect, truth, rel_tol=1e-12, abs_tol=1e-12)

    def test_ragged_lists_rejected(self):
        rankings = [RankedList.from_indices(0, [0, 1]), RankedList.from_indices(1, [0])]
        with pytest.raises(ContractViolation):
            metric_ground_truth(rankings, np.ones((2, 2)), np.ones((2, 2)), LambdaWeight(k=2))

    def test_bad_index_arrays_rejected(self):
        ones = np.ones((2, 3))
        for ranking in (np.array([[0, 1], [2, -1]]), np.array([[0, 0], [1, 2]]),
                        np.array([0, 1]), np.array([[0.0, 1.0], [1.0, 2.0]])):
            with pytest.raises(ContractViolation):
                metric_ground_truth(ranking, ones, ones, LambdaWeight(k=2))


class TestDcgAtK:
    def test_hand_derived_top_three(self):
        # gains 4, 2, 1 at ranks 1..3
        scores = np.array([[3.0, 2.0, 1.0]])
        r_fwd = np.array([[1, 1, 0]])
        r_bwd = np.array([[1, 0, 0]])
        expect = 4.0 / 1.0 + 2.0 / np.log2(3.0) + 1.0 / 2.0
        got = dcg_at_k(scores, r_fwd, r_bwd, 3)
        assert got[0] == pytest.approx(expect, abs=1e-12)
        assert got[0] == pytest.approx(5.7619, abs=5e-5)

    def test_all_zero_labels_keep_unit_floor(self):
        scores = np.array([[3.0, 2.0, 1.0]])
        zero = np.zeros((1, 3))
        expect = 1.0 + 1.0 / np.log2(3.0) + 0.5
        got = dcg_at_k(scores, zero, zero, 3)
        assert got[0] == pytest.approx(expect, abs=1e-12)
        assert got[0] == pytest.approx(2.1309, abs=5e-5)

    def test_k_one_best_item(self):
        scores = np.array([[0.2, 0.9, 0.5]])
        r_fwd = np.array([[0, 1, 0]])
        r_bwd = np.array([[0, 1, 1]])
        assert dcg_at_k(scores, r_fwd, r_bwd, 1)[0] == 4.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        scores = rng.random((4, 6))
        r_fwd = rng.integers(0, 2, (4, 6))
        r_bwd = rng.integers(0, 2, (4, 6))
        base = dcg_at_k(scores, r_fwd, r_bwd, 4)
        for transform in (lambda s: 3.0 * s + 2.0, np.exp, lambda s: s ** 3):
            again = dcg_at_k(transform(scores), r_fwd, r_bwd, 4)
            np.testing.assert_array_equal(base, again)

    def test_ties_break_by_ascending_index(self):
        scores = np.array([[0.5, 0.5, 0.5]])
        r_fwd = np.array([[0, 1, 0]])
        r_bwd = np.array([[0, 0, 0]])
        # tied scores keep candidate order 0, 1, 2; the relevant one sits at rank 2
        assert dcg_at_k(scores, r_fwd, r_bwd, 1)[0] == 1.0
        assert dcg_at_k(scores, r_fwd, r_bwd, 2)[0] == pytest.approx(
            1.0 + 2.0 / np.log2(3.0)
        )

    def test_k_larger_than_list(self):
        scores = np.array([[1.0, 0.5]])
        r_fwd = np.array([[1, 0]])
        r_bwd = np.array([[0, 0]])
        assert dcg_at_k(scores, r_fwd, r_bwd, 10)[0] == pytest.approx(2.0 + 1.0 / np.log2(3.0))

    def test_k_below_one_rejected(self):
        with pytest.raises(ContractViolation):
            dcg_at_k(np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2)), 0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ContractViolation):
            dcg_at_k(np.ones((1, 0)), np.ones((1, 0)), np.ones((1, 0)), 1)


_GOOD_ROW = "0,0.5,ipw2,3,1.25,0.125,40"


def _edit(row: str, i: int, cell: str) -> str:
    """``row`` with its ``i``-th cell replaced by ``cell``."""
    cells = row.split(",")
    cells[i] = cell
    return ",".join(cells)


class TestEvalReportCsv:
    def _records(self):
        return [
            EvalRecord(fold=0, eta=0.5, method="ipw2", k=3,
                       dcg_mean=1.2345, dcg_stderr=0.01, n_users=40),
            EvalRecord(fold=1, eta=0.5, method="conventional", k=10,
                       dcg_mean=2.5, dcg_stderr=0.2, n_users=40),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "eval.csv"
        save_eval_report(self._records(), path)
        assert load_eval_report(path) == self._records()
        save_eval_report(load_eval_report(path), tmp_path / "again.csv")
        assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            load_eval_report(path)

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "eval.csv"
        save_eval_report(self._records(), path)
        assert path.read_bytes() == (
            b"fold,eta,method,K,dcg_mean,dcg_stderr,n_users\r\n"
            b"0,0.5,ipw2,3,1.2345,0.01,40\r\n"
            b"1,0.5,conventional,10,2.5,0.2,40\r\n"
        )

    @pytest.mark.parametrize("rows, message", [
        ([_GOOD_ROW + ",99"], "line 2: expected 7 columns, got 8"),
        ([_GOOD_ROW.rsplit(",", 1)[0]], "line 2: expected 7 columns, got 6"),
        *[([_edit(_GOOD_ROW, i, bad)], f"line 2: {column} must be finite")
          for column, i in (("eta", 1), ("dcg_mean", 4), ("dcg_stderr", 5))
          for bad in ("nan", "inf")],
        *[([_edit(_GOOD_ROW, i, "1.0")], f"line 2: {column}: invalid literal for int")
          for column, i in (("fold", 0), ("K", 3), ("n_users", 6))],
        (["", _GOOD_ROW, "", "", _edit(_GOOD_ROW, 4, "x")], "line 6: dcg_mean: could not convert"),
        ([_edit(_GOOD_ROW, 0, "1_0")], "line 2: fold: digit-group underscore in '1_0'"),
        ([_edit(_GOOD_ROW, 4, "0.2_5")], "line 2: dcg_mean: digit-group underscore in '0.2_5'"),
    ], ids=["extra-column", "short-row",
            *[f"{c}-{bad}" for c in ("eta", "dcg_mean", "dcg_stderr") for bad in ("nan", "inf")],
            "fold-1.0", "K-1.0", "n_users-1.0", "blank-lines-counted", "fold-1_0", "dcg_mean-0.2_5"])
    def test_malformed_row_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "eval.csv"
        path.write_bytes("\r\n".join(["fold,eta,method,K,dcg_mean,dcg_stderr,n_users", *rows,
                                      ""]).encode())
        with pytest.raises(DataFormatError, match=f"^eval report CSV: {message}"):
            load_eval_report(path)
