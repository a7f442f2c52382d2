"""Randomized oracle harness: unbiasedness certification and bias witnesses."""

import itertools
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchltr import (
    AssumptionViolationError,
    ContractViolation,
    DataFormatError,
    EstimatorKind,
    LambdaWeight,
    OracleInstance,
    check_instance,
    estimate_metric,
    run_verification,
    single_pair_witness,
)
from matchltr import verify
from matchltr.metrics import _coefficients, _gain, metric_ground_truth
from matchltr.verify import (
    _FIELDS,
    VerificationReport,
    check_batch,
    load_instance,
    save_instance,
)


def _draw_by_separate_calls(rng, max_users, max_candidates, theta_one):
    """One instance's fields as run_verification draws them, by separate calls: one per
    propensity or bit table, one permutation per user."""
    n_users = int(rng.integers(1, max_users + 1))
    n_cands = int(rng.integers(1, max_candidates + 1))
    shape = (n_users, n_cands)
    if theta_one:
        theta_fwd, theta_bwd = np.ones(shape), np.ones(shape)
    else:
        theta_fwd = rng.uniform(0.05, 1.0, shape)
        theta_bwd = rng.uniform(0.05, 1.0, shape)
    r_fwd = rng.integers(0, 2, shape)
    r_bwd = rng.integers(0, 2, shape)
    ranking = np.stack([rng.permutation(n_cands) for _ in range(n_users)])
    return r_fwd, r_bwd, theta_fwd, theta_bwd, ranking, int(rng.integers(1, n_cands + 2))


class TestWitness:
    def test_canonical_values(self):
        result = check_instance(single_pair_witness())
        assert result.truth == 3.0
        assert result.expected["naive"] == 1.0
        assert result.expected["ipw1"] == 2.0
        assert result.expected["ipw2"] == 3.0

    def test_errors(self):
        result = check_instance(single_pair_witness())
        assert result.error(EstimatorKind.NAIVE) == 2.0
        assert result.error(EstimatorKind.IPW2) == 0.0


class TestRunVerification:
    def test_default_run_passes(self):
        report = run_verification(trials=300, seed=0)
        assert report.passed
        assert report.max_abs_error["ipw2"] < 1e-10
        assert report.naive_deviations > 0
        # the one-sided estimator misses on every instance that ranks a
        # mutually relevant pair with partial backward exposure inside the cutoff
        assert report.ipw1_eligible > 0
        assert report.ipw1_deviations == report.ipw1_eligible

    def test_unit_exposure_gives_zero_error_everywhere(self):
        report = run_verification(trials=100, seed=1, theta_one=True)
        for kind in EstimatorKind:
            assert report.max_abs_error[kind.value] == 0.0

    def test_failures_collected_under_impossible_tolerance(self):
        # tolerance 0, the strictest allowed, is breached by every rounding residue
        report = run_verification(trials=50, seed=2, tolerance=0.0)
        assert not report.passed
        rng = np.random.default_rng(2)
        drawn = [OracleInstance(*_draw_by_separate_calls(rng, 4, 6, False)) for _ in range(50)]
        breached = [inst for inst in drawn if check_instance(inst).error(EstimatorKind.IPW2) > 0]
        assert len(report.failures) == len(breached)
        for got, want in zip(report.failures, breached):
            for f in fields(OracleInstance):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name

    @pytest.mark.parametrize("settings, match", [
        ({"tolerance": -1.0}, "tolerance"),
        ({"tolerance": float("nan")}, "tolerance"),
        ({"tolerance": float("inf")}, "tolerance"),
        ({"max_users": 0}, "max_users"),
        ({"max_candidates": 0}, "max_candidates"),
        ({"seed": -1}, "seed"),
    ])
    def test_bad_settings_rejected(self, settings, match):
        with pytest.raises(ContractViolation, match=match):
            run_verification(trials=5, **settings)

    @pytest.mark.parametrize("settings", [
        {"trials": 2.5}, {"trials": True}, {"seed": True},
        {"max_users": 6.5}, {"max_users": True}, {"max_candidates": 6.5}, {"max_candidates": True},
    ])
    def test_integer_settings_must_be_integers(self, settings):
        with pytest.raises(TypeError, match="integer") as err:
            run_verification(**{"trials": 5, **settings})
        assert err.traceback[-1].name == "_index"  # rejected before numpy sees it

    def test_report_lines_render(self):
        report = run_verification(trials=20, seed=3)
        text = "\n".join(report.lines())
        assert "max |E[estimate] - truth|" in text
        assert "witness" in text

    def test_exact_std_reported(self):
        report = run_verification(trials=50, seed=3)
        assert report.max_ipw2_std > 0.0
        assert f"largest exact std of the two-sided estimate: {report.max_ipw2_std:.3e}" \
            in report.lines()
        # with every pair exposed the estimate is a constant
        assert run_verification(trials=50, seed=3, theta_one=True).max_ipw2_std == 0.0


def _reference_report(trials, max_users, max_candidates, tolerance, seed, theta_one):
    """run_verification one instance at a time: OracleInstance, check_batch, check_instance."""
    rng = np.random.default_rng(seed)
    drawn = [OracleInstance(*_draw_by_separate_calls(rng, max_users, max_candidates, theta_one))
             for _ in range(trials)]
    truth, mean, var, eligible = check_batch(drawn)
    err = np.abs(mean - truth)
    naive, ipw1, ipw2 = err > tolerance
    return VerificationReport(
        trials=trials,
        tolerance=tolerance,
        max_abs_error={kind.value: float(row.max()) for kind, row in zip(EstimatorKind, err)},
        naive_deviations=int(naive.sum()),
        ipw1_deviations=int((ipw1 & eligible).sum()),
        ipw1_eligible=int(eligible.sum()),
        max_ipw2_std=float(np.sqrt(var[2].max())),
        witness=check_instance(single_pair_witness()),
        failures=[inst for inst, bad in zip(drawn, ipw2) if bad],
    )


class TestBatchDraw:
    @pytest.mark.parametrize("tolerance", [0.0, 1e-10])
    @pytest.mark.parametrize("theta_one", [False, True])
    @pytest.mark.parametrize("caps", [(1, 1), (4, 6), (10, 12)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_instance_path(self, seed, caps, theta_one, tolerance):
        got = run_verification(trials=50, max_users=caps[0], max_candidates=caps[1],
                               tolerance=tolerance, seed=seed, theta_one=theta_one)
        want = _reference_report(50, *caps, tolerance, seed, theta_one)
        for f in fields(VerificationReport):
            if f.name != "failures":
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert len(got.failures) == len(want.failures)
        for a, b in zip(got.failures, want.failures):
            for f in fields(OracleInstance):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert type(x) is type(y) and np.asarray(x).dtype == np.asarray(y).dtype, f.name
                assert np.array_equal(x, y), f.name

    @pytest.mark.parametrize("theta_one", [False, True])
    @pytest.mark.parametrize("caps", [(1, 1), (4, 6), (10, 12)])
    def test_draw_takes_the_separate_call_stream(self, caps, theta_one, monkeypatch):
        # failing_instance.json keeps its bytes only if the draws keep their values;
        # Generator.permuted over an instance's rows draws a permutation per row
        batches = []

        def enumerate_and_keep(*batch):
            batches.append(batch)
            return enumerate_(*batch)

        enumerate_ = verify._enumerate
        monkeypatch.setattr(verify, "_enumerate", enumerate_and_keep)
        for seed in range(20):
            run_verification(trials=10, max_users=caps[0], max_candidates=caps[1],
                             seed=seed, theta_one=theta_one)
            values, ranking, k, sizes = batches.pop()
            rng = np.random.default_rng(seed)
            for b in range(10):
                want = _draw_by_separate_calls(rng, *caps, theta_one)
                users, cands = sizes[b]
                got = (*values[:, b, :users, :cands], ranking[b, :users, :cands], k[b])
                for name, x, y in zip(_FIELDS, got, want):
                    assert np.array_equal(x, y), (seed, b, name)

    def test_criterion_one_counts_and_witness(self):
        # criterion 1's counts, pinned: a change to the draw or to the sweep shows here
        report = run_verification(trials=1000, max_users=4, max_candidates=6,
                                  tolerance=1e-10, seed=0)
        assert (report.naive_deviations, report.ipw1_deviations, report.ipw1_eligible) \
            == (892, 692, 692)
        assert report.witness.truth == 3.0
        assert report.witness.expected == {"naive": 1.0, "ipw1": 2.0, "ipw2": 3.0}


class TestBatchedOracle:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_users=st.integers(1, 10),
           max_candidates=st.integers(1, 12), theta_one=st.booleans())
    @example(seed=0, max_users=10, max_candidates=12, theta_one=False)
    def test_batch_values_equal_a_batch_of_one(self, seed, max_users, max_candidates, theta_one):
        # padding to the batch's largest shape must not change a single bit
        rng = np.random.default_rng(seed)
        caps = (max_users, max_candidates)
        drawn = [OracleInstance(*_draw_by_separate_calls(rng, *caps, theta_one))
                 for _ in range(100)]
        truth, mean, _, _ = check_batch(drawn)
        for b, inst in enumerate(drawn):
            alone = check_instance(inst)
            assert truth[b] == alone.truth
            for kind, row in zip(EstimatorKind, mean):
                assert row[b] == alone.expected[kind.value], kind

    def test_two_sided_exact_at_tiny_propensities(self):
        """Propensities log-uniform in [1e-8, 1]: an ipw2 weight reaches 1e16, and its
        exact mean still lands on the truth."""
        rng = np.random.default_rng(0)
        drawn = []
        for _ in range(500):
            r_fwd, r_bwd, _, _, ranking, k = _draw_by_separate_calls(rng, 4, 6, True)
            theta_fwd, theta_bwd = 10.0 ** rng.uniform(-8.0, 0.0, (2, *r_fwd.shape))
            drawn.append(OracleInstance(r_fwd, r_bwd, theta_fwd, theta_bwd, ranking, k))
        truth, mean, _, _ = check_batch(drawn)
        error = np.abs(mean[list(EstimatorKind).index(EstimatorKind.IPW2)] - truth)
        assert error.max() <= 1e-10
        assert min(inst.theta_fwd.min() for inst in drawn) < 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_variance_matches_monte_carlo(self, seed):
        # resample both exposure bits of every pair and re-run the two-sided estimator
        inst = OracleInstance(*_draw_by_separate_calls(np.random.default_rng(seed), 4, 6, False))
        _, _, var, _ = check_batch([inst])
        exact = var[list(EstimatorKind).index(EstimatorKind.IPW2), 0]
        assert exact > 0.0
        rng = np.random.default_rng(100 + seed)
        n_draws = 20_000
        o_f = rng.random((n_draws, *inst.r_fwd.shape)) < inst.theta_fwd
        o_b = rng.random((n_draws, *inst.r_fwd.shape)) < inst.theta_bwd
        weight = LambdaWeight(k=inst.k)
        draws = []
        for i in range(n_draws):
            y_fwd = o_f[i] * inst.r_fwd
            y_bwd = y_fwd * o_b[i] * inst.r_bwd
            draws.append(estimate_metric(EstimatorKind.IPW2, inst.ranking, y_fwd, y_bwd,
                                         inst.theta_fwd, inst.theta_bwd, weight).value)
        assert abs(np.var(draws, ddof=1) / exact - 1.0) < 0.10


def _enumerate_reference(values, ranking, k, sizes):
    """The oracle's sweep over a padded batch as it stood with one gather per instance
    row (``take_along_axis``), a pass per o_bwd and sums by ``np.add.accumulate``:
    an independent implementation that ``verify._enumerate`` must match bit for bit."""
    users, width = sizes.max(axis=0)
    rf, rb, tf, tb = np.take_along_axis(values[:, :, :users, :width],
                                        ranking[None, :, :users, :width], axis=3)
    n_users = sizes[:, 0]
    ranks = np.arange(1, width + 1)
    disc = np.where(ranks <= k[:, None, None], LambdaWeight(k=width).weights(ranks), 0.0)

    def user_mean(per_pair, weight):
        per_user = np.add.accumulate(per_pair * weight, axis=-1)[..., -1]
        return np.add.accumulate(per_user, axis=-1)[..., -1] / n_users

    m1, m2 = np.zeros((2, len(EstimatorKind)) + rf.shape)
    for o_b in (0.0, 1.0):
        p = tf * (tb if o_b else 1.0 - tb)
        y_b = rf * o_b * rb
        g = np.stack([_gain(*_coefficients(kind, rf, y_b, tf, tb)) for kind in EstimatorKind])
        m1 += p * g
        m2 += p * g * g
    var = user_mean(np.maximum(m2 - m1 * m1, 0.0), disc * disc) / n_users
    eligible = ((rf * rb * disc > 0) & (tb < 1.0)).any(axis=(1, 2))
    return user_mean(_gain(rf, rf * rb), disc), user_mean(m1, disc), var, eligible


def _brute_force(inst):
    """Truth, and each estimator's exact mean and variance, from every one of the
    ``4**(users * candidates)`` exposure outcomes scored by ``estimate_metric``."""
    shape, n = inst.r_fwd.shape, inst.r_fwd.size
    weight = LambdaWeight(k=inst.k)
    truth = metric_ground_truth(inst.ranking, inst.r_fwd, inst.r_bwd, weight).value
    probs, scores = [], []
    for bits in itertools.product((0, 1), repeat=2 * n):
        o_f, o_b = np.reshape(bits, (2, *shape))
        prob = np.prod(np.where(o_f, inst.theta_fwd, 1.0 - inst.theta_fwd)
                       * np.where(o_b, inst.theta_bwd, 1.0 - inst.theta_bwd))
        if prob == 0.0:  # adds nothing to either moment
            continue
        probs.append(prob)
        y_fwd = o_f * inst.r_fwd
        y_bwd = y_fwd * o_b * inst.r_bwd
        scores.append([estimate_metric(kind, inst.ranking, y_fwd, y_bwd, inst.theta_fwd,
                                       inst.theta_bwd, weight).value for kind in EstimatorKind])
    probs, scores = np.array(probs), np.array(scores)
    mean = probs @ scores
    return truth, mean, probs @ (scores - mean) ** 2


class TestSweepReference:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_users=st.integers(1, 6),
           max_candidates=st.integers(1, 8), trials=st.integers(1, 60), theta_one=st.booleans())
    @example(seed=0, max_users=1, max_candidates=1, trials=1, theta_one=False)
    @example(seed=1, max_users=1, max_candidates=1, trials=40, theta_one=True)
    @example(seed=2, max_users=4, max_candidates=6, trials=50, theta_one=True)
    @example(seed=3, max_users=4, max_candidates=6, trials=50, theta_one=False)
    def test_equal_arrays(self, seed, max_users, max_candidates, trials, theta_one):
        # check_batch pads to its largest instance, the reference batch to the caps
        rng = np.random.default_rng(seed)
        caps = (max_users, max_candidates)
        drawn = [OracleInstance(*_draw_by_separate_calls(rng, *caps, theta_one))
                 for _ in range(trials)]
        batch = verify._padded(trials, *caps)
        for b, inst in enumerate(drawn):
            verify._put(batch, b, inst)
        for got, want in zip(check_batch(drawn), _enumerate_reference(*batch)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_users=st.integers(1, 6),
           max_candidates=st.integers(1, 8), theta_one=st.booleans())
    @example(seed=0, max_users=1, max_candidates=1, theta_one=False)
    @example(seed=0, max_users=4, max_candidates=6, theta_one=True)
    def test_equal_arrays_on_the_drawn_batch(self, seed, max_users, max_candidates, theta_one):
        batches = []

        def enumerate_and_keep(*batch):
            batches.append(batch)
            return enumerate_(*batch)

        enumerate_ = verify._enumerate
        verify._witness()  # checked once per process, before the patch
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_enumerate", enumerate_and_keep)
            run_verification(trials=30, max_users=max_users, max_candidates=max_candidates,
                             seed=seed, theta_one=theta_one)
        (batch,) = batches
        table, eligible = enumerate_(*batch)
        truth, mean, var, want_eligible = _enumerate_reference(*batch)
        assert table.tobytes() == np.vstack([truth, mean, var]).tobytes()
        assert eligible.tobytes() == want_eligible.tobytes()

    @pytest.mark.parametrize("theta_one", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_brute_force_enumeration(self, seed, theta_one):
        # one instance of every shape up to 2 users x 3 candidates: 4096 outcomes at 2x3
        rng = np.random.default_rng(seed)
        for shape in itertools.product((1, 2), (1, 2, 3)):
            thetas = [np.ones(shape) if theta_one else rng.uniform(0.05, 1.0, shape)
                      for _ in range(2)]
            inst = OracleInstance(*rng.integers(0, 2, (2, *shape)), *thetas,
                                  [rng.permutation(shape[1]) for _ in range(shape[0])],
                                  int(rng.integers(1, shape[1] + 2)))
            truth, mean, var, _ = check_batch([inst])
            want_truth, want_mean, want_var = _brute_force(inst)
            np.testing.assert_allclose(truth[0], want_truth, rtol=1e-12, atol=0)
            np.testing.assert_allclose(mean[:, 0], want_mean, rtol=1e-12, atol=0)
            np.testing.assert_allclose(var[:, 0], want_var, rtol=1e-12, atol=0)


class TestInstanceSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        inst = OracleInstance(*_draw_by_separate_calls(rng, 4, 6, False))
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert np.array_equal(inst.r_fwd, again.r_fwd)
        assert np.array_equal(inst.theta_bwd, again.theta_bwd)
        assert np.array_equal(inst.ranking, again.ranking)
        assert inst.k == again.k
        # identical oracle outcome after the round trip
        assert check_instance(inst) == check_instance(again)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"r_fwd\": [[1]]}")
        with pytest.raises(DataFormatError):
            load_instance(path)

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(OracleInstance(r_fwd=[[1, 0]], r_bwd=[[0, 1]], theta_fwd=[[0.5, 1.0]],
                                     theta_bwd=[[0.25, 0.75]], ranking=[[1, 0]], k=2), path)
        assert path.read_bytes() == (
            b'{\n  "k": 2,\n  "r_bwd": [\n    [\n      0,\n      1\n    ]\n  ],\n'
            b'  "r_fwd": [\n    [\n      1,\n      0\n    ]\n  ],\n  "ranking": [\n'
            b'    [\n      1,\n      0\n    ]\n  ],\n  "theta_bwd": [\n    [\n'
            b'      0.25,\n      0.75\n    ]\n  ],\n  "theta_fwd": [\n    [\n'
            b'      0.5,\n      1.0\n    ]\n  ]\n}\n'
        )

    def test_non_integer_cutoff_rejected(self, tmp_path):
        path = tmp_path / "instance.json"
        save_instance(single_pair_witness(), path)
        payload = json.loads(path.read_text())
        payload["k"] = 2.5
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="oracle instance: .*integer"):
            load_instance(path)

    @pytest.mark.parametrize("edit, message", [
        ({"r_fwd": [[0.5, 0]]}, "r_fwd must contain bits"),
        ({"r_bwd": [[0, 2]]}, "r_bwd must contain bits"),
        ({"r_fwd": [[256, 0]]}, "r_fwd must contain bits"),
        ({"ranking": [[0.7, 1.2]]}, "ranking must hold integer"),
        ({"ranking": [[1.0, 0.0]]}, "ranking must hold integer"),
    ], ids=["half", "two", "256", "fractional-ranking", "float-ranking"])
    def test_bits_and_ranking_checked_before_the_cast(self, edit, message):
        base = dict(r_fwd=[[1, 0]], r_bwd=[[0, 1]], theta_fwd=[[0.5, 1.0]],
                    theta_bwd=[[0.25, 0.75]], ranking=[[1, 0]], k=2)
        with pytest.raises(ContractViolation, match=message):
            OracleInstance(**{**base, **edit})

    @pytest.mark.parametrize("edit", [
        {"theta_fwd": [[0.0, 1.0]]}, {"theta_bwd": [[0.25, 1.5]]},
        {"theta_fwd": [[float("nan"), 1.0]]}, {"theta_bwd": [[0.25, -0.5]]},
    ], ids=["zero", "above-one", "nan", "negative"])
    def test_propensities_must_lie_in_the_unit_interval(self, edit):
        base = dict(r_fwd=[[1, 0]], r_bwd=[[0, 1]], theta_fwd=[[0.5, 1.0]],
                    theta_bwd=[[0.25, 0.75]], ranking=[[1, 0]], k=2)
        name = next(iter(edit))
        with pytest.raises(AssumptionViolationError, match=rf"{name} must lie in \(0, 1\]"):
            OracleInstance(**{**base, **edit})

    @pytest.mark.parametrize("name, index, value, error, message", [
        ("r_fwd", (0, 0), 2, ContractViolation, "r_fwd must contain bits"),
        ("theta_fwd", (0, 0), 0.0, AssumptionViolationError, r"theta_fwd must lie in \(0, 1\]"),
        ("theta_bwd", (0, 0), np.nan, AssumptionViolationError, r"theta_bwd must lie in \(0, 1\]"),
        ("ranking", (0, slice(0, 2)), 0, ContractViolation, "permutation"),
        ("k", None, 0, ContractViolation, "cutoff must be positive"),
        ("k", None, [2], ContractViolation, "need one cutoff per instance"),
    ], ids=["bit-two", "theta-zero", "theta-nan", "repeated-rank", "zero-cutoff", "list-cutoff"])
    def test_checks_reject_one_bad_field(self, name, index, value, error, message):
        row = dict(zip(_FIELDS, _draw_by_separate_calls(np.random.default_rng(5), 4, 6, False)))
        assert row["ranking"].shape[1] >= 2
        OracleInstance(**row)
        if index is None:
            row[name] = value
        else:
            row[name][index] = value
        with pytest.raises(error, match=message):
            OracleInstance(**row)

    def test_instance_without_users_rejected(self):
        empty = np.zeros((0, 2))
        with pytest.raises(ContractViolation, match="1 user"):
            OracleInstance(r_fwd=empty, r_bwd=empty, theta_fwd=empty + 0.5,
                           theta_bwd=empty + 0.5, ranking=np.zeros((0, 2), dtype=int), k=1)

    def test_ranking_must_be_permutation(self):
        with pytest.raises(Exception):
            OracleInstance(r_fwd=[[1, 0]], r_bwd=[[0, 0]],
                           theta_fwd=[[0.5, 0.5]], theta_bwd=[[0.5, 0.5]],
                           ranking=[[0, 0]], k=1)
