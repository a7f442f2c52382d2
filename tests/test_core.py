"""Domain-type contracts: ranked lists, observed pairs, matrices, folds."""

from dataclasses import replace

import numpy as np
import pytest

from matchltr import (
    ContractViolation,
    AssumptionViolationError,
    FeedbackDataset,
    FoldPlan,
    LambdaWeight,
    PreferenceMatrix,
    RankedList,
    SideAssignment,
    metric_ground_truth,
    rank_candidates,
)
from matchltr.simulate import _fold_index


def rank_of(entries, v, n_candidates=10):
    """1-based rank of candidate ``v`` in one ranking, as the metric kernel reads it.

    With ``v`` the only relevant candidate the metric is ``1 / log2(rank + 1)``;
    a candidate the ranking does not list contributes nothing.
    """
    r_fwd = np.zeros((1, n_candidates))
    r_fwd[0, v] = 1.0
    value = metric_ground_truth(np.array([entries]), r_fwd, np.zeros_like(r_fwd),
                                LambdaWeight(k=len(entries))).value
    return None if value == 0.0 else round(2.0 ** (1.0 / value) - 1.0)


class TestRankOf:
    def setup_method(self):
        self.entries = [3, 1, 2]

    def test_head_of_list(self):
        assert rank_of(self.entries, 3) == 1

    def test_tail_of_list(self):
        assert rank_of(self.entries, 2) == 3

    def test_absent_item(self):
        assert rank_of(self.entries, 9) is None

    def test_ranks_are_a_bijection(self):
        ranks = [rank_of(self.entries, v) for v in self.entries]
        assert ranks == [1, 2, 3]

    def test_consistent_with_score_sorting(self):
        # sorting candidates by score and reading ranks back gives 1..n
        rng = np.random.default_rng(3)
        scores = rng.random((1, 6))
        order = rank_candidates(scores)[0]
        ranks = sorted(rank_of(order, int(v), 6) for v in order)
        assert ranks == list(range(1, 7))
        best = int(np.argmax(scores[0]))
        assert rank_of(order, best, 6) == 1


class TestRankedList:
    def test_duplicates_rejected(self):
        with pytest.raises(ContractViolation):
            RankedList.from_indices(0, [1, 1, 2])

    def test_owner_must_be_proactive(self):
        # the owner is a proactive index: a row of the (proactive x reactive) labels
        with pytest.raises(ContractViolation):
            RankedList.from_indices(-1, [0])
        labels = np.ones((2, 3))
        with pytest.raises(ContractViolation):
            metric_ground_truth([RankedList.from_indices(2, [0])], labels, labels,
                                LambdaWeight(k=1))

    def test_entries_must_be_reactive(self):
        # entries are reactive indices: columns of the (proactive x reactive) labels
        with pytest.raises(ContractViolation):
            RankedList.from_indices(0, [1, -2])
        labels = np.ones((2, 3))
        with pytest.raises(ContractViolation):
            metric_ground_truth([RankedList.from_indices(0, [3])], labels, labels,
                                LambdaWeight(k=1))

    @pytest.mark.parametrize("owner, entries", [(2.7, (1,)), (2, (1.9, 0.2)), (True, (0,)),
                                                (0, (1, False))])
    def test_indices_must_be_integers(self, owner, entries):
        with pytest.raises(TypeError, match="integer"):
            RankedList(owner=owner, entries=entries)

    def test_entry_indices(self):
        lst = RankedList.from_indices(2, np.array([5, 0, 3]))
        assert lst.entry_indices().tolist() == [5, 0, 3]
        assert lst.owner == 2 and lst.entries == (5, 0, 3)
        assert len(lst) == 3


class TestPairObservation:
    """One observed pair is one row of the columns a FeedbackDataset is built from."""

    def _make(self, u=0, v=1, **kwargs):
        # one proactive and two reactive users; the test block is empty
        plan = FoldPlan(k=2, proactive_folds=((0,), ()), reactive_folds=((), (0, 1)))
        row = dict(
            r_fwd=1, r_bwd=1, o_fwd=1, o_bwd=0, y_fwd=1, y_bwd=0,
            theta_fwd=0.5, theta_bwd=0.5,
        )
        row.update(kwargs)
        return FeedbackDataset.from_columns(plan, [u], [v],
                                            **{name: [value] for name, value in row.items()})

    def test_valid_observation(self):
        obs = self._make()
        assert obs.observed.tolist() == [[False, True]]
        assert obs.y_fwd.tolist() == [[0, 1]] and obs.y_bwd.tolist() == [[0, 0]]

    def test_forward_composition_enforced(self):
        with pytest.raises(ContractViolation):
            self._make(o_fwd=0, y_fwd=1, y_bwd=0)

    def test_backward_composition_enforced(self):
        with pytest.raises(ContractViolation):
            self._make(o_bwd=1, y_bwd=1, r_bwd=0)

    def test_backward_needs_forward(self):
        # y_bwd = 1 with y_fwd = 0 is unrepresentable
        with pytest.raises(ContractViolation):
            self._make(r_fwd=0, o_fwd=1, y_fwd=0, y_bwd=1)

    def test_theta_must_be_positive(self):
        with pytest.raises(AssumptionViolationError):
            self._make(theta_fwd=0.0)
        with pytest.raises(AssumptionViolationError):
            self._make(theta_bwd=1.5)

    def test_nan_theta_rejected(self):
        for name in ("theta_fwd", "theta_bwd"):
            with pytest.raises(AssumptionViolationError, match=name):
                self._make(**{name: float("nan")})

    def test_fractional_and_wide_bits_rejected(self):
        # an int8 cast would turn either into the bit 0
        for value in (0.5, 256):
            with pytest.raises(ContractViolation):
                self._make(o_bwd=value)

    def test_sides_enforced(self):
        # u indexes the proactive side and v the reactive side: index 1 is a
        # reactive user here, so it cannot own the pair
        with pytest.raises(ContractViolation):
            self._make(u=1, v=0)

    def test_non_bit_rejected(self):
        with pytest.raises(ContractViolation):
            self._make(r_fwd=2, y_fwd=2)


class TestPreferenceMatrix:
    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            PreferenceMatrix(forward=np.zeros((2, 3)), backward=np.zeros((3, 2)))

    def test_range_checked(self):
        with pytest.raises(ContractViolation):
            PreferenceMatrix(forward=np.full((2, 2), 1.5), backward=np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_a_side_with_no_users_is_rejected(self, shape):
        """Neither shape can be saved as a preferences.csv that loads back."""
        with pytest.raises(ContractViolation, match="at least one user"):
            PreferenceMatrix(forward=np.zeros(shape), backward=np.zeros(shape))

    def test_from_square_transposes_backward(self):
        m = np.array([[0.0, 0.2], [0.9, 0.0]])
        pm = PreferenceMatrix.from_square(m, SideAssignment.trivial(1, 1))
        assert pm.forward[0, 0] == 0.2
        # backward[u, v] is v's preference for u, i.e. m[v, u]
        assert pm.backward[0, 0] == 0.9

    def test_from_square_requires_square(self):
        with pytest.raises(ContractViolation):
            PreferenceMatrix.from_square(np.zeros((2, 3)), SideAssignment.trivial(1, 1))

    def test_restrict_selects_blocks(self):
        """from_square keeps the proactive rows and reactive columns of m and of m.T."""
        n = 6
        rng = np.random.default_rng(0)
        m = rng.random((n, n))
        assignment = SideAssignment(proactive_ids=(0, 2, 4), reactive_ids=(1, 3, 5))
        sub = PreferenceMatrix.from_square(m, assignment)
        assert sub.forward[1, 2] == m[2, 5]
        assert sub.backward[1, 2] == m[5, 2]
        assert sub.forward.shape == sub.backward.shape == (3, 3)

    @pytest.mark.parametrize("n_users", [4, 8])
    def test_from_square_assignment_must_cover_the_matrix(self, n_users):
        """A 6-user matrix under a 4- or an 8-user assignment is no market of either size."""
        with pytest.raises(ContractViolation, match="expected a"):
            PreferenceMatrix.from_square(np.full((6, 6), 0.5),
                                         SideAssignment.trivial(n_users // 2, n_users // 2))


class TestSideAssignment:
    def test_disjoint_enforced(self):
        with pytest.raises(ContractViolation):
            SideAssignment(proactive_ids=(0, 1), reactive_ids=(1, 2))

    def test_cover_enforced(self):
        with pytest.raises(ContractViolation):
            SideAssignment(proactive_ids=(0,), reactive_ids=(2,))

    def test_trivial(self):
        a = SideAssignment.trivial(2, 3)
        assert a.proactive_ids == (0, 1)
        assert a.reactive_ids == (2, 3, 4)
        assert a.n_proactive == 2 and a.n_reactive == 3


class TestFoldPlan:
    def _plan(self, test_fold=0):
        return FoldPlan(
            k=2,
            proactive_folds=((0, 1), (2, 3)),
            reactive_folds=((0,), (1, 2)),
            test_fold=test_fold,
        )

    def test_partition_enforced(self):
        with pytest.raises(ContractViolation):
            FoldPlan(k=2, proactive_folds=((0, 1), (1, 2)), reactive_folds=((0,), (1,)))

    def test_test_mask_is_exact_product(self):
        plan = self._plan()
        mask = plan.test_mask()
        expect = np.zeros((4, 3), dtype=bool)
        expect[np.ix_([0, 1], [0])] = True
        assert np.array_equal(mask, expect)

    def test_blocks_are_disjoint_and_cover(self):
        plan = self._plan()
        test, val, train = plan.test_mask(), plan.validation_mask(), plan.train_mask()
        assert not (test & val).any()
        assert not (test & train).any()
        assert not (val & train).any()
        assert (test | val | train).all()

    def test_with_test_fold(self):
        plan = replace(self._plan(), test_fold=1)
        assert plan.test_fold == 1
        assert plan.validation_fold == 0
        assert plan.test_mask()[2, 1] and not plan.test_mask()[0, 0]
        with pytest.raises(ContractViolation, match="test_fold"):  # __post_init__ runs again
            replace(plan, test_fold=2)

    def test_fold_lookup_vectors(self):
        plan = self._plan()
        assert _fold_index(plan.proactive_folds).tolist() == [0, 0, 1, 1]
        assert _fold_index(plan.reactive_folds).tolist() == [0, 1, 1]

    def test_invalid_test_fold(self):
        with pytest.raises(ContractViolation):
            self._plan(test_fold=2)
