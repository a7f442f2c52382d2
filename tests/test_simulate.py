"""Simulator contracts: side splits, folds, exposure, sampling, file formats."""

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matchltr import (
    AssumptionViolationError,
    ContractViolation,
    DataFormatError,
    ExposureModel,
    FeedbackDataset,
    FoldInfeasibleError,
    FoldPlan,
    InvalidPopulationError,
    PreferenceMatrix,
    SideAssignment,
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
from matchltr import cli, simulate, util
from matchltr.cli import main as cli_main
from matchltr.simulate import _fold_index
from matchltr.util import Worker, atomic_open, format_float, format_float_rows, usable_cores

_TABLES = ("observed", "r_fwd", "r_bwd", "o_fwd", "o_bwd",
           "y_fwd", "y_bwd", "theta_fwd", "theta_bwd")


class TestAssignSides:
    def test_even_split(self):
        a = assign_sides(4, seed=1)
        assert a.n_proactive == 2 and a.n_reactive == 2

    def test_large_odd_split(self):
        a = assign_sides(925, seed=1)
        assert {a.n_proactive, a.n_reactive} == {462, 463}

    def test_degenerate_population(self):
        with pytest.raises(InvalidPopulationError):
            assign_sides(1, seed=0)

    def test_deterministic(self):
        assert assign_sides(100, seed=7) == assign_sides(100, seed=7)

    def test_seeds_differ(self):
        assert assign_sides(100, seed=7) != assign_sides(100, seed=8)

    @pytest.mark.parametrize("n_users", [6.5, True])
    def test_user_count_must_be_an_integer(self, n_users):
        with pytest.raises(TypeError, match="integer") as err:
            assign_sides(n_users, seed=0)
        assert err.traceback[-1].name == "_index"  # rejected before numpy sees it


class TestMakeFolds:
    def test_exact_division(self):
        a = SideAssignment.trivial(10, 10)
        plan = make_folds(a, 5, seed=0)
        assert all(len(f) == 2 for f in plan.proactive_folds)

    def test_remainder_spread(self):
        a = SideAssignment.trivial(11, 10)
        plan = make_folds(a, 5, seed=0)
        assert sorted(len(f) for f in plan.proactive_folds) == [2, 2, 2, 2, 3]

    def test_too_few_users(self):
        with pytest.raises(FoldInfeasibleError):
            make_folds(SideAssignment.trivial(3, 10), 5, seed=0)

    def test_deterministic(self):
        a = SideAssignment.trivial(17, 13)
        assert make_folds(a, 4, seed=3) == make_folds(a, 4, seed=3)

    def test_partition_property(self):
        a = SideAssignment.trivial(23, 19)
        plan = make_folds(a, 5, seed=9)
        flat = sorted(i for f in plan.proactive_folds for i in f)
        assert flat == list(range(23))
        flat = sorted(i for f in plan.reactive_folds for i in f)
        assert flat == list(range(19))

    @pytest.mark.parametrize("k", [6.5, True])
    def test_fold_count_must_be_an_integer(self, k):
        with pytest.raises(TypeError, match="integer") as err:
            make_folds(SideAssignment.trivial(10, 10), k, seed=0)
        assert err.traceback[-1].name == "_index"  # rejected before numpy sees it


class TestExposure:
    def test_hand_derived_square_root(self):
        # column popularity sums {1, 2}: theta = (1/2)**0.5 and 1
        m = PreferenceMatrix(forward=np.array([[0.5, 1.0], [0.5, 1.0]]),
                             backward=np.full((2, 2), 0.5))
        exp = exposure_from_popularity(m, eta=0.5)
        np.testing.assert_allclose(
            exp.theta_reactive_exposure, [np.sqrt(0.5), 1.0], rtol=0, atol=1e-15
        )
        assert abs(exp.theta_reactive_exposure[0] - 0.70711) < 5e-6

    def test_eta_zero_gives_unit_exposure(self):
        m = PreferenceMatrix(forward=np.random.default_rng(0).random((4, 5)) * 0.9 + 0.05,
                             backward=np.random.default_rng(1).random((4, 5)) * 0.9 + 0.05)
        exp = exposure_from_popularity(m, eta=0.0)
        assert (exp.theta_reactive_exposure == 1.0).all()
        assert (exp.theta_proactive_exposure == 1.0).all()

    def test_equal_popularity_gives_unit_exposure(self):
        m = PreferenceMatrix(forward=np.full((3, 4), 0.3), backward=np.full((3, 4), 0.6))
        exp = exposure_from_popularity(m, eta=2.0)
        assert (exp.theta_reactive_exposure == 1.0).all()

    def test_zero_popularity_rejected_and_named(self):
        forward = np.full((3, 4), 0.3)
        forward[:, 2] = 0.0
        m = PreferenceMatrix(forward=forward, backward=np.full((3, 4), 0.5))
        with pytest.raises(AssumptionViolationError, match="reactive user 2"):
            exposure_from_popularity(m, eta=1.0)

    def test_monotone_in_popularity(self):
        rng = np.random.default_rng(5)
        forward = rng.random((6, 8)) * 0.9 + 0.05
        m = PreferenceMatrix(forward=forward, backward=rng.random((6, 8)) * 0.9 + 0.05)
        exp = exposure_from_popularity(m, eta=0.7)
        pop = forward.sum(axis=0)
        order = np.argsort(pop)
        assert (np.diff(exp.theta_reactive_exposure[order]) >= 0).all()

    def test_antitone_in_eta_below_max(self):
        m = PreferenceMatrix(forward=np.array([[0.2, 0.8], [0.2, 0.8]]),
                             backward=np.full((2, 2), 0.5))
        thetas = [
            exposure_from_popularity(m, eta).theta_reactive_exposure[0]
            for eta in (0.0, 0.5, 1.0, 2.0)
        ]
        assert (np.diff(thetas) < 0).all()

    def test_bits_do_not_depend_on_the_memory_layout(self, tmp_path):
        """synth_preferences returns backward as a transposed view and load_preferences
        slices one stacked table; both, and any copy of one matrix, give the same bits."""
        synth = synth_preferences(60, 60, 4, 0.05, 0)
        save_preferences(synth, tmp_path / "preferences.csv")
        loaded = [load_preferences(tmp_path / "preferences.csv")]
        (tmp_path / "preferences.csv.parsed").unlink()  # then parse the CSV itself
        loaded.append(load_preferences(tmp_path / "preferences.csv"))
        rng = np.random.default_rng(3)
        wide = rng.random((9, 14)) * 0.9 + 0.05
        copies = [(f(wide[:, ::2]), f(wide[:, 1::2]))
                  for f in (np.ascontiguousarray, np.asfortranarray, lambda a: a)]
        for eta in (1.0, 400.0):
            for group in ([synth, *loaded],
                          [PreferenceMatrix(forward=f, backward=b) for f, b in copies]):
                bits = [(e.theta_reactive_exposure.tobytes(), e.theta_proactive_exposure.tobytes())
                        for e in (exposure_from_popularity(m, eta) for m in group)]
                assert bits[1:] == bits[:-1]

    def test_max_entry_is_exactly_one(self):
        rng = np.random.default_rng(11)
        m = PreferenceMatrix(forward=rng.random((5, 7)) * 0.9 + 0.05,
                             backward=rng.random((5, 7)) * 0.9 + 0.05)
        exp = exposure_from_popularity(m, eta=1.3)
        assert exp.theta_reactive_exposure.max() == 1.0
        assert exp.theta_proactive_exposure.max() == 1.0

    @pytest.mark.parametrize("eta", [True, "0.5", None])
    def test_eta_must_be_a_number(self, eta):
        m = synth_preferences(4, 4, 2, 0.05, seed=1)
        with pytest.raises(ContractViolation, match="eta must be a number"):
            exposure_from_popularity(m, eta)

    def test_model_requires_unit_maximum(self):
        with pytest.raises(AssumptionViolationError):
            ExposureModel(eta=1.0,
                          theta_reactive_exposure=[0.5, 0.9],
                          theta_proactive_exposure=[1.0, 0.4])


def _uniform_world(n_pro=4, n_rea=5, p_fwd=1.0, p_bwd=1.0, eta=0.0, k=2):
    m = PreferenceMatrix(forward=np.full((n_pro, n_rea), p_fwd),
                         backward=np.full((n_pro, n_rea), p_bwd))
    exp = exposure_from_popularity(m, eta)
    plan = make_folds(SideAssignment.trivial(n_pro, n_rea), k, seed=0)
    return m, exp, plan


class TestSampleDataset:
    def test_sure_feedback(self):
        m, exp, plan = _uniform_world(p_fwd=1.0, p_bwd=1.0)
        ds = sample_dataset(m, exp, plan, seed=0)
        assert (ds.y_fwd[ds.observed] == 1).all() and (ds.y_bwd[ds.observed] == 1).all()

    def test_zero_relevance_kills_feedback(self):
        # pairs with zero forward preference can never produce feedback
        forward = np.array([[0.0, 0.8], [0.5, 0.0], [0.5, 0.8]])
        m = PreferenceMatrix(forward=forward, backward=np.full((3, 2), 1.0))
        exp = exposure_from_popularity(m, eta=1.0)
        plan = make_folds(SideAssignment.trivial(3, 2), 2, seed=0)
        ds = sample_dataset(m, exp, plan, seed=0)
        dead = (forward == 0.0) & ds.observed
        assert (ds.y_fwd[dead] == 0).all() and (ds.y_bwd[dead] == 0).all()
        assert (ds.r_fwd[dead] == 0).all()

    def test_composition_identities_exhaustive(self):
        # heterogeneous popularity so every exposure combination occurs
        m = PreferenceMatrix(forward=np.tile(np.linspace(0.1, 0.9, 30), (30, 1)),
                             backward=np.tile(np.linspace(0.2, 0.8, 30)[:, None], (1, 30)))
        exp = exposure_from_popularity(m, eta=1.0)
        plan = make_folds(SideAssignment.trivial(30, 30), 5, seed=1)
        ds = sample_dataset(m, exp, plan, seed=42)
        assert np.array_equal(ds.y_fwd, ds.o_fwd * ds.r_fwd)
        assert np.array_equal(ds.y_bwd, ds.y_fwd * ds.o_bwd * ds.r_bwd)
        assert (ds.y_bwd <= ds.y_fwd).all()

    def test_backward_feedback_rate_quarter(self):
        # all-ones preferences, both exposures 1/2: P(y_bwd=1) = 1/4 exactly;
        # Monte-Carlo over >1e6 pairs must land within 0.002
        n = 1024
        m = PreferenceMatrix(forward=np.ones((n, n)), backward=np.ones((n, n)))
        exp = ExposureModel(
            eta=1.0,
            theta_reactive_exposure=np.where(np.arange(n) == 0, 1.0, 0.5),
            theta_proactive_exposure=np.where(np.arange(n) == 0, 1.0, 0.5),
        )
        plan = make_folds(SideAssignment.trivial(n, n), 8, seed=0)
        ds = sample_dataset(m, exp, plan, seed=3)
        inner = (ds.theta_fwd == 0.5) & (ds.theta_bwd == 0.5)
        assert inner.sum() > 10**6
        rate = ds.y_bwd[inner].mean()
        assert abs(rate - 0.25) < 0.002

    def test_marginals_within_three_standard_errors(self):
        # block-structured popularity: exposure 0.5 on the left half, 1 on the right
        n_pro, n_rea = 420, 250
        forward = np.where(np.arange(n_rea)[None, :] < n_rea // 2, 0.4, 0.8)
        forward = np.broadcast_to(forward, (n_pro, n_rea)).copy()
        backward = np.where(np.arange(n_pro)[:, None] < n_pro // 2, 0.3, 0.6)
        backward = np.broadcast_to(backward, (n_pro, n_rea)).copy()
        m = PreferenceMatrix(forward=forward, backward=backward)
        exp = exposure_from_popularity(m, eta=1.0)
        plan = make_folds(SideAssignment.trivial(n_pro, n_rea), 5, seed=0)
        ds = sample_dataset(m, exp, plan, seed=123)
        assert len(ds) >= 10**5

        def check(actual_bits, p, mask):
            n = mask.sum()
            se = max(np.sqrt(p * (1 - p) / n), 1e-12)
            assert abs(actual_bits[mask].mean() - p) <= 3 * se + 1e-12

        left = np.arange(n_rea)[None, :] < n_rea // 2
        left_v, right_v = ds.observed & left, ds.observed & ~left
        check(ds.r_fwd, 0.4, left_v)
        check(ds.r_fwd, 0.8, right_v)
        check(ds.o_fwd, 0.5, left_v)   # (0.4 n)/(0.8 n) at eta=1
        assert (ds.o_fwd[right_v] == 1).all()
        top = np.arange(n_pro)[:, None] < n_pro // 2
        left_u, right_u = ds.observed & top, ds.observed & ~top
        check(ds.r_bwd, 0.3, left_u)
        check(ds.r_bwd, 0.6, right_u)
        check(ds.o_bwd, 0.5, left_u)
        assert (ds.o_bwd[right_u] == 1).all()

    def test_thetas_match_exposure_model(self):
        m, exp, plan = _uniform_world(p_fwd=0.5, p_bwd=0.5)
        ds = sample_dataset(m, exp, plan, seed=5)
        # propensity 1 off the observed pairs
        theta_fwd = np.broadcast_to(exp.theta_reactive_exposure[None, :], ds.observed.shape)
        theta_bwd = np.broadcast_to(exp.theta_proactive_exposure[:, None], ds.observed.shape)
        assert np.array_equal(ds.theta_fwd, np.where(ds.observed, theta_fwd, 1.0))
        assert np.array_equal(ds.theta_bwd, np.where(ds.observed, theta_bwd, 1.0))

    def test_deterministic_bit_exact(self):
        rng = np.random.default_rng(0)
        m = PreferenceMatrix(forward=rng.random((12, 9)) * 0.9 + 0.05,
                             backward=rng.random((12, 9)) * 0.9 + 0.05)
        exp = exposure_from_popularity(m, eta=0.8)
        plan = make_folds(SideAssignment.trivial(12, 9), 3, seed=4)
        a = sample_dataset(m, exp, plan, seed=77)
        b = sample_dataset(m, exp, plan, seed=77)
        for name in _TABLES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_no_test_pairs(self):
        m, exp, plan = _uniform_world(n_pro=10, n_rea=10, p_fwd=0.5, p_bwd=0.5, k=5)
        ds = sample_dataset(m, exp, plan, seed=0)
        assert len(ds) == 100 - 4
        assert not (plan.test_mask() & ds.observed).any()

    def test_dataset_rejects_test_pairs(self):
        m, exp, plan = _uniform_world(n_pro=4, n_rea=4, p_fwd=1.0, p_bwd=1.0, k=2)
        with pytest.raises(ContractViolation, match="test block"):
            FeedbackDataset.from_columns(
                plan, u=np.arange(4).repeat(4), v=np.tile(np.arange(4), 4),
                r_fwd=np.ones(16), r_bwd=np.ones(16),
                o_fwd=np.ones(16), o_bwd=np.ones(16),
                y_fwd=np.ones(16), y_bwd=np.ones(16),
                theta_fwd=np.ones(16), theta_bwd=np.ones(16),
            )

    def test_tables_checked(self):
        m, exp, plan = _uniform_world(n_pro=8, n_rea=8, p_fwd=0.6, p_bwd=0.6, k=4)
        ds = sample_dataset(m, exp, plan, seed=9)
        off = ~ds.observed
        for bad, message in (
            (dict(r_fwd=ds.r_fwd | off), "unobserved pairs"),
            (dict(theta_bwd=np.where(off, 0.5, ds.theta_bwd)), "unobserved pairs"),
            (dict(observed=ds.observed.astype(np.int8)), "boolean"),
            (dict(y_bwd=ds.y_bwd[:, 1:]), "shape"),
        ):
            with pytest.raises(ContractViolation, match=message):
                replace(ds, **bad)


class TestSynthPreferences:
    def test_range_clamped(self):
        m = synth_preferences(30, 25, rank=3, noise=0.3, seed=2)
        assert m.forward.min() >= 0.0 and m.forward.max() <= 1.0
        assert m.backward.min() >= 0.0 and m.backward.max() <= 1.0

    def test_deterministic(self):
        a = synth_preferences(10, 11, rank=2, noise=0.05, seed=42)
        b = synth_preferences(10, 11, rank=2, noise=0.05, seed=42)
        assert np.array_equal(a.forward, b.forward)
        assert np.array_equal(a.backward, b.backward)

    def test_rank_one_identical_latents_constant(self):
        actor = np.ones((6, 1)) * 0.7
        target = np.ones((5, 1)) * (-0.2)
        probs = latent_preferences(actor, target, noise=0.0)
        assert np.all(probs == probs[0, 0])

    def test_noise_requires_rng(self):
        with pytest.raises(ContractViolation):
            latent_preferences(np.ones((2, 1)), np.ones((2, 1)), noise=0.1)

    @pytest.mark.parametrize("at", range(3))
    @pytest.mark.parametrize("bad", [6.5, True])
    def test_sizes_and_rank_must_be_integers(self, at, bad):
        sizes = [10, 11, 2]  # n_proactive, n_reactive, rank
        sizes[at] = bad
        with pytest.raises(TypeError, match="integer") as err:
            synth_preferences(*sizes, noise=0.05, seed=0)
        assert err.traceback[-1].name == "_index"  # rejected before numpy sees it


class TestPreferenceCsv:
    def test_round_trip_identical(self, tmp_path):
        m = synth_preferences(7, 5, rank=2, noise=0.1, seed=0)
        path = tmp_path / "prefs.csv"
        save_preferences(m, path)
        again = load_preferences(path)
        assert np.array_equal(m.forward, again.forward)
        assert np.array_equal(m.backward, again.backward)

    def test_two_by_two_zeros(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0.0,0.0\n0.0,0.0\n")
        m = load_preferences(path)
        assert m.n_proactive == 2 and m.n_reactive == 1
        assert not m.forward.any() and not m.backward.any()

    def test_out_of_range_entry_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.0\n1.5,0.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_preferences(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.0,0.0\n0.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_preferences(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0.0,abc\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_preferences(path)

    @pytest.mark.parametrize("body, message", [
        ('0.1,"0.2\n0.3"\n0.4,0.5\n', "line 1: could not convert string"),
        ('0.1,0.2\n0.3,"0.4\n",0.5\n', "line 2: expected 2 columns, got 3"),
    ], ids=["bad-value", "extra-cell"])
    def test_quoted_line_end_names_the_record_line(self, tmp_path, body, message):
        """A quoted cell may hold a line end, as numpy reads it: the error names
        the line where the record starts."""
        path = tmp_path / "quoted.csv"
        path.write_bytes(body.encode())
        with pytest.raises(DataFormatError, match=f"^preference CSV: {message}"):
            load_preferences(path)

    def test_odd_column_count_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("0.0,0.0,0.0\n")
        with pytest.raises(DataFormatError, match="even"):
            load_preferences(path)

    def test_square_loader(self, tmp_path):
        path = tmp_path / "square.csv"
        path.write_text("0.0,0.5\n0.25,0.0\n")
        m = load_square_preferences(path)
        assert m.dtype == np.float64 and m.tolist() == [[0.0, 0.5], [0.25, 0.0]]
        path.write_text("0.0,0.5\n")
        with pytest.raises(DataFormatError, match="square"):
            load_square_preferences(path)


class TestDatasetCsv:
    def test_memory_stays_within_a_chunk(self, tmp_path):
        """500x500 pairs are written in chunks of 32 rows.  The traced peak was 3.7 MB;
        one f-string per row took 11.2 MB."""
        m = synth_preferences(500, 500, 4, 0.05, seed=3)
        plan = make_folds(SideAssignment.trivial(500, 500), 5, seed=1)
        ds = sample_dataset(m, exposure_from_popularity(m, 1.0), plan, seed=2)
        tracemalloc.start()
        try:
            save_dataset(ds, tmp_path / "dataset.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def _dataset(self):
        rng = np.random.default_rng(8)
        m = PreferenceMatrix(forward=rng.random((9, 7)) * 0.9 + 0.05,
                             backward=rng.random((9, 7)) * 0.9 + 0.05)
        exp = exposure_from_popularity(m, eta=0.9)
        plan = make_folds(SideAssignment.trivial(9, 7), 3, seed=1, test_fold=1)
        return sample_dataset(m, exp, plan, seed=21), plan

    def test_round_trip(self, tmp_path):
        ds, plan = self._dataset()
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        again = load_dataset(path, plan)
        for name in _TABLES:
            assert np.array_equal(getattr(ds, name), getattr(again, name))
        # byte-stable re-save
        save_dataset(again, tmp_path / "again.csv")
        assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()

    def test_header_enforced(self, tmp_path):
        ds, plan = self._dataset()
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n0,0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(path, plan)

    def test_fold_labels_cross_checked(self, tmp_path):
        ds, plan = self._dataset()
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = str((int(cells[2]) + 1) % plan.k)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="fold labels"):
            load_dataset(path, plan)

    def _edited(self, tmp_path, edit, newline="\r\n"):
        """Save the dataset, apply ``edit`` to its list of lines, write them back."""
        ds, plan = self._dataset()
        path = tmp_path / "dataset.csv"
        save_dataset(ds, path)
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        edit(lines)
        path.write_bytes("".join(line + newline for line in lines).encode())
        return ds, plan, path

    def test_extra_column_names_line(self, tmp_path):
        def edit(lines):
            lines[2] += ",0"
        _, plan, path = self._edited(tmp_path, edit)
        with pytest.raises(DataFormatError, match=r"line 3: expected 12 columns, got 13"):
            load_dataset(path, plan)

    def test_missing_column_names_line(self, tmp_path):
        def edit(lines):
            lines[3] = lines[3].rsplit(",", 1)[0]
        _, plan, path = self._edited(tmp_path, edit)
        with pytest.raises(DataFormatError, match=r"line 4: expected 12 columns, got 11"):
            load_dataset(path, plan)

    def test_float_in_int_column_rejected(self, tmp_path):
        def edit(lines):
            cells = lines[1].split(",")
            cells[4] = cells[4] + ".0"
            lines[1] = ",".join(cells)
        _, plan, path = self._edited(tmp_path, edit)
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(path, plan)

    def test_non_numeric_theta_rejected(self, tmp_path):
        def edit(lines):
            cells = lines[5].split(",")
            cells[10] = "abc"
            lines[5] = ",".join(cells)
        _, plan, path = self._edited(tmp_path, edit)
        with pytest.raises(DataFormatError, match="line 6"):
            load_dataset(path, plan)

    def test_blank_lines_and_lf_accepted(self, tmp_path):
        def edit(lines):
            lines[3:3] = ["", ""]
            lines.append("")
        ds, plan, path = self._edited(tmp_path, edit, newline="\n")
        again = load_dataset(path, plan)
        for name in _TABLES:
            assert np.array_equal(getattr(ds, name), getattr(again, name))

    def test_blank_lines_counted_in_error_line(self, tmp_path):
        def edit(lines):
            lines[3:3] = ["", ""]
            cells = lines[7].split(",")
            cells[11] = "x"
            lines[7] = ",".join(cells)
        _, plan, path = self._edited(tmp_path, edit, newline="\n")
        with pytest.raises(DataFormatError, match="line 8"):
            load_dataset(path, plan)

    def test_header_only_is_empty_dataset(self, tmp_path):
        _, plan = self._dataset()
        path = tmp_path / "dataset.csv"
        path.write_bytes(b"u,v,fold_u,fold_v,r_fwd,r_bwd,o_fwd,o_bwd,y_fwd,y_bwd,"
                         b"theta_fwd,theta_bwd\r\n")
        assert len(load_dataset(path, plan)) == 0

    def test_nan_theta_rejected_naming_column(self, tmp_path):
        def edit(lines):
            cells = lines[2].split(",")
            cells[10] = "nan"
            lines[2] = ",".join(cells)
        _, plan, path = self._edited(tmp_path, edit)
        with pytest.raises(DataFormatError, match="theta_fwd"):
            load_dataset(path, plan)

    def test_wide_integer_in_bit_column_rejected(self, tmp_path):
        # 256 does not fit the int8 bit column and must not wrap to the bit 0
        def edit(lines):
            cells = lines[1].split(",")
            cells[4] = "256"
            lines[1] = ",".join(cells)
        _, plan, path = self._edited(tmp_path, edit)
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(path, plan)

    def test_quoted_cells_accepted(self, tmp_path):
        def edit(lines):
            lines[0] = ",".join(f'"{c}"' for c in lines[0].split(","))
            cells = lines[1].split(",")
            cells[0], cells[10] = f'"{cells[0]}"', f'"{cells[10]}"'
            lines[1] = ",".join(cells)
        ds, plan, path = self._edited(tmp_path, edit)
        again = load_dataset(path, plan)
        assert np.array_equal(ds.observed, again.observed)
        assert np.array_equal(ds.theta_fwd, again.theta_fwd)

    def test_repeated_row_rejected(self, tmp_path):
        def edit(lines):
            lines.insert(3, lines[1])
        _, plan, path = self._edited(tmp_path, edit)
        with pytest.raises(DataFormatError, match="more than once"):
            load_dataset(path, plan)

    def test_rows_in_any_order(self, tmp_path):
        def edit(lines):
            lines[1:] = np.random.default_rng(3).permutation(lines[1:]).tolist()
        ds, plan, path = self._edited(tmp_path, edit)
        again = load_dataset(path, plan)
        for name in _TABLES:
            assert np.array_equal(getattr(ds, name), getattr(again, name))
        # re-saved in row-major order, as first written
        save_dataset(again, tmp_path / "again.csv")
        save_dataset(ds, tmp_path / "first.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


class TestJsonFormats:
    def test_fold_plan_round_trip(self, tmp_path):
        plan = make_folds(SideAssignment.trivial(11, 9), 4, seed=6, test_fold=2)
        save_fold_plan(plan, tmp_path / "folds.json")
        assert load_fold_plan(tmp_path / "folds.json") == plan

    def test_exposure_round_trip(self, tmp_path):
        m = synth_preferences(6, 8, rank=2, noise=0.0, seed=1)
        exp = exposure_from_popularity(m, eta=0.75)
        save_exposure(exp, tmp_path / "exposure.json")
        again = load_exposure(tmp_path / "exposure.json")
        assert again.eta == exp.eta
        assert np.array_equal(again.theta_reactive_exposure, exp.theta_reactive_exposure)
        assert np.array_equal(again.theta_proactive_exposure, exp.theta_proactive_exposure)

    def test_nan_exposure_is_a_range_error(self, tmp_path):
        out = tmp_path / "data"
        assert cli_main(["gen-data", "--synth", "12,12,2,0.05", "--eta", "1.0",
                         "--seed", "4", "--out", str(out)]) == 0
        path = out / "exposure.json"
        payload = json.loads(path.read_text())
        payload["theta_reactive_exposure"][3] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=r"theta_reactive_exposure must lie in \(0, 1\]"):
            load_exposure(path)

    # one eta rule (core._real): a JSON number but not true, finite, non-negative
    @pytest.mark.parametrize("eta", [True, "0.5", None, [0.5], -0.5, float("inf"), float("nan")],
                             ids=["true", "string", "null", "list", "negative", "inf", "nan"])
    def test_exposure_eta_rejected(self, tmp_path, eta):
        path = tmp_path / "exposure.json"
        save_exposure(ExposureModel(eta=0.5, theta_reactive_exposure=[1.0, 0.25],
                                    theta_proactive_exposure=[1.0]), path)
        payload = json.loads(path.read_text())
        payload["eta"] = eta
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="exposure JSON: eta must be"):
            load_exposure(path)

    def test_exposure_eta_is_a_float(self, tmp_path):
        """An integer eta loads as the float it equals, and saves as one."""
        path = tmp_path / "exposure.json"
        path.write_text('{"eta": 1, "theta_reactive_exposure": [1.0], '
                        '"theta_proactive_exposure": [1.0]}')
        exposure = load_exposure(path)
        assert type(exposure.eta) is float and exposure.eta == 1.0
        save_exposure(exposure, tmp_path / "again.json")
        assert b'"eta": 1.0,' in (tmp_path / "again.json").read_bytes()

    def test_side_assignment_round_trip(self, tmp_path):
        a = assign_sides(13, seed=3)
        save_side_assignment(a, tmp_path / "sides.json")
        assert load_side_assignment(tmp_path / "sides.json") == a

    # JSON true is no integer: read as 1, "test_fold": true would load as fold 1
    @pytest.mark.parametrize("field, value", [
        ("k", 4.0), ("test_fold", 2.0), ("proactive_folds", 0.7), ("reactive_folds", 0.7),
        ("k", True), ("test_fold", True), ("reactive_folds", True),
    ])
    def test_fold_plan_non_integer_rejected(self, tmp_path, field, value):
        path = tmp_path / "folds.json"
        save_fold_plan(make_folds(SideAssignment.trivial(11, 9), 4, seed=6, test_fold=2), path)
        payload = json.loads(path.read_text())
        if field.endswith("_folds"):
            payload[field][0][0] = value
        else:
            payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="fold-plan JSON: .*integer"):
            load_fold_plan(path)

    @pytest.mark.parametrize("field", ["proactive_ids", "reactive_ids"])
    def test_side_assignment_non_integer_id_rejected(self, tmp_path, field):
        path = tmp_path / "sides.json"
        save_side_assignment(assign_sides(13, seed=3), path)
        for value in (0.7, True):
            payload = json.loads(path.read_text())
            payload[field][0] = value
            (tmp_path / "bad.json").write_text(json.dumps(payload))
            with pytest.raises(DataFormatError, match="side-assignment JSON: .*integer"):
                load_side_assignment(tmp_path / "bad.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_fold_plan(path)

    # one object keyed by the record's fields, sorted, indented by two spaces
    @pytest.mark.parametrize("save, load, record, golden", [
        (save_fold_plan, load_fold_plan,
         FoldPlan(k=2, proactive_folds=((1,), (0, 2)), reactive_folds=((0,), (1,)), test_fold=1),
         b'{\n  "k": 2,\n  "proactive_folds": [\n    [\n      1\n    ],\n    [\n'
         b'      0,\n      2\n    ]\n  ],\n  "reactive_folds": [\n    [\n      0\n'
         b'    ],\n    [\n      1\n    ]\n  ],\n  "test_fold": 1\n}\n'),
        (save_exposure, load_exposure,
         ExposureModel(eta=0.5, theta_reactive_exposure=[1.0, 0.25],
                       theta_proactive_exposure=[0.1, 1.0, 0.7]),
         b'{\n  "eta": 0.5,\n  "theta_proactive_exposure": [\n    0.1,\n    1.0,\n'
         b'    0.7\n  ],\n  "theta_reactive_exposure": [\n    1.0,\n    0.25\n  ]\n}\n'),
        (save_side_assignment, load_side_assignment,
         SideAssignment(proactive_ids=(2, 0), reactive_ids=(1,)),
         b'{\n  "proactive_ids": [\n    2,\n    0\n  ],\n  "reactive_ids": [\n    1\n'
         b'  ]\n}\n'),
    ], ids=["folds", "exposure", "sides"])
    def test_golden_bytes(self, tmp_path, save, load, record, golden):
        path = tmp_path / "record.json"
        save(record, path)
        assert path.read_bytes() == golden
        save(load(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == golden

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "sides.json"
        path.write_text('{"proactive_ids": [1], "reactive_ids": [0], "note": "x"}')
        assert load_side_assignment(path) == SideAssignment((1,), (0,))

    @pytest.mark.parametrize("value", [["high", 1.0], [[1.0], [0.5, 1.0]]],
                             ids=["non-numeric", "ragged"])
    def test_exposure_list_must_be_numeric_and_flat(self, tmp_path, value):
        path = tmp_path / "exposure.json"
        save_exposure(ExposureModel(eta=0.5, theta_reactive_exposure=[1.0, 0.25],
                                    theta_proactive_exposure=[1.0]), path)
        payload = json.loads(path.read_text())
        payload["theta_reactive_exposure"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="exposure JSON: "):
            load_exposure(path)


# ---------------------------------------------------------------------------
# reference writers and readers: the per-row csv-module code the vectorized
# file formats must match byte for byte and value for value
# ---------------------------------------------------------------------------

_DATASET_HEADER = ("u", "v", "fold_u", "fold_v", "r_fwd", "r_bwd", "o_fwd", "o_bwd",
                   "y_fwd", "y_bwd", "theta_fwd", "theta_bwd")


def _reference_save_rows(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


def _reference_save_preferences(m, path):
    stacked = np.hstack([m.forward, m.backward])
    _reference_save_rows(([format_float(x) for x in row] for row in stacked), path)


def _reference_save_square(square, path):
    _reference_save_rows(([format_float(x) for x in row] for row in square), path)


def _reference_save_dataset(ds, path):
    """One row per observed pair, in row-major order."""
    fold_u = _fold_index(ds.fold_plan.proactive_folds)
    fold_v = _fold_index(ds.fold_plan.reactive_folds)
    rows = [_DATASET_HEADER]
    for u in range(ds.n_proactive):
        for v in range(ds.n_reactive):
            if not ds.observed[u, v]:
                continue
            rows.append([
                u, v, int(fold_u[u]), int(fold_v[v]),
                int(ds.r_fwd[u, v]), int(ds.r_bwd[u, v]), int(ds.o_fwd[u, v]),
                int(ds.o_bwd[u, v]), int(ds.y_fwd[u, v]), int(ds.y_bwd[u, v]),
                format_float(ds.theta_fwd[u, v]), format_float(ds.theta_bwd[u, v]),
            ])
    _reference_save_rows(rows, path)


def _reference_parse_float_csv(path, what="preference CSV"):
    rows, width = [], None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                values = [float(x) for x in row]
            except ValueError as exc:
                raise DataFormatError(f"{what}: line {lineno}: {exc}") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise DataFormatError(
                    f"{what}: line {lineno}: expected {width} columns, got {len(values)}"
                )
            if any(not np.isfinite(x) or x < 0.0 or x > 1.0 for x in values):
                raise DataFormatError(
                    f"{what}: line {lineno}: entries must be finite and lie in [0, 1]"
                )
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{what}: file is empty")
    return np.asarray(rows, dtype=np.float64)


def _reference_load_dataset_columns(path):
    columns = {name: [] for name in _DATASET_HEADER}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(_DATASET_HEADER):
            raise DataFormatError("dataset CSV: line 1: expected header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_DATASET_HEADER):
                raise DataFormatError(
                    f"dataset CSV: line {lineno}: expected {len(_DATASET_HEADER)} "
                    f"columns, got {len(row)}"
                )
            try:
                for name, cell in zip(_DATASET_HEADER, row):
                    columns[name].append(float(cell) if name.startswith("theta") else int(cell))
            except ValueError as exc:
                raise DataFormatError(f"dataset CSV: line {lineno}: {exc}") from None
    return {name: np.asarray(values, dtype=np.float64 if name.startswith("theta") else np.intp)
            for name, values in columns.items()}


def _bits(a):
    """The exact float64 (or int) bit pattern, so -0.0 and 0.0 differ."""
    a = np.asarray(a)
    return a.dtype.kind, a.shape, np.ascontiguousarray(a).tobytes()


def _line_of(exc_info):
    return int(re.search(r"line (\d+)", str(exc_info.value))[1])


# 1e-4 and its lower neighbour bound the digit fast path; 0.09999999999999999, the float
# below 0.1, is one rounding step from a carry to 0.1
_EDGE_UNIT = [0.0, -0.0, 1.0, 5e-324, 1 - 2**-53, 1e-4, float(np.nextafter(1e-4, 0)),
              0.09999999999999999]
unit_values = st.one_of(st.sampled_from(_EDGE_UNIT), st.floats(0.0, 1.0))
theta_values = st.one_of(st.sampled_from([1.0, 5e-324, 1 - 2**-53, 1e-300]),
                         st.floats(1e-300, 1.0))


@st.composite
def preference_matrices(draw):
    n_pro, n_rea = draw(st.integers(1, 30)), draw(st.integers(1, 15))
    block = arrays(np.float64, (n_pro, n_rea), elements=unit_values)
    return PreferenceMatrix(forward=draw(block), backward=draw(block))


@st.composite
def feedback_datasets(draw):
    """Up to 12 folds, so that fold labels reach two digits, and one side of up to 120
    users against one of up to 30, so that ids run past the other side's count."""
    k = draw(st.integers(2, 12))
    n_pro, n_rea = draw(st.permutations([draw(st.integers(k, 120)), draw(st.integers(k, 30))]))
    plan = make_folds(SideAssignment.trivial(n_pro, n_rea), k,
                      seed=draw(st.integers(0, 99)), test_fold=draw(st.integers(0, k - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = ~plan.test_mask() & (rng.random((n_pro, n_rea)) < draw(st.floats(0.02, 1.0)))
    u, v = np.nonzero(keep)
    r_fwd, r_bwd, o_fwd, o_bwd = (rng.random((4, u.size)) < 0.5).astype(np.int8)
    y_fwd = o_fwd * r_fwd
    thetas = arrays(np.float64, u.size, elements=theta_values)
    return FeedbackDataset.from_columns(
        plan, u=u, v=v, r_fwd=r_fwd, r_bwd=r_bwd, o_fwd=o_fwd, o_bwd=o_bwd,
        y_fwd=y_fwd, y_bwd=y_fwd * o_bwd * r_bwd,
        theta_fwd=draw(thetas), theta_bwd=draw(thetas),
    )


class TestCsvAgainstReference:
    """The vectorized CSV paths against the per-row csv-module reference code."""

    @settings(max_examples=150, deadline=None)
    @given(preference_matrices())
    def test_preference_bytes_and_round_trip(self, m):
        with tempfile.TemporaryDirectory() as tmp:
            new, ref, again = (Path(tmp) / name for name in ("new.csv", "ref.csv", "again.csv"))
            save_preferences(m, new)
            _reference_save_preferences(m, ref)
            assert new.read_bytes() == ref.read_bytes()
            loaded = load_preferences(new)
            assert _bits(loaded.forward) == _bits(m.forward)
            assert _bits(loaded.backward) == _bits(m.backward)
            assert _bits(np.hstack([loaded.forward, loaded.backward])) == _bits(
                _reference_parse_float_csv(new))
            save_preferences(loaded, again)
            assert again.read_bytes() == new.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=unit_values)))
    def test_square_preference_round_trip(self, square):
        with tempfile.TemporaryDirectory() as tmp:
            ref, again = Path(tmp) / "ref.csv", Path(tmp) / "again.csv"
            _reference_save_square(square, ref)
            loaded = load_square_preferences(ref)
            assert _bits(loaded) == _bits(square)
            assert _bits(loaded) == _bits(_reference_parse_float_csv(ref))
            _reference_save_square(loaded, again)
            assert again.read_bytes() == ref.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(feedback_datasets())
    def test_dataset_bytes_and_round_trip(self, ds):
        plan = ds.fold_plan
        with tempfile.TemporaryDirectory() as tmp:
            new, ref, again = (Path(tmp) / name for name in ("new.csv", "ref.csv", "again.csv"))
            save_dataset(ds, new)
            _reference_save_dataset(ds, ref)
            assert new.read_bytes() == ref.read_bytes()
            loaded = load_dataset(new, plan)
            reference = _reference_load_dataset_columns(new)
            pairs = reference["u"], reference["v"]
            assert np.array_equal(np.nonzero(loaded.observed), pairs)  # row-major
            for name in _TABLES:
                assert _bits(getattr(loaded, name)) == _bits(getattr(ds, name))
                if name != "observed":
                    assert np.array_equal(getattr(loaded, name)[pairs], reference[name])
            save_dataset(loaded, again)
            assert again.read_bytes() == new.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(preference_matrices(), feedback_datasets(), st.integers(1, 256), st.integers(1, 256))
    def test_bytes_across_chunks(self, m, ds, values, pairs):
        """Chunks of 1-256 preference values and of 1-256 pairs: chunks of one row, ragged
        last chunks and dataset chunks with no observed pair."""
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_CHUNK_VALUES", values)
            mp.setattr(simulate, "_CHUNK_PAIRS", pairs)
            for save, reference, data in ((save_preferences, _reference_save_preferences, m),
                                          (save_dataset, _reference_save_dataset, ds)):
                new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
                save(data, new)
                reference(data, ref)
                assert new.read_bytes() == ref.read_bytes(), save.__name__

    @settings(max_examples=150, deadline=None)
    @given(feedback_datasets(), st.data())
    def test_dataset_errors_name_the_reference_line(self, ds, data):
        """One corrupted line: both readers reject the file at the same line."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dataset.csv"
            _reference_save_dataset(ds, path)
            lines = path.read_bytes().decode().split("\r\n")[:-1]
            if len(lines) < 2:
                return
            at = data.draw(st.integers(1, len(lines) - 1))
            cells = lines[at].split(",")
            col = data.draw(st.integers(0, 11))
            kind = data.draw(st.sampled_from(["text", "float-int", "extra", "missing", "empty"]))
            if kind == "text":
                cells[col] = "x1"
            elif kind == "float-int":
                cells[data.draw(st.integers(0, 9))] += ".0"
            elif kind == "extra":
                cells.append("0")
            elif kind == "missing":
                del cells[col]
            else:
                cells[col] = ""
            lines[at] = ",".join(cells)
            blanks = data.draw(st.integers(0, 3))
            lines[1:1] = [""] * blanks
            newline = data.draw(st.sampled_from(["\r\n", "\n", "\r"]))
            path.write_bytes("".join(line + newline for line in lines).encode())
            with pytest.raises(DataFormatError) as ref_err:
                _reference_load_dataset_columns(path)
            with pytest.raises(DataFormatError) as new_err:
                load_dataset(path, ds.fold_plan)
            assert _line_of(new_err) == _line_of(ref_err) == at + 1 + blanks

    @settings(max_examples=150, deadline=None)
    @given(preference_matrices(), st.data())
    def test_preference_errors_name_the_reference_line(self, m, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prefs.csv"
            _reference_save_preferences(m, path)
            lines = path.read_bytes().decode().split("\r\n")[:-1]
            at = data.draw(st.integers(0, len(lines) - 1))
            cells = lines[at].split(",")
            col = data.draw(st.integers(0, len(cells) - 1))
            kind = data.draw(st.sampled_from(["text", "range", "nan", "extra", "missing"]))
            if kind == "missing" and (len(lines) == 1 or len(cells) == 1):
                kind = "text"  # a lone row or a lone cell cannot be ragged
            if kind == "extra" and len(lines) == 1:
                kind = "range"
            if kind in ("text", "range", "nan"):
                cells[col] = {"text": "0.5x", "range": "1.5", "nan": "nan"}[kind]
            elif kind == "extra":
                cells.append("0.0")
            else:
                del cells[col]
            lines[at] = ",".join(cells)
            if kind in ("extra", "missing") and at == 0:
                lines[0], lines[1] = lines[1], lines[0]  # the first row sets the width
                at = 1
            path.write_bytes("".join(line + "\n" for line in lines).encode())
            with pytest.raises(DataFormatError) as ref_err:
                _reference_parse_float_csv(path)
            with pytest.raises(DataFormatError) as new_err:
                load_preferences(path)
            assert _line_of(new_err) == _line_of(ref_err) == at + 1

    @pytest.mark.parametrize("name, at, col", [("dataset.csv", 1, 10), ("preferences.csv", 0, 0)])
    def test_quoted_comma_names_the_reference_line(self, tmp_path, name, at, col):
        """A comma inside a quoted cell splits no cell, so the line of the bad value is named."""
        out = tmp_path / "data"
        assert cli_main(["gen-data", "--synth", "4,4,1,0.0", "--folds", "2",
                         "--out", str(out)]) == 0
        path = out / name
        lines = path.read_bytes().decode().split("\r\n")
        cells = lines[at].split(",")
        cells[col] = '"0,5"'
        lines[at] = ",".join(cells)
        path.write_bytes("\r\n".join(lines).encode())  # the sidecar's digest no longer holds
        if name == "dataset.csv":
            plan = load_fold_plan(out / "folds.json")
            readers = _reference_load_dataset_columns, lambda p: load_dataset(p, plan)
        else:
            readers = _reference_parse_float_csv, load_preferences
        errors = []
        for read in readers:
            with pytest.raises(DataFormatError) as err:
                read(path)
            errors.append(err)
        assert _line_of(errors[1]) == _line_of(errors[0]) == at + 1
        assert "could not convert string '0,5'" in str(errors[1].value)


def test_gen_data_writes_reference_bytes(tmp_path):
    """Square with the default 5 folds, and 230x170 with 11 (two-digit fold labels)."""
    for synth, folds in (("200,200,4,0.05", "5"), ("230,170,4,0.05", "11")):
        out, ref = tmp_path / synth / "data", tmp_path / synth / "ref"
        assert cli_main(["gen-data", "--synth", synth, "--eta", "1.0", "--folds", folds,
                         "--seed", "9", "--out", str(out)]) == 0
        ref.mkdir()
        plan = load_fold_plan(out / "folds.json")
        _reference_save_dataset(load_dataset(out / "dataset.csv", plan), ref / "dataset.csv")
        _reference_save_preferences(load_preferences(out / "preferences.csv"),
                                    ref / "preferences.csv")
        for name in ("dataset.csv", "preferences.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (synth, name)


class TestFormatFloatRows:
    """``format_float_rows`` writes the bytes of ``repr`` for every float64."""

    @staticmethod
    def _check(values, n_cols=7):
        values = np.asarray(values, dtype=np.float64).ravel()
        table = np.concatenate([values, np.full(-values.size % n_cols, 0.3)]).reshape(-1, n_cols)
        expected = "".join(",".join(map(repr, row.tolist())) + "\r\n" for row in table)
        text = format_float_rows(table)
        if text != expected:
            cells = zip(re.split(",|\r\n", text), re.split(",|\r\n", expected))
            got, want = next((a, b) for a, b in cells if a != b)
            pytest.fail(f"wrote {got!r} where repr writes {want!r}")

    def test_uniform_and_log_uniform(self):
        rng = np.random.default_rng(27)
        self._check(rng.random(200_000))
        self._check(10.0 ** rng.uniform(-6.0, 0.0, 200_000))

    @pytest.mark.parametrize("digits", range(1, 17))
    def test_short_decimals(self, digits):
        rng = np.random.default_rng(digits)
        self._check(np.round(rng.random(5000), digits))
        self._check([float(f"{x:.{digits}g}") for x in 10.0 ** rng.uniform(-5.0, 0.0, 5000)])

    def test_neighbours_of_round_values(self):
        centres = np.array([1e-1, 1e-2, 1e-3, 1e-4, 0.5, 0.25, 0.2, 0.9, 1.0])
        steps = np.arange(-300, 301)  # consecutive bit patterns are neighbouring floats
        self._check((centres.view(np.int64)[:, None] + steps).view(np.float64))

    def test_dyadic_values_reach_rounding_ties(self):
        """``k / 2**e`` with few bits: some lie exactly halfway between two candidates."""
        self._check([k / 2.0**e for bits in range(1, 12) for e in range(bits, 60)
                     for k in range(1, 2**bits, 2)])

    def test_edge_values(self):
        self._check([-0.0, 0.0, 1.0, 5e-324, 2.0**-1022, 0.09999999999999999, 1e-4,
                     float(np.nextafter(1e-4, 0)), float(np.nextafter(1e-4, 1)), 1 - 2**-53])
        for shape in ((1, 1), (3, 1), (1, 5), (0, 4)):
            self._check(np.full(shape, 0.3), n_cols=shape[1])

    def test_a_synth_table_takes_the_fast_path(self, monkeypatch):
        """At most 5% of a 500x500 synth table goes through ``repr`` one value at a time."""
        m = synth_preferences(500, 500, 4, 0.05, seed=3)
        calls = []
        monkeypatch.setattr(util, "repr", lambda x: calls.append(x) or repr(x), raising=False)
        stacked = np.hstack([m.forward, m.backward])
        text = "".join(format_float_rows(stacked[i:i + 8]) for i in range(0, 500, 8))
        assert text == "".join(",".join(map(repr, row.tolist())) + "\r\n" for row in stacked)
        assert 0 < len(calls) <= 0.05 * stacked.size


def test_atomic_open_retries_a_temporary_name_that_exists(tmp_path, monkeypatch):
    """A temporary name that is taken is drawn again; the file there is left as it was."""
    names = iter([b"\x01" * 6, b"\x01" * 6, b"\x02" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(names))
    taken = tmp_path / f".tmp-{'01' * 6}~"
    taken.write_bytes(b"someone else's")
    with atomic_open(tmp_path / "target.csv", "wb") as fh:
        fh.write(b"a,b\r\n")
    assert next(names, None) is None  # the name was drawn three times
    assert (tmp_path / "target.csv").read_bytes() == b"a,b\r\n"
    assert taken.read_bytes() == b"someone else's"
    assert sorted(path.name for path in tmp_path.iterdir()) == [taken.name, "target.csv"]


def _two_cpus() -> bool:
    return hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2


class TestForkedWriters:
    """gen-data writes preferences.csv in a forked worker while this process writes the
    other files, on two or more usable cores from ``cli._FORK_PAIRS`` pairs on."""

    SYNTH = ("--synth", "9,11,3,0.05", "--folds", "3", "--seed", "2")  # 99 pairs
    FILES = sorted(["preferences.csv", "preferences.csv.parsed", "sides.json", "folds.json",
                    "exposure.json", "dataset.csv", "dataset.csv.parsed", "run.json"])

    @staticmethod
    def _cores(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def _count_forks(monkeypatch) -> list:
        forks, fork = [], os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    def _main_in(self, directory, monkeypatch) -> Path:
        """gen-data in-process with ``--out data`` in ``directory``, so that run.json,
        which records ``--out``, is the same in every run; returns the output directory."""
        directory.mkdir()
        monkeypatch.chdir(directory)
        assert cli_main(["gen-data", *self.SYNTH, "--out", "data"]) == 0
        return directory / "data"

    def _assert_same_files(self, out, default):
        assert sorted(p.name for p in out.iterdir()) == self.FILES  # no temporary file
        for name in self.FILES:
            assert (out / name).read_bytes() == (default / name).read_bytes(), name

    @pytest.mark.parametrize("fork_pairs", [64, 128])  # the 99 pairs fork at 64, not at 128
    def test_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch, fork_pairs):
        default = self._main_in(tmp_path / "default", monkeypatch)
        monkeypatch.setattr(cli, "_FORK_PAIRS", fork_pairs)
        for cores in (1, 2, 5):
            self._cores(monkeypatch, cores)
            self._assert_same_files(self._main_in(tmp_path / str(cores), monkeypatch), default)

    @pytest.mark.parametrize("fork_pairs, forks", [(99, 1), (100, 0)])
    def test_one_fork_from_the_threshold(self, tmp_path, monkeypatch, fork_pairs, forks):
        self._cores(monkeypatch, 2)
        monkeypatch.setattr(cli, "_FORK_PAIRS", fork_pairs)
        counted = self._count_forks(monkeypatch)
        self._main_in(tmp_path / "run", monkeypatch)
        assert len(counted) == forks

    @pytest.mark.parametrize("cores", [2, 3, 5])
    @pytest.mark.parametrize("failing", ["worker", "parent"])
    def test_failure_leaves_no_file_and_no_child(self, tmp_path, monkeypatch, capsys, cores,
                                                 failing):
        """A directory stands where the worker's preferences.csv or this process's
        dataset.csv goes.  A failed worker is an error naming its file; a failing parent
        waits for the worker, still writing, and reports its own error.  Either way no
        temporary file and no run.json are left, and the worker is reaped."""
        self._cores(monkeypatch, cores)
        monkeypatch.setattr(cli, "_FORK_PAIRS", 64)
        forks = self._count_forks(monkeypatch)
        save = simulate.save_preferences

        def slow_save(*args):
            time.sleep(0.2)
            save(*args)

        monkeypatch.setattr(cli, "save_preferences", slow_save)
        out = tmp_path / "data"
        blocked = out / ("preferences.csv" if failing == "worker" else "dataset.csv")
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert cli_main(["gen-data", *self.SYNTH, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        if failing == "worker":
            assert err == f"error: writing {blocked}: a worker exited with status 1\n"
        else:
            assert err.startswith("error: ") and "dataset.csv" in err
            assert (out / "preferences.csv").read_bytes()  # the worker finished its file
        assert len(forks) == 1
        names = [p.name for p in out.iterdir()]
        assert "run.json" not in names and not [n for n in names if n.startswith(".tmp-")]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_serial_while_another_thread_runs(self, tmp_path, monkeypatch):
        """A forked copy of a threaded process may deadlock on a lock another thread held."""
        default = self._main_in(tmp_path / "default", monkeypatch)
        monkeypatch.setattr(cli, "_FORK_PAIRS", 64)
        self._cores(monkeypatch, 3)

        def no_fork():
            raise AssertionError("forked while another thread ran")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            out = self._main_in(tmp_path / "threaded", monkeypatch)
        finally:
            stop.set()
            thread.join()
        self._assert_same_files(out, default)

    @pytest.mark.skipif(not _two_cpus(), reason="needs sched_setaffinity and two CPUs")
    def test_pinned_worker_gives_the_bytes_of_one_process(self, tmp_path, monkeypatch):
        default = self._main_in(tmp_path / "default", monkeypatch)
        monkeypatch.setattr(cli, "_FORK_PAIRS", 64)
        pinned, setaffinity = [], os.sched_setaffinity

        def recording(pid, cpus):
            pinned.append(pid)
            setaffinity(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", recording)
        out = self._main_in(tmp_path / "pinned", monkeypatch)
        assert len(pinned) == 3 and pinned[1:] == [0, 0]  # the worker, this process, restored
        self._assert_same_files(out, default)

    def test_a_worker_forks_no_workers(self, monkeypatch):
        """Splits never nest: inside a worker there is one usable core."""
        self._cores(monkeypatch, 3)
        assert usable_cores() == 3

        def nested():
            if usable_cores() != 1:
                raise AssertionError("a worker may fork")

        with Worker(nested) as worker:
            assert worker.wait() == 0

    @staticmethod
    def _gen_data(cwd, **kwargs):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        cwd.mkdir()
        return subprocess.run(
            [sys.executable, "-m", "matchltr.cli", "gen-data", "--synth", "300,300,4,0.05",
             "--out", "data"],
            cwd=cwd, env=env, text=True, timeout=120, **kwargs,
        )

    def test_gen_data_with_stdout_closed(self, tmp_path):
        """With fd 1 closed at start-up ``sys.stdout`` is None, which gen-data
        must not flush before it forks (300x300 is above the threshold)."""
        closed = self._gen_data(tmp_path / "closed", preexec_fn=lambda: os.close(1),
                                stderr=subprocess.PIPE)
        assert closed.returncode == 0, closed.stderr
        assert closed.stderr == ""
        self._gen_data(tmp_path / "open", stdout=subprocess.DEVNULL, check=True)
        files = sorted(p.name for p in (tmp_path / "open" / "data").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "closed" / "data").iterdir())
        for name in files:
            assert ((tmp_path / "closed" / "data" / name).read_bytes()
                    == (tmp_path / "open" / "data" / name).read_bytes()), name

    def test_gen_data_prints_each_line_once(self, tmp_path):
        """A worker that left any way but ``os._exit`` would run the rest of
        the command, or flush the parent's pending output, a second time."""
        result = self._gen_data(tmp_path / "run", stdout=subprocess.PIPE, check=True)
        lines = result.stdout.splitlines()
        assert lines.count("[gen-data] resolved config:") == 1
        assert len(lines) == len(set(lines))
        assert lines[-1].startswith("[gen-data] wrote ")


class TestWorkerPlacement:
    """A forked :class:`Worker` runs on the last CPU of this process's set and this
    process on the others, until the worker is reaped; then this process has its
    whole set back.  Where pinning is impossible, nothing is pinned."""

    @staticmethod
    def _run(ending):
        if ending == "fail":
            def run():
                raise RuntimeError("the worker fails")
            return run
        return lambda: time.sleep(0 if ending == "wait" else 60)

    @pytest.mark.skipif(not _two_cpus(), reason="needs sched_setaffinity and two CPUs")
    @pytest.mark.parametrize("ending", ["wait", "kill", "fail"])
    def test_own_cpu_until_reaped(self, ending, capfd):
        cores = sorted(os.sched_getaffinity(0))
        with Worker(self._run(ending)) as worker:
            assert sorted(os.sched_getaffinity(0)) == cores[:-1]
            if ending == "kill":  # the with block kills and reaps it
                assert sorted(os.sched_getaffinity(worker.pid)) == cores[-1:]
            else:
                assert worker.wait() == (1 if ending == "fail" else 0)
                assert sorted(os.sched_getaffinity(0)) == cores
        assert sorted(os.sched_getaffinity(0)) == cores
        assert ("RuntimeError: the worker fails" in capfd.readouterr().err) == (ending == "fail")

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
    @pytest.mark.parametrize("setaffinity", ["raises", "missing", "one-cpu"])
    def test_nothing_pinned_where_pinning_fails(self, monkeypatch, setaffinity):
        cores = os.sched_getaffinity(0)
        calls = []
        if setaffinity == "raises":
            def refuse(pid, cpus):
                calls.append(pid)
                raise OSError(22, "Invalid argument")
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        elif setaffinity == "missing":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(cores)})
            monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(pid),
                                raising=False)
        with Worker(lambda: time.sleep(60)) as worker:
            child = worker.pid
        assert calls == ([child] if setaffinity == "raises" else [])
        monkeypatch.undo()
        assert os.sched_getaffinity(0) == cores


class TestParsedSidecar:
    """``save_dataset`` and ``save_preferences`` leave a ``.parsed`` sidecar that
    the loaders read in place of parsing the CSV, when it may stand in for it:
    every load through a sidecar equals the CSV-only load, or fails as it does."""

    # (n_pro, n_rea, eta, k, test_fold); a 1-user side keeps one fold empty
    MARKETS = {
        "1x7": (1, 7, 1.0, 2, 1),
        "1x7-no-rows": (1, 7, 1.0, 2, 0),
        "7x1": (7, 1, 1.0, 2, 1),
        "eta-0": (30, 40, 0.0, 3, 0),
        "eta-3": (30, 40, 3.0, 3, 2),
        "200x200": (200, 200, 1.0, 5, 0),
    }

    @staticmethod
    def _plan(n_pro, n_rea, k, test_fold, seed=1):
        def blocks(n):
            if n == 1:
                return ((0,),) + ((),) * (k - 1)
            return tuple(tuple(int(i) for i in b)
                         for b in np.array_split(np.random.default_rng(seed).permutation(n), k))
        return FoldPlan(k=k, proactive_folds=blocks(n_pro), reactive_folds=blocks(n_rea),
                        test_fold=test_fold)

    def _write(self, tmp_path, market, seed=3):
        n_pro, n_rea, eta, k, test_fold = self.MARKETS[market]
        m = synth_preferences(n_pro, n_rea, 3, 0.0, seed=seed)  # no noise: no zero mass
        plan = self._plan(n_pro, n_rea, k, test_fold)
        ds = sample_dataset(m, exposure_from_popularity(m, eta), plan, seed=seed)
        save_preferences(m, tmp_path / "preferences.csv")
        save_dataset(ds, tmp_path / "dataset.csv")
        return plan

    @staticmethod
    def _no_parsing(monkeypatch):
        def parse(*args, **kwargs):
            raise AssertionError("parsed the CSV although its sidecar stands in for it")
        monkeypatch.setattr(simulate, "_read_csv", parse)

    @staticmethod
    def _arrays(tmp_path, plan):
        ds = load_dataset(tmp_path / "dataset.csv", plan)
        m = load_preferences(tmp_path / "preferences.csv")
        return {**{name: getattr(ds, name) for name in _TABLES},
                "forward": m.forward, "backward": m.backward}

    @staticmethod
    def _outcome(load):
        """What a load gives: its arrays by name, or the class and message of its error."""
        try:
            return {k: v for k, v in vars(load()).items() if isinstance(v, np.ndarray)}
        except DataFormatError as exc:
            return type(exc), str(exc)

    @staticmethod
    def _assert_same(actual, expected):
        assert type(actual) is type(expected)
        if isinstance(expected, tuple):  # an error
            assert actual == expected
            return
        assert actual.keys() == expected.keys()
        for name, array in expected.items():
            assert actual[name].dtype == array.dtype, name
            assert actual[name].shape == array.shape, name
            assert np.array_equal(actual[name], array), name
            assert actual[name].flags.writeable, name

    @staticmethod
    def _drop_sidecars(tmp_path):
        for name in ("dataset.csv.parsed", "preferences.csv.parsed"):
            (tmp_path / name).unlink()

    @pytest.mark.parametrize("market", list(MARKETS))
    def test_equals_the_csv_load(self, tmp_path, monkeypatch, market):
        plan = self._write(tmp_path, market)
        with monkeypatch.context() as patch:
            self._no_parsing(patch)
            through_sidecar = self._arrays(tmp_path, plan)
        self._drop_sidecars(tmp_path)
        self._assert_same(through_sidecar, self._arrays(tmp_path, plan))

    @pytest.mark.parametrize("edit", ["other-seed", "valid-byte", "invalid-byte"])
    def test_changed_csv_loads_as_the_csv_alone(self, tmp_path, edit):
        plan = self._write(tmp_path, "eta-3")
        if edit == "other-seed":  # another market's CSVs over these, sidecars kept
            other = tmp_path / "other"
            other.mkdir()
            self._write(other, "eta-3", seed=4)
            for name in ("dataset.csv", "preferences.csv"):
                (tmp_path / name).write_bytes((other / name).read_bytes())
        else:  # the last digit of the file's last float, changed or made non-numeric
            for name in ("dataset.csv", "preferences.csv"):
                data = bytearray((tmp_path / name).read_bytes())
                at = len(data) - 3
                data[at] = ord("x") if edit == "invalid-byte" else (data[at] - 48 + 1) % 10 + 48
                (tmp_path / name).write_bytes(bytes(data))
        loads = {"dataset": lambda: load_dataset(tmp_path / "dataset.csv", plan),
                 "preferences": lambda: load_preferences(tmp_path / "preferences.csv")}
        with_sidecar = {kind: self._outcome(load) for kind, load in loads.items()}
        self._drop_sidecars(tmp_path)
        for kind, load in loads.items():
            self._assert_same(with_sidecar[kind], self._outcome(load))
        if edit == "invalid-byte":
            assert all(isinstance(outcome, tuple) for outcome in with_sidecar.values())

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "payload-flipped", "empty",
                                        "header-only", "csv-digest"])
    def test_damaged_sidecar_falls_back_to_the_csv(self, tmp_path, monkeypatch, damage):
        plan = self._write(tmp_path, "eta-0")
        for name in ("dataset.csv.parsed", "preferences.csv.parsed"):
            path = tmp_path / name
            data = path.read_bytes()
            header_end = data.index(b"\n", len(simulate._PARSED_MAGIC)) + 1
            data = {
                "truncated": data[:-5],
                "garbage": np.random.default_rng(0).bytes(len(data)),
                "payload-flipped": data[:-1] + bytes([data[-1] ^ 1]),
                "empty": b"",
                "header-only": data[:header_end],
                "csv-digest": data.replace(b'"csv_sha256": "', b'"csv_sha256": "0', 1),
            }[damage]
            path.write_bytes(data)
        parsed = []
        read_csv = simulate._read_csv
        monkeypatch.setattr(simulate, "_read_csv",
                            lambda *a, **k: parsed.append(a) or read_csv(*a, **k))
        fallback = self._arrays(tmp_path, plan)
        assert len(parsed) == 2  # both CSVs were parsed
        monkeypatch.undo()
        self._drop_sidecars(tmp_path)
        self._assert_same(fallback, self._arrays(tmp_path, plan))

    @pytest.mark.parametrize("change", ["fold-labels", "test-fold", "larger-plan"])
    def test_other_fold_plan_fails_as_the_csv_does(self, tmp_path, change):
        plan = self._write(tmp_path, "eta-3")
        b0, b1, test_block = plan.proactive_folds  # the market's test fold is 2
        other = {
            # two non-test blocks swapped: the same test block, other labels
            "fold-labels": replace(plan, proactive_folds=(b1, b0, test_block)),
            "test-fold": replace(plan, test_fold=0),
            "larger-plan": replace(plan, reactive_folds=plan.reactive_folds[:-1]
                                   + (plan.reactive_folds[-1] + (plan.n_reactive,),)),
        }[change]
        load = lambda: load_dataset(tmp_path / "dataset.csv", other)  # noqa: E731
        with_sidecar = self._outcome(load)
        self._drop_sidecars(tmp_path)
        self._assert_same(with_sidecar, self._outcome(load))
        expected = {"fold-labels": r"fold labels do not match the fold plan$",
                    "test-fold": r"pair \(u=\d+, v=\d+\) lies in the test block$"}
        if change in expected:
            assert with_sidecar[0] is DataFormatError
            assert re.match(r"dataset CSV: " + expected[change], with_sidecar[1])

    @pytest.mark.parametrize("fault", ["out-of-range", "odd-columns", "empty"])
    def test_preference_checks_run_on_the_sidecar_path(self, tmp_path, monkeypatch, fault):
        """A sidecar that matches a faulty CSV raises the CSV's error."""
        data = {"out-of-range": np.array([[0.5, 0.25], [1.5, 0.0]]),
                "odd-columns": np.array([[0.5, 0.25, 0.0]]),
                "empty": np.zeros((0, 0))}[fault]
        path = tmp_path / "preferences.csv"
        path.write_bytes(b"".join(",".join(map(repr, row)).encode() + b"\r\n"
                                  for row in data.tolist()))
        simulate._save_parsed(path, {"preferences": data})
        with monkeypatch.context() as patch:
            self._no_parsing(patch)
            with_sidecar = self._outcome(lambda: load_preferences(path))
        (tmp_path / "preferences.csv.parsed").unlink()
        assert isinstance(with_sidecar, tuple)
        assert with_sidecar == self._outcome(lambda: load_preferences(path))

    def test_dataset_checks_run_on_the_sidecar_path(self, tmp_path, monkeypatch):
        """A sidecar that matches a CSV breaking y_fwd = o_fwd * r_fwd raises the CSV's error."""
        plan = self._write(tmp_path, "eta-0")
        ds = load_dataset(tmp_path / "dataset.csv", plan)
        lines = (tmp_path / "dataset.csv").read_bytes().split(b"\r\n")
        cells = lines[1].split(b",")
        u, v = int(cells[0]), int(cells[1])
        cells[8] = b"1" if cells[8] == b"0" else b"0"  # y_fwd
        lines[1] = b",".join(cells)
        (tmp_path / "dataset.csv").write_bytes(b"\r\n".join(lines))
        tables = {name: getattr(ds, name).copy() for name in _TABLES}
        tables["y_fwd"][u, v] ^= 1
        simulate._save_parsed(tmp_path / "dataset.csv", {
            **tables, "fold_u": _fold_index(plan.proactive_folds),
            "fold_v": _fold_index(plan.reactive_folds)})
        load = lambda: load_dataset(tmp_path / "dataset.csv", plan)  # noqa: E731
        with monkeypatch.context() as patch:
            self._no_parsing(patch)
            with_sidecar = self._outcome(load)
        (tmp_path / "dataset.csv.parsed").unlink()
        assert with_sidecar == (DataFormatError,
                                "dataset CSV: y_fwd must equal o_fwd * r_fwd for every pair")
        assert with_sidecar == self._outcome(load)
