"""Randomized verification of estimator (un)biasedness via exact enumeration.

For every random instance (fixed relevance bits, random rankings, random
exposure probabilities) the exact expectation of each estimator over the
exposure randomness is compared with the ground-truth metric.  The two-sided
estimator must match to numerical precision on every instance; the naive
estimator must demonstrably deviate, including on a canonical single-pair
witness, and the one-sided estimator must deviate whenever a mutually
relevant pair with imperfect backward exposure is ranked inside the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .core import ContractViolation, RankedList, _index, _real
from .metrics import (  # bench/tracing.py wraps metric_ground_truth here
    EstimatorKind,
    LambdaWeight,
    _as_bits,
    _check_theta,
    _coefficients,
    _discounts,
    _gain,
    _pick,
    _top_pairs,
    metric_ground_truth,
)
from .util import load_record, save_record

_THETA_LOW = 0.05  # smallest propensity a random instance draws


@dataclass(frozen=True)
class OracleInstance:
    """A small fixed-relevance instance for exact expectation checks.

    ``ranking[i]`` lists user ``i``'s candidate indices in rank order; label
    and propensity arrays are indexed ``[user, candidate]``.
    """

    r_fwd: np.ndarray
    r_bwd: np.ndarray
    theta_fwd: np.ndarray
    theta_bwd: np.ndarray
    ranking: np.ndarray
    k: int

    def __post_init__(self):
        # bits are checked as floats, before the int8 cast could wrap 256 to 0
        r_fwd, r_bwd = (_as_bits(name, getattr(self, name)) for name in _FIELDS[:2])
        thetas = [_check_theta(name, getattr(self, name)) for name in _FIELDS[2:4]]
        # integer fields must be JSON integers: [[0.7, 1.2]] is not a ranking, 2.5 no cutoff
        ranking, k = np.asarray(self.ranking), np.asarray(self.k)
        if ranking.dtype.kind not in "iu":
            raise ContractViolation("ranking must hold integer candidate indices")
        if k.dtype.kind not in "iu":
            raise ContractViolation(f"cutoff must be an integer, got {k.dtype}")
        shape = r_fwd.shape
        if len(shape) != 2 or min(shape) < 1:
            raise ContractViolation("instance arrays must be 2-d with >= 1 user and candidate")
        for name, table in zip(_FIELDS[1:], (r_bwd, *thetas, ranking)):
            if table.shape != shape:
                raise ContractViolation(f"{name} must match the instance shape {shape}")
        if k.shape != ():
            raise ContractViolation("need one cutoff per instance")
        if k < 1:
            raise ContractViolation("cutoff must be positive")
        ranking = ranking.astype(np.intp)
        if (np.sort(ranking, axis=1) != np.arange(shape[1])).any():
            raise ContractViolation("each ranking row must be a permutation of candidates")
        # copies, so that the frozen instance owns its arrays
        for name, value in zip(_FIELDS, (r_fwd.astype(np.int8), r_bwd.astype(np.int8),
                                         *(t.copy() for t in thetas), ranking, int(k))):
            object.__setattr__(self, name, value)


_FIELDS = tuple(f.name for f in fields(OracleInstance))


def save_instance(inst: OracleInstance, path) -> None:
    save_record(inst, path)


def load_instance(path) -> OracleInstance:
    return load_record(OracleInstance, path, "oracle instance")


def single_pair_witness() -> OracleInstance:
    """One mutually relevant pair under half exposure on both sides.

    The naive expectation is 1.0 against a ground truth of 3.0: the clearest
    demonstration that plug-in feedback underestimates mutual matches.
    """
    return OracleInstance(
        r_fwd=[[1]], r_bwd=[[1]],
        theta_fwd=[[0.5]], theta_bwd=[[0.5]],
        ranking=[[0]], k=1,
    )


@dataclass(frozen=True)
class InstanceCheck:
    """Ground truth and per-estimator expected values for one instance."""

    truth: float
    expected: dict[str, float]

    def error(self, kind: EstimatorKind) -> float:
        return abs(self.expected[kind.value] - self.truth)


def _padded(count: int, users: int, cands: int):
    """An empty batch of ``count`` instances of up to ``users x cands``.

    Row ``b`` of the ``(4, count, users, cands)`` values (r_fwd, r_bwd,
    theta_fwd, theta_bwd) and of the ``(count, users, cands)`` ranking holds
    instance ``b`` in its top-left corner, ``k[b]`` its cutoff and
    ``sizes[b]`` its ``(users, candidates)``.  The padding has zero labels,
    unit propensities and an identity ranking.
    """
    values = np.zeros((4, count, users, cands))
    values[2:] = 1.0
    ranking = np.arange(cands) + np.zeros((count, users, 1), dtype=np.intp)
    return values, ranking, np.empty(count, dtype=np.intp), np.empty((count, 2), dtype=np.intp)


def _put(batch, b: int, inst: OracleInstance) -> None:
    """Write a checked instance into row ``b`` of a :func:`_padded` batch."""
    values, ranking, k, sizes = batch
    users, cands = sizes[b] = inst.r_fwd.shape
    values[:, b, :users, :cands] = inst.r_fwd, inst.r_bwd, inst.theta_fwd, inst.theta_bwd
    ranking[b, :users, :cands] = inst.ranking
    k[b] = inst.k


def _enumerate(values, ranking, k, sizes):
    """:func:`check_batch` on a filled :func:`_padded` batch trimmed to its largest instance."""
    users, width = sizes.max(axis=0)
    # one gather into (slot, user, instance) order, at each (instance, user) row's start
    starts = np.arange(0, ranking.size, ranking.shape[2]).reshape(*ranking.shape[:2], 1)[:, :users]
    rf, rb, tf, tb = values.reshape(4, -1).take((ranking[:, :users, :width] + starts).T, axis=1)
    disc = np.where(np.arange(width)[:, None, None] < k, _discounts(width)[:, None, None], 0.0)
    # gains by (o_bwd, kind) with o_fwd = 1; with o_fwd = 0 they are 0 and add to neither moment
    y_b = rf * rb
    coef = np.array([_coefficients(kind, rf, y_b, tf, tb) for kind in EstimatorKind])
    gain = _gain(coef[:, 0], np.multiply.outer([0.0, 1.0], coef[:, 1]))
    del coef  # with the in-place product below, 1000 instances peak 3 MB lower
    pg = (np.array([1.0 - tb, tb]) * tf)[:, None] * gain
    # (7, slot, user, instance) rows: the truth (the naive gain under full exposure, see
    # gain_true), the means and the variances, moments summed over o_bwd as m += p * g would
    table = np.concatenate([gain[1, :1], np.add(*pg), np.add(*np.multiply(pg, gain, out=pg))])
    table[4:] = np.maximum(table[4:] - table[1:4] * table[1:4], 0.0)
    table[:4] *= disc
    table[4:] *= disc * disc
    # sums in index order, over slots and then users, by chained additions
    total = reduce(np.add, reduce(np.add, table.transpose(1, 2, 0, 3))) / sizes[:, 0]
    total[4:] /= sizes[:, 0]
    return total, ((y_b * disc > 0) & (tb < 1.0)).any(axis=(0, 1))


def check_batch(instances):
    """Truth, each estimator's exact mean and variance, and the ipw1-eligible mask.

    The instances are gathered in rank order into ``(slots, users, instances)``
    arrays padded with zero labels and unit propensities; slots past the cutoff
    get a zero discount.  Exposure bits are independent given relevance, so one
    sweep over each pair's (o_fwd, o_bwd) outcomes, for all estimator kinds at
    once, gives its mean and second moment; the user mean's variance is
    ``sum(disc**2 * pair variance) / n_users**2``.  Sums run in index order, so
    padding changes no bit.  ``mean`` and ``var`` have a row per kind;
    ``eligible`` marks instances that rank a mutual pair with backward exposure
    below 1 inside the cutoff.
    """
    batch = _padded(len(instances), *np.max([inst.r_fwd.shape for inst in instances], axis=0))
    for b, inst in enumerate(instances):
        _put(batch, b, inst)
    table, eligible = _enumerate(*batch)
    return table[0], table[1:4], table[4:], eligible


def check_instance(inst: OracleInstance) -> InstanceCheck:
    """Exact expectation of all three estimators on one instance: a batch of one."""
    truth, mean, _, _ = check_batch([inst])
    return InstanceCheck(truth=float(truth[0]), expected={
        kind.value: float(row[0]) for kind, row in zip(EstimatorKind, mean)})


def expected_metric_exact(
    rankings: np.ndarray | Sequence[RankedList], r_fwd: np.ndarray, r_bwd: np.ndarray,
    theta_fwd: np.ndarray, theta_bwd: np.ndarray, weight: LambdaWeight, which: EstimatorKind,
) -> float:
    """Exact expectation of an estimator over the exposure randomness.

    Relevance labels are held fixed; the top ``weight.k`` ranked pairs are
    checked as one :class:`OracleInstance` and go through :func:`check_batch`.
    """
    pairs = _top_pairs(rankings, weight.k)
    picked = {name: _pick(values, pairs, name) for name, values in (
        ("r_fwd", r_fwd), ("r_bwd", r_bwd), ("theta_fwd", theta_fwd), ("theta_bwd", theta_bwd))}
    n_users, depth = picked["r_fwd"].shape
    ranking = np.tile(np.arange(depth), (n_users, 1))
    return check_instance(OracleInstance(**picked, ranking=ranking, k=depth)).expected[which.value]


@dataclass
class VerificationReport:
    """Aggregate outcome of a randomized verification run."""

    trials: int
    tolerance: float
    max_abs_error: dict[str, float]
    naive_deviations: int
    ipw1_deviations: int
    ipw1_eligible: int
    max_ipw2_std: float
    witness: InstanceCheck
    failures: list[OracleInstance] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        rows = [
            f"instances checked: {self.trials}",
            f"tolerance for the two-sided estimator: {self.tolerance:g}",
            "max |E[estimate] - truth| over instances:",
        ]
        for kind in EstimatorKind:
            rows.append(f"  {kind.value:<12} {self.max_abs_error[kind.value]:.3e}")
        rows.append(f"largest exact std of the two-sided estimate: {self.max_ipw2_std:.3e}")
        rows.append(
            f"single-pair witness: naive expectation "
            f"{self.witness.expected['naive']:.6g} vs truth {self.witness.truth:.6g}"
        )
        rows.append(f"naive estimator deviated on {self.naive_deviations} instances")
        rows.append(
            f"one-sided estimator deviated on {self.ipw1_deviations} of "
            f"{self.ipw1_eligible} instances with a discounted mutual pair "
            f"under partial backward exposure"
        )
        rows.append(
            "two-sided estimator: "
            + ("all instances within tolerance" if self.passed
               else f"{len(self.failures)} instance(s) breached tolerance")
        )
        return rows


def check_settings(tolerance: float, max_users: int, max_candidates: int) -> None:
    """Reject a tolerance that is not a finite non-negative number, or a size cap below 1."""
    _real(tolerance, "tolerance")
    for name, cap in (("max_users", max_users), ("max_candidates", max_candidates)):
        if _index(cap) < 1:
            raise ContractViolation(f"{name} must be at least 1, got {cap}")


def run_verification(
    trials: int = 1000,
    max_users: int = 4,
    max_candidates: int = 6,
    tolerance: float = 1e-10,
    seed: int = 0,
    theta_one: bool = False,
) -> VerificationReport:
    """Compare exact estimator expectations with ground truth on random instances.

    The instances are drawn straight into one padded batch and enumerated in
    one sweep; the single-pair witness is checked once per process.  Each
    instance takes, in this order: its two sizes, both propensity tables (unit
    under ``theta_one``, with no draw), both bit tables, a permutation per
    user and the cutoff; a seed's failing instances depend on that order.  The
    draw only makes valid instances, so the batch is not re-checked; only
    failing rows become (checked) :class:`OracleInstance` objects.
    """
    trials, seed = _index(trials), _index(seed)
    if trials < 1:
        raise ContractViolation("need at least one trial")
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")
    check_settings(tolerance, max_users, max_candidates)
    witness = _witness()
    rng = np.random.default_rng(seed)
    integers, uniform, permuted = rng.integers, rng.uniform, rng.permuted
    batch = values, ranking, k, sizes = _padded(trials, max_users, max_candidates)
    shapes, cutoffs = [], []
    for b in range(trials):
        users = int(integers(1, max_users + 1))
        cands = int(integers(1, max_candidates + 1))
        if not theta_one:
            values[2:, b, :users, :cands] = uniform(_THETA_LOW, 1.0, (2, users, cands))
        values[:2, b, :users, :cands] = integers(0, 2, (2, users, cands))
        rows = ranking[b, :users, :cands]
        permuted(rows, axis=1, out=rows)  # draws what a permutation per row would
        shapes.append((users, cands))
        cutoffs.append(integers(1, cands + 2))
    sizes[:], k[:] = shapes, cutoffs
    table, eligible = _enumerate(*batch)
    err = np.abs(table[1:4] - table[0])
    naive, ipw1, ipw2 = err > tolerance
    *max_err, max_var = np.concatenate([err, table[6:]]).max(axis=1).tolist()
    counts = np.array([naive, ipw1 & eligible, eligible]).sum(axis=1).tolist()
    failures = [OracleInstance(*values[:, b, :users, :cands], ranking[b, :users, :cands], k[b])
                for b, (users, cands) in zip(np.flatnonzero(ipw2), sizes[ipw2])]
    return VerificationReport(
        trials, tolerance, {kind.value: e for kind, e in zip(EstimatorKind, max_err)}, *counts,
        math.sqrt(max_var), InstanceCheck(witness.truth, dict(witness.expected)), failures)


@cache
def _witness() -> InstanceCheck:
    return check_instance(single_pair_witness())
