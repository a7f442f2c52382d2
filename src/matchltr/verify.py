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

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import AssumptionViolationError, ContractViolation, RankedList
from .metrics import (  # bench/tracing.py wraps metric_ground_truth here
    EstimatorKind,
    LambdaWeight,
    _as_bits,
    _coefficients,
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
        for name in ("r_fwd", "r_bwd"):  # checked before the cast wraps 256 to 0
            object.__setattr__(self, name, _as_bits(name, getattr(self, name)).astype(np.int8))
        for name in ("theta_fwd", "theta_bwd"):
            theta = np.asarray(getattr(self, name), dtype=np.float64)
            if not ((theta > 0.0) & (theta <= 1.0)).all():  # NaN fails too
                raise AssumptionViolationError(f"{name} must lie in (0, 1]")
            object.__setattr__(self, name, theta)
        # integer fields must be JSON integers: [[0.7, 1.2]] is not a ranking
        if np.asarray(self.ranking).dtype.kind not in "iu":
            raise ContractViolation("ranking must hold integer candidate indices")
        object.__setattr__(self, "ranking", np.asarray(self.ranking, dtype=np.intp))
        # operator.index rejects 2.5 instead of truncating it
        object.__setattr__(self, "k", operator.index(self.k))
        shape = self.r_fwd.shape
        if len(shape) != 2 or min(shape) < 1:
            raise ContractViolation("instance arrays must be 2-d with >= 1 user and candidate")
        for name in ("r_bwd", "theta_fwd", "theta_bwd", "ranking"):
            if getattr(self, name).shape != shape:
                raise ContractViolation(f"{name} must match the instance shape {shape}")
        if self.k < 1:
            raise ContractViolation("cutoff must be positive")
        if (np.sort(self.ranking, axis=1) != np.arange(shape[1])).any():
            raise ContractViolation("each ranking row must be a permutation of candidates")


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


def random_instance(
    rng: np.random.Generator,
    max_users: int = 4,
    max_candidates: int = 6,
    theta_one: bool = False,
) -> OracleInstance:
    """Draw labels, rankings and propensities (in [0.05, 1)) for one oracle check."""
    n_users = int(rng.integers(1, max_users + 1))
    n_cands = int(rng.integers(1, max_candidates + 1))
    shape = (n_users, n_cands)
    if theta_one:
        theta_fwd = np.ones(shape)
        theta_bwd = np.ones(shape)
    else:
        theta_fwd = rng.uniform(_THETA_LOW, 1.0, shape)
        theta_bwd = rng.uniform(_THETA_LOW, 1.0, shape)
    return OracleInstance(
        r_fwd=rng.integers(0, 2, shape),
        r_bwd=rng.integers(0, 2, shape),
        theta_fwd=theta_fwd,
        theta_bwd=theta_bwd,
        ranking=np.stack([rng.permutation(n_cands) for _ in range(n_users)]),
        k=int(rng.integers(1, n_cands + 2)),
    )


@dataclass(frozen=True)
class InstanceCheck:
    """Ground truth and per-estimator expected values for one instance."""

    truth: float
    expected: dict[str, float]

    def error(self, kind: EstimatorKind) -> float:
        return abs(self.expected[kind.value] - self.truth)


def check_batch(instances):
    """Truth, each estimator's exact mean and variance, and the ipw1-eligible mask.

    The instances are stacked in rank order into ``(instances, users, slots)``
    arrays padded with zero labels and unit propensities; slots past the cutoff
    get a zero discount.  Exposure bits are independent given relevance, so one
    sweep over each pair's four (o_fwd, o_bwd) outcomes gives its mean and
    second moment, and the user mean's variance is ``sum(disc**2 * pair
    variance) / n_users**2``.  Sums run in index order, so padding changes no
    bit: an instance gets the same values in any batch.  ``mean`` and ``var``
    have a row per :class:`EstimatorKind`; ``eligible`` marks instances that
    rank a mutual pair with backward exposure below 1 inside the cutoff.
    """
    n_users = np.array([inst.r_fwd.shape[0] for inst in instances])
    width = max(inst.r_fwd.shape[1] for inst in instances)
    shape = (len(instances), n_users.max(), width)
    padding = {"r_fwd": 0.0, "r_bwd": 0.0, "theta_fwd": 1.0, "theta_bwd": 1.0}
    raw = {name: np.full(shape, fill) for name, fill in padding.items()}
    ranking = np.broadcast_to(np.arange(width), shape).copy()  # padding stays in place
    for b, inst in enumerate(instances):
        rows, cols = inst.r_fwd.shape
        ranking[b, :rows, :cols] = inst.ranking
        for name, table in raw.items():
            table[b, :rows, :cols] = getattr(inst, name)
    rf, rb, tf, tb = (np.take_along_axis(table, ranking, axis=2) for table in raw.values())
    ranks = np.arange(1, width + 1)
    cutoff = np.array([inst.k for inst in instances])[:, None, None]
    disc = np.where(ranks <= cutoff, LambdaWeight(k=width).weights(ranks), 0.0)

    def user_mean(per_pair, weight):
        per_user = np.add.accumulate(per_pair * weight, axis=-1)[..., -1]
        return np.add.accumulate(per_user, axis=-1)[..., -1] / n_users

    m1, m2 = np.zeros((2, len(EstimatorKind)) + rf.shape)
    for o_f in (0.0, 1.0):
        p_f = tf if o_f else 1.0 - tf
        y_f = o_f * rf
        for o_b in (0.0, 1.0):
            p = p_f * (tb if o_b else 1.0 - tb)
            y_b = y_f * o_b * rb
            g = np.stack([_gain(*_coefficients(kind, y_f, y_b, tf, tb)) for kind in EstimatorKind])
            m1 += p * g
            m2 += p * g * g
    var = user_mean(np.maximum(m2 - m1 * m1, 0.0), disc * disc) / n_users
    eligible = ((rf * rb * disc > 0) & (tb < 1.0)).any(axis=(1, 2))
    return user_mean(_gain(rf, rf * rb), disc), user_mean(m1, disc), var, eligible


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
    """Reject a tolerance that is not finite and non-negative, or a size cap below 1."""
    if not 0.0 <= tolerance < np.inf:  # NaN fails too
        raise ContractViolation(f"tolerance must be finite and non-negative, got {tolerance}")
    for name, cap in (("max_users", max_users), ("max_candidates", max_candidates)):
        if cap < 1:
            raise ContractViolation(f"{name} must be at least 1, got {cap}")


def run_verification(
    trials: int = 1000,
    max_users: int = 4,
    max_candidates: int = 6,
    tolerance: float = 1e-10,
    seed: int = 0,
    theta_one: bool = False,
) -> VerificationReport:
    """Compare exact estimator expectations with ground truth on random instances."""
    if trials < 1:
        raise ContractViolation("need at least one trial")
    check_settings(tolerance, max_users, max_candidates)
    rng = np.random.default_rng(seed)
    drawn = [random_instance(rng, max_users, max_candidates, theta_one) for _ in range(trials)]
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
