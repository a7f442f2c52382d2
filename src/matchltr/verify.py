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

import numpy as np

from .core import ContractViolation
from .metrics import (
    EstimatorKind,
    LambdaWeight,
    _as_bits,
    expected_metric_exact,
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
        object.__setattr__(self, "theta_fwd", np.asarray(self.theta_fwd, dtype=np.float64))
        object.__setattr__(self, "theta_bwd", np.asarray(self.theta_bwd, dtype=np.float64))
        # integer fields must be JSON integers: [[0.7, 1.2]] is not a ranking
        if np.asarray(self.ranking).dtype.kind not in "iu":
            raise ContractViolation("ranking must hold integer candidate indices")
        object.__setattr__(self, "ranking", np.asarray(self.ranking, dtype=np.intp))
        # operator.index rejects 2.5 instead of truncating it
        object.__setattr__(self, "k", operator.index(self.k))
        shape = self.r_fwd.shape
        if len(shape) != 2 or shape[1] < 1:
            raise ContractViolation("instance arrays must be 2-d with >= 1 candidate")
        for name in ("r_bwd", "theta_fwd", "theta_bwd", "ranking"):
            if getattr(self, name).shape != shape:
                raise ContractViolation(f"{name} must match the instance shape {shape}")
        if self.k < 1:
            raise ContractViolation("cutoff must be positive")
        if (np.sort(self.ranking, axis=1) != np.arange(shape[1])).any():
            raise ContractViolation("each ranking row must be a permutation of candidates")

    @property
    def n_users(self) -> int:
        return self.r_fwd.shape[0]


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


def check_instance(inst: OracleInstance) -> InstanceCheck:
    """Evaluate the exact expectation of all three estimators on one instance."""
    weight = LambdaWeight(k=inst.k)
    truth = metric_ground_truth(inst.ranking, inst.r_fwd, inst.r_bwd, weight).value
    expected = {
        kind.value: expected_metric_exact(
            inst.ranking, inst.r_fwd, inst.r_bwd, inst.theta_fwd, inst.theta_bwd, weight, kind
        )
        for kind in EstimatorKind
    }
    return InstanceCheck(truth=truth, expected=expected)


def _has_weighted_mutual_pair(inst: OracleInstance) -> bool:
    """True if some mutually relevant pair with backward exposure < 1 gets weight."""
    eligible = (inst.r_fwd == 1) & (inst.r_bwd == 1) & (inst.theta_bwd < 1.0)
    return bool(eligible[np.arange(inst.n_users)[:, None], inst.ranking[:, :inst.k]].any())


@dataclass
class VerificationReport:
    """Aggregate outcome of a randomized verification run."""

    trials: int
    tolerance: float
    max_abs_error: dict[str, float]
    naive_deviations: int
    ipw1_deviations: int
    ipw1_eligible: int
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
    max_err = {kind.value: 0.0 for kind in EstimatorKind}
    naive_dev = 0
    ipw1_dev = 0
    ipw1_eligible = 0
    failures: list[OracleInstance] = []
    for _ in range(trials):
        inst = random_instance(rng, max_users, max_candidates, theta_one=theta_one)
        result = check_instance(inst)
        for kind in EstimatorKind:
            max_err[kind.value] = max(max_err[kind.value], result.error(kind))
        if result.error(EstimatorKind.NAIVE) > tolerance:
            naive_dev += 1
        if _has_weighted_mutual_pair(inst):
            ipw1_eligible += 1
            if result.error(EstimatorKind.IPW1) > tolerance:
                ipw1_dev += 1
        if result.error(EstimatorKind.IPW2) > tolerance:
            failures.append(inst)
    return VerificationReport(
        trials=trials,
        tolerance=tolerance,
        max_abs_error=max_err,
        naive_deviations=naive_dev,
        ipw1_deviations=ipw1_dev,
        ipw1_eligible=ipw1_eligible,
        witness=check_instance(single_pair_witness()),
        failures=failures,
    )
