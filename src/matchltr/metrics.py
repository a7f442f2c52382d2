"""Ranking metrics for two-sided feedback and their debiased estimators.

The ground-truth metric averages, over proactive users, a position-discounted
gain of the pair's mutual relevance.  Because logged feedback is censored by
exposure on both sides, the naive plug-in estimator is biased; the one-sided
inverse-propensity estimator corrects only the proactive side; the two-sided
estimator reweights the backward part of the gain by both exposure
probabilities and is exactly unbiased (verified in :mod:`matchltr.verify` by
enumerating the four exposure outcomes of each pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .core import (
    AssumptionViolationError,
    ContractViolation,
    RankedList,
    UndefinedAverageError,
    _index,
)
from .util import EstimatorKind  # re-exported


@dataclass(frozen=True)
class LambdaWeight:
    """Rank-discount weight: ``1 / log2(rank + 1)`` up to a cutoff, 0 beyond.

    With this weight the metric is a truncated discounted cumulative gain.
    """

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _index(self.k))
        if self.k < 1:
            raise ContractViolation(f"cutoff must be a positive integer, got {self.k}")

    def weights(self, ranks: np.ndarray) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.float64)
        if ranks.size and ranks.min() < 1:
            raise ContractViolation("ranks are 1-based and must be >= 1")
        return np.where(ranks <= self.k, 1.0 / np.log2(ranks + 1.0), 0.0)


# ---------------------------------------------------------------------------
# per-pair gains: one coefficient table for every estimator and loss
# ---------------------------------------------------------------------------

def _as_bits(name: str, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not ((arr == 0.0) | (arr == 1.0)).all():
        raise ContractViolation(f"{name} must contain bits (0 or 1)")
    return arr


def _maybe_scalar(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def _check_theta(name: str, t, floor: float = 0.0) -> np.ndarray:
    """The one propensity rule, (0, 1]; returns ``t`` as float64, clipped at ``floor``."""
    arr = np.asarray(t, dtype=np.float64)
    if arr.size and not ((arr > 0.0) & (arr <= 1.0)).all():  # NaN fails too
        raise AssumptionViolationError(
            f"{name} must lie in (0, 1], got range [{arr.min()}, {arr.max()}]"
        )
    if floor > 0.0:
        arr = np.maximum(arr, floor)
    return arr


def feedback_coefficients(
    kind: EstimatorKind,
    y_fwd: np.ndarray,
    y_bwd: np.ndarray,
    theta_fwd=None,
    theta_bwd=None,
    theta_floor: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (forward, backward) feedback weights of one method.

        naive   y_fwd              y_bwd
        ipw1    y_fwd / theta_fwd  y_bwd / theta_fwd
        ipw2    y_fwd / theta_fwd  y_bwd / (theta_fwd * theta_bwd)

    The training losses use the pair as cross-entropy weights.  For feasible
    feedback bits the reweighted gain ``2**(y_fwd + y_bwd) - 1`` is
    ``forward + 2 * backward`` (see :func:`_gain`).  Propensities are read
    only by the rows that use them; ``theta_floor`` optionally clips them
    from below.
    """
    y_fwd = _as_bits("y_fwd", y_fwd)
    y_bwd = _as_bits("y_bwd", y_bwd)
    if np.any(y_bwd > y_fwd):
        raise ContractViolation("infeasible feedback: y_bwd = 1 requires y_fwd = 1")
    tf = None if kind is EstimatorKind.NAIVE else _check_theta("theta_fwd", theta_fwd, theta_floor)
    tb = _check_theta("theta_bwd", theta_bwd, theta_floor) if kind is EstimatorKind.IPW2 else None
    return _coefficients(kind, y_fwd, y_bwd, tf, tb)


def _coefficients(kind: EstimatorKind, y_fwd, y_bwd, tf, tb) -> tuple[np.ndarray, np.ndarray]:
    """The table of :func:`feedback_coefficients` on checked inputs."""
    if kind is EstimatorKind.NAIVE:
        return y_fwd, y_bwd
    if kind is EstimatorKind.IPW1:
        return y_fwd / tf, y_bwd / tf
    if kind is EstimatorKind.IPW2:
        return y_fwd / tf, y_bwd / (tf * tb)
    raise ContractViolation(f"unknown estimator kind {kind!r}")


def _gain(c_fwd: np.ndarray, c_bwd: np.ndarray) -> np.ndarray:
    return c_fwd + 2.0 * c_bwd


def gain_true(r_fwd, r_bwd):
    """Gain of true relevance: ``2**(r_fwd * (1 + r_bwd)) - 1`` (0, 1 or 3).

    This is the naive row applied to fully exposed feedback ``(r_fwd, r_fwd * r_bwd)``.
    """
    rf = _as_bits("r_fwd", r_fwd)
    return _maybe_scalar(_gain(rf, rf * _as_bits("r_bwd", r_bwd)))


def gain_surrogate(y_fwd, y_bwd):
    """Observable gain ``2**(y_fwd + y_bwd) - 1`` built from implicit feedback.

    Requires feasible feedback: backward feedback implies forward feedback.
    """
    return _maybe_scalar(_gain(*feedback_coefficients(EstimatorKind.NAIVE, y_fwd, y_bwd)))


def gain_ipw(y_fwd, y_bwd, theta_fwd, theta_bwd, theta_floor: float = 0.0):
    """Doubly-reweighted observable gain.

    The mutual part ``2**y_fwd * (2**y_bwd - 1)`` is divided by both exposure
    probabilities, the one-sided remainder ``2**y_fwd - 1`` by the forward one
    only.  With unit propensities this reduces to :func:`gain_surrogate`.
    ``theta_floor`` optionally clips propensities from below (variance control;
    off by default).
    """
    coef = feedback_coefficients(
        EstimatorKind.IPW2, y_fwd, y_bwd, theta_fwd, theta_bwd, theta_floor
    )
    return _maybe_scalar(_gain(*coef))


# ---------------------------------------------------------------------------
# the discounted-gain kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricValue:
    """A per-user-averaged metric, the number of users averaged over and its standard error."""

    value: float
    n_users: int
    stderr: float


def _top_pairs(rankings, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Label rows and rank-ordered label columns of the top ``min(k, depth)`` pairs.

    ``rankings`` is either an ``(n_users, depth)`` index array whose row ``i``
    ranks user ``i``'s candidates, or a sequence of equally long
    :class:`RankedList` objects, each naming its owner's row.
    """
    if isinstance(rankings, np.ndarray):
        if rankings.ndim != 2 or not np.issubdtype(rankings.dtype, np.integer):
            raise ContractViolation("a ranking array must be 2-d and hold integer indices")
        rows, cols = np.arange(rankings.shape[0]), rankings
    else:
        if len({len(ranked) for ranked in rankings}) > 1:
            raise ContractViolation("ranked lists of different lengths cannot be averaged")
        rows = np.array([ranked.owner for ranked in rankings], dtype=np.intp)
        cols = np.array([ranked.entries for ranked in rankings], dtype=np.intp)
    if cols.size == 0:
        raise UndefinedAverageError("metric is an average over users; got no ranked pairs")
    cols = cols[:, :k]
    if cols.min() < 0:
        raise ContractViolation("rankings hold negative candidate indices")
    if np.any(np.diff(np.sort(cols, axis=1), axis=1) == 0):
        raise ContractViolation("a ranking lists some candidate twice")
    return rows, cols


def _pick(pair_values, pairs: tuple[np.ndarray, np.ndarray], what: str) -> np.ndarray:
    """``pair_values`` at the ranked pairs, ``(n_users, depth)``, in rank order, unchecked."""
    rows, cols = pairs
    values = np.asarray(pair_values, dtype=np.float64)
    if values.ndim != 2:
        raise ContractViolation(f"{what} must be a 2-d (proactive x reactive) array")
    if rows.max() >= values.shape[0] or cols.max() >= values.shape[1]:
        raise ContractViolation(f"{what} does not cover the ranked pairs")
    return values[rows[:, None], cols]


@cache
def _discounts(depth: int) -> np.ndarray:
    """The read-only vector ``1 / log2(rank + 1)`` of ranks 1 to ``depth``."""
    discounts = LambdaWeight(k=depth).weights(np.arange(1, depth + 1))
    discounts.flags.writeable = False
    return discounts


def _discounted(top: np.ndarray) -> np.ndarray:
    """Per-user sum of rank-ordered gains times ``1 / log2(rank + 1)``."""
    return top @ _discounts(top.shape[1])


def _user_mean(per_user: np.ndarray) -> MetricValue:
    n = per_user.shape[0]
    stderr = float(per_user.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MetricValue(value=float(per_user.sum() / n), n_users=n, stderr=stderr)


def metric_ground_truth(
    rankings: np.ndarray | Sequence[RankedList],
    r_fwd: np.ndarray,
    r_bwd: np.ndarray,
    weight: LambdaWeight,
) -> MetricValue:
    """Position-discounted true mutual gain, averaged over users."""
    pairs = _top_pairs(rankings, weight.k)
    gains = gain_true(_pick(r_fwd, pairs, "r_fwd"), _pick(r_bwd, pairs, "r_bwd"))
    return _user_mean(_discounted(gains))


def estimate_metric(
    kind: EstimatorKind,
    rankings: np.ndarray | Sequence[RankedList],
    y_fwd: np.ndarray,
    y_bwd: np.ndarray,
    theta_fwd: np.ndarray,
    theta_bwd: np.ndarray,
    weight: LambdaWeight,
    theta_floor: float = 0.0,
) -> MetricValue:
    """Naive, one-sided or two-sided estimate of the ground-truth metric.

    ``rankings`` is an ``(n_users, depth)`` index array or a sequence of
    :class:`RankedList`; propensities are read only by the estimators that
    use them.  The two-sided estimate is unbiased for the ground truth.
    """
    pairs = _top_pairs(rankings, weight.k)
    yf, yb = _pick(y_fwd, pairs, "y_fwd"), _pick(y_bwd, pairs, "y_bwd")
    tf = None if kind is EstimatorKind.NAIVE else _pick(theta_fwd, pairs, "theta_fwd")
    tb = _pick(theta_bwd, pairs, "theta_bwd") if kind is EstimatorKind.IPW2 else None
    coef = feedback_coefficients(kind, yf, yb, tf, tb, theta_floor)
    return _user_mean(_discounted(_gain(*coef)))


# ---------------------------------------------------------------------------
# evaluation DCG
# ---------------------------------------------------------------------------

def rank_candidates(scores: np.ndarray) -> np.ndarray:
    """Column order of each row by descending score; ties keep ascending index."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] == 0:
        raise ContractViolation("scores must be 2-d with at least one candidate per user")
    if not np.all(np.isfinite(scores)):
        raise ContractViolation("scores must be finite")
    return np.argsort(-scores, axis=1, kind="stable")


def dcg_from_gains(scores: np.ndarray, gains: np.ndarray, k: int) -> np.ndarray:
    """Per-user discounted cumulative gain of the top-``k`` by score.

    ``gains[u, j]`` is the gain of candidate ``j`` for user ``u``.  With fewer
    than ``k`` candidates the sum runs over what is available.
    """
    k = LambdaWeight(k=k).k
    order = rank_candidates(scores)
    if np.shape(gains) != order.shape:
        raise ContractViolation("gains must have the same shape as scores")
    top = _pick(gains, _top_pairs(order, k), "gains")
    if not np.all(np.isfinite(top)):
        raise ContractViolation("gains has no value for some ranked pair")
    return _discounted(top)


def dcg_at_k(scores: np.ndarray, r_fwd: np.ndarray, r_bwd: np.ndarray, k: int) -> np.ndarray:
    """Test-time DCG with the exponential mutual-relevance gain ``2**(r_fwd*(1+r_bwd))``.

    Note the gain here keeps the ``+1`` floor (an irrelevant pair still
    contributes ``1/log2(rank+1)``), unlike the ``2**x - 1`` gain used by the
    estimator suite; this is the form used for test-set evaluation reports.
    """
    return dcg_from_gains(scores, 1.0 + gain_true(r_fwd, r_bwd), k)

