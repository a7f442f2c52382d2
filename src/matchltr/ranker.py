"""Matrix-factorization mutual-preference model and its listwise losses.

Two independent embedding spaces: one scores the proactive user's preference
for a reactive candidate, the other the reverse.  Each directional score is a
sigmoid of an inner product; the mutual score is their product.  The listwise
loss normalizes raw sigmoid scores over the candidate set (a score ratio, not
a softmax of logits) and cross-entropies them against observed feedback,
optionally reweighted by inverse exposure probabilities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, read_arrays, sigmoid, write_arrays
from .metrics import EstimatorKind, feedback_coefficients

PROB_FLOOR = 1e-12  # clamp for normalized scores inside the log

# The four embedding tables, paired per space as (proactive, reactive): the
# forward space, then the backward space.  Flattened, this is the checkpoint order.
SPACES = (("w_pro_fwd", "w_rea_fwd"), ("w_pro_bwd", "w_rea_bwd"))
TABLES = tuple(name for space in SPACES for name in space)


class LossKind(enum.Enum):
    """Training-loss variant; each pairs with a validation estimator."""

    CONVENTIONAL = "conventional"
    IPW1 = "ipw1"
    IPW2 = "ipw2"

    @property
    def paired_metric(self) -> EstimatorKind:
        return {
            LossKind.CONVENTIONAL: EstimatorKind.NAIVE,
            LossKind.IPW1: EstimatorKind.IPW1,
            LossKind.IPW2: EstimatorKind.IPW2,
        }[self]


@dataclass(eq=False)
class RankerModel:
    """Four embedding tables: (proactive, reactive) x (forward, backward) spaces.

    Stored as copies in two stacks over a leading space axis (0 = forward):
    ``pro`` ``(2, n_proactive, dim)`` and ``rea`` ``(2, n_reactive, dim)``.
    The four named tables are views into the stacks.
    """

    w_pro_fwd: np.ndarray
    w_rea_fwd: np.ndarray
    w_pro_bwd: np.ndarray
    w_rea_bwd: np.ndarray

    def __post_init__(self):
        tables = {name: np.asarray(getattr(self, name), dtype=np.float64) for name in TABLES}
        for name, table in tables.items():
            if table.ndim != 2:
                raise ContractViolation(f"{name} must be a 2-d table")
            if not np.all(np.isfinite(table)):
                raise ContractViolation(f"{name} contains non-finite entries")
        if len({table.shape[1] for table in tables.values()}) != 1:
            raise ContractViolation("all embedding tables must share one dimension")
        for side, (fwd, bwd) in (("proactive", TABLES[0::2]), ("reactive", TABLES[1::2])):
            if tables[fwd].shape[0] != tables[bwd].shape[0]:
                raise ContractViolation(f"{side} tables must have equal row counts")
        self.pro = np.stack([tables[name] for name in TABLES[0::2]])
        self.rea = np.stack([tables[name] for name in TABLES[1::2]])
        for space, (pro, rea) in enumerate(SPACES):
            setattr(self, pro, self.pro[space])
            setattr(self, rea, self.rea[space])

    @property
    def dim(self) -> int:
        return self.pro.shape[2]

    @property
    def n_proactive(self) -> int:
        return self.pro.shape[1]

    @property
    def n_reactive(self) -> int:
        return self.rea.shape[1]

    def copy(self) -> "RankerModel":
        return RankerModel(**{name: getattr(self, name) for name in TABLES})


def init_model(n_proactive: int, n_reactive: int, dim: int, seed: int) -> RankerModel:
    """Uniform init in [-1/sqrt(dim), 1/sqrt(dim)] so initial scores sit near 0.5."""
    if dim < 1:
        raise ContractViolation(f"embedding dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)

    return RankerModel(**{
        name: rng.uniform(-bound, bound, size=(rows, dim))
        for space in SPACES for name, rows in zip(space, (n_proactive, n_reactive))
    })


def _check_range(ids: np.ndarray, n: int, side: str) -> None:
    """Reject ids outside ``[0, n)``; numpy would wrap a negative id silently."""
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise IndexError(f"{side} index out of range [0, {n})")


def score_matrix(model: RankerModel, users: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Mutual scores for a block of users x candidates."""
    users = np.asarray(users, dtype=np.intp)
    candidates = np.asarray(candidates, dtype=np.intp)
    _check_range(users, model.n_proactive, "proactive")
    _check_range(candidates, model.n_reactive, "reactive")
    w_cands = model.rea.take(candidates, axis=1)
    s = model.pro.take(users, axis=1) @ w_cands.transpose(0, 2, 1)
    sigmoid(s, out=s)
    return s[0] * s[1]


# ---------------------------------------------------------------------------
# listwise losses
# ---------------------------------------------------------------------------

def _loss_inputs(model, u, candidates, y_fwd, y_bwd, theta_fwd, theta_bwd, kind):
    candidates = np.asarray(candidates, dtype=np.intp)
    if candidates.size == 0:
        raise ContractViolation(f"user {u} has an empty candidate list")
    if np.unique(candidates).size != candidates.size:
        raise ContractViolation("candidate list contains duplicates")
    _check_range(np.asarray(u), model.n_proactive, "proactive")
    _check_range(candidates, model.n_reactive, "reactive")

    yf = np.asarray(y_fwd, dtype=np.float64)
    yb = np.asarray(y_bwd, dtype=np.float64)
    if yf.shape != candidates.shape or yb.shape != candidates.shape:
        raise ContractViolation("feedback vectors must align with the candidate list")
    # per-candidate cross-entropy weights: the row of the paired estimator
    for name, theta, used in (
        ("theta_fwd", theta_fwd, kind is not LossKind.CONVENTIONAL),
        ("theta_bwd", theta_bwd, kind is LossKind.IPW2),
    ):
        if used and np.shape(theta) != candidates.shape:
            raise ContractViolation(f"{name} must be aligned with candidates")
    coef_fwd, coef_bwd = feedback_coefficients(kind.paired_metric, yf, yb, theta_fwd, theta_bwd)
    return candidates, coef_fwd, coef_bwd


@dataclass(eq=False)
class GradientTables:
    """Gradients with the same shapes as the model's four tables."""

    w_pro_fwd: np.ndarray
    w_rea_fwd: np.ndarray
    w_pro_bwd: np.ndarray
    w_rea_bwd: np.ndarray

    @staticmethod
    def zeros_like(model: RankerModel) -> "GradientTables":
        return GradientTables(**{name: np.zeros_like(getattr(model, name)) for name in TABLES})


def accumulate_gradient(
    model: RankerModel,
    users: np.ndarray,
    mask_rows: np.ndarray,
    coef: np.ndarray,
    coef_sum: np.ndarray | None = None,
    spaces: slice = slice(None),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Listwise loss of a minibatch and its gradient in the embedding spaces ``spaces``.

    ``spaces`` slices the space axis of the model's stacks; all spaces by
    default.  With ``S`` spaces, user ``users[i]`` ranks the reactive
    candidates where the boolean row ``mask_rows[i]`` is set, with
    cross-entropy weights ``coef[space, i]`` (``coef`` is ``(S, batch,
    n_reactive)``, zero off the mask).  ``coef_sum``, the ``(S, batch)`` row
    sums of ``coef``, may be passed in when they were computed once per run.
    Returns the ``(batch, S)`` loss terms in batch order, ``grad_pro`` ``(S,
    batch, dim)``, whose row ``[space, i]`` is the gradient of proactive row
    ``users[i]``, and ``grad_rea`` ``(S, n_reactive, dim)``, the gradient of
    the whole reactive stack.  Both gradients are fresh arrays, which the
    caller may scale in place.  A user that repeats gets one row per
    occurrence, which the caller must add up.

    In each space, with s = sigmoid(z), p = s / sum(s) over the candidates
    and L = -sum(coef * log p), the derivative is dL/dz_v = (sum(coef) * p_v
    - coef_v) * (1 - s_v).  The probability floor inside the log is ignored
    by the gradient; it only binds at p <= 1e-12, far outside normal
    operation.  The spaces go through one pass of three batched GEMMs over
    all ``n_reactive`` columns; each runs the same GEMM per space that a
    single space would, so one space's results are bit for bit those of the
    stacked call.  The masked-out columns have p = 0 and coef = 0, so
    they add exact zeros to the loss and the gradient.
    The GEMMs sum in another order than a loop over users, so results match
    per-user calls up to rounding (about 1e-15 relative), not bit for bit.
    """
    users = np.asarray(users, dtype=np.intp)
    if coef_sum is None:
        coef_sum = coef.sum(axis=2)
    pro, rea = model.pro[spaces], model.rea[spaces]
    w_users = pro.take(users, axis=1)
    # NaNs from exploded embeddings propagate to the caller's divergence check
    with np.errstate(invalid="ignore", divide="ignore"):
        s = w_users @ rea.transpose(0, 2, 1)
        sigmoid(s, out=s)
        p = s * mask_rows
        p /= p.sum(axis=2, keepdims=True)
        log_p = np.maximum(p, PROB_FLOOR)
        np.log(log_p, out=log_p)
        terms = np.einsum("sij,sij->si", coef, log_p)
        np.negative(terms, out=terms)
        # dz = (sum(coef) * p - coef) * (1 - s), written over p
        p *= coef_sum[:, :, None]
        p -= coef
        np.subtract(1.0, s, out=s)
        p *= s
    return terms.T, p @ rea, p.transpose(0, 2, 1) @ w_users


def _user_kernel(model, u, candidates, y_fwd, y_bwd, theta_fwd, theta_bwd, kind):
    """One user's loss terms and gradient pieces through the minibatch kernel."""
    cands, coef_fwd, coef_bwd = _loss_inputs(
        model, u, candidates, y_fwd, y_bwd, theta_fwd, theta_bwd, kind
    )
    mask = np.zeros((1, model.n_reactive), dtype=bool)
    mask[0, cands] = True
    coef = np.zeros((2, 1, model.n_reactive))
    coef[:, 0, cands] = coef_fwd, coef_bwd
    return accumulate_gradient(model, [u], mask, coef)


def loss_user(
    model: RankerModel,
    u: int,
    candidates,
    y_fwd,
    y_bwd,
    theta_fwd=None,
    theta_bwd=None,
    kind: LossKind = LossKind.CONVENTIONAL,
) -> float:
    """Listwise loss of one user's candidate list (sum of both directional terms)."""
    terms, _, _ = _user_kernel(model, u, candidates, y_fwd, y_bwd, theta_fwd, theta_bwd, kind)
    return float(terms[0, 0]) + float(terms[0, 1])


def loss_gradient(
    model: RankerModel,
    u: int,
    candidates,
    y_fwd,
    y_bwd,
    theta_fwd=None,
    theta_bwd=None,
    kind: LossKind = LossKind.CONVENTIONAL,
) -> GradientTables:
    """Analytic gradient of :func:`loss_user` w.r.t. every embedding row.

    Rows of users not touched by the candidate list are zero.
    """
    _, g_pro, g_rea = _user_kernel(model, u, candidates, y_fwd, y_bwd, theta_fwd, theta_bwd, kind)
    out = GradientTables.zeros_like(model)
    for space, (pro, rea) in enumerate(SPACES):
        getattr(out, pro)[u] = g_pro[space, 0]
        getattr(out, rea)[:] = g_rea[space]
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"matchltr-checkpoint v1\n"


def save_model(model: RankerModel, path) -> None:
    """Write a checkpoint: magic line, JSON header line, then raw table bytes.

    The header records dim and both side sizes; tables follow in a fixed order
    as little-endian float64, C-order (:func:`write_arrays`).  Byte-for-byte
    reproducible.
    """
    header = {
        "dim": model.dim,
        "n_proactive": model.n_proactive,
        "n_reactive": model.n_reactive,
        "tables": list(TABLES),
        "dtype": "<f8",
    }
    write_arrays(path, _CKPT_MAGIC, header,
                 [np.asarray(getattr(model, name), dtype="<f8") for name in TABLES])


def _checkpoint_layout(header: dict) -> list:
    dim, n_pro, n_rea = (int(header[key]) for key in ("dim", "n_proactive", "n_reactive"))
    if header["tables"] != list(TABLES) or header["dtype"] != "<f8":
        raise ValueError("unsupported table layout")
    return [(name, "<f8", (n_pro if name.startswith("w_pro") else n_rea, dim))
            for name in TABLES]


def load_model(path) -> RankerModel:
    """Read a checkpoint written by :func:`save_model`."""
    _, tables = read_arrays(path, _CKPT_MAGIC, "checkpoint", _checkpoint_layout)
    return RankerModel(**dict(zip(TABLES, tables)))
