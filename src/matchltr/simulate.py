"""Synthetic two-sided markets and biased implicit-feedback sampling.

The generative story: every (proactive, reactive) pair carries two Bernoulli
relevance parameters (one per direction).  Exposure is popularity-driven --
users with more incoming preference mass are seen more often -- and implicit
feedback is the product of exposure and relevance, with the reactive side
gated behind the proactive side's selection.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AssumptionViolationError,
    ContractViolation,
    DataFormatError,
    FoldInfeasibleError,
    FoldPlan,
    InvalidPopulationError,
    PreferenceMatrix,
    SideAssignment,
    _index,
    _Market,
    _real,
    _same_shape,
    read_arrays,
    sigmoid,
    write_arrays,
)
from .metrics import _check_theta
from .util import (atomic_open, file_sha256, format_float, format_float_rows, load_record,
                   open_csv, save_record)

# values per format_float_rows call: 65,536 run as fast but add 13 MB of temporaries
_CHUNK_VALUES = 1 << 13
# pairs per chunk of dataset.csv rows: 65,536 add 11 MB of temporaries
_CHUNK_PAIRS = 1 << 14


# ---------------------------------------------------------------------------
# side assignment and folds
# ---------------------------------------------------------------------------

def assign_sides(n_users: int, seed: int) -> SideAssignment:
    """Randomly split a user population into proactive and reactive sides.

    The split is as even as possible (sizes differ by at most one; the
    reactive side gets the extra user when ``n_users`` is odd) and is
    deterministic for a fixed seed.
    """
    n_users = _index(n_users)
    if n_users < 2:
        raise InvalidPopulationError(
            f"need at least 2 users to form two sides, got {n_users}"
        )
    perm = np.random.default_rng(seed).permutation(n_users)
    half = n_users // 2
    return SideAssignment(
        proactive_ids=tuple(sorted(int(i) for i in perm[:half])),
        reactive_ids=tuple(sorted(int(i) for i in perm[half:])),
    )


def make_folds(assignment: SideAssignment, k: int, seed: int, test_fold: int = 0) -> FoldPlan:
    """Partition each side into ``k`` near-equal random blocks.

    Block sizes differ by at most one (earlier blocks take the remainder).
    """
    k = _index(k)
    if k < 2:
        raise ContractViolation(f"fold count must be >= 2, got {k}")
    for name, size in (("proactive", assignment.n_proactive), ("reactive", assignment.n_reactive)):
        if size < k:
            raise FoldInfeasibleError(
                f"{name} side has {size} users, cannot form {k} folds"
            )
    rng = np.random.default_rng(seed)
    # FoldPlan stores each block sorted
    return FoldPlan(
        k=k,
        proactive_folds=np.array_split(rng.permutation(assignment.n_proactive), k),
        reactive_folds=np.array_split(rng.permutation(assignment.n_reactive), k),
        test_fold=test_fold,
    )


# ---------------------------------------------------------------------------
# exposure probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExposureModel(_Market):
    """Per-user exposure probabilities derived from popularity.

    ``theta_reactive_exposure[v]`` is the probability that a listed reactive
    user ``v`` is examined by any proactive user; ``theta_proactive_exposure[u]``
    is the probability that proactive user ``u`` is examined once it has
    selected someone.  The most popular user on each axis has probability
    exactly 1, and ``eta`` controls how sharply popularity translates into
    exposure (``eta = 0`` means uniform full exposure).
    """

    eta: float
    theta_reactive_exposure: np.ndarray
    theta_proactive_exposure: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", _real(self.eta, "eta"))
        for name in ("theta_reactive_exposure", "theta_proactive_exposure"):
            t = np.asarray(getattr(self, name), dtype=np.float64)
            if t.ndim != 1 or t.size == 0:
                raise ContractViolation(f"{name} must be a non-empty vector")
            object.__setattr__(self, name, _check_theta(name, t))
            if t.max() != 1.0:
                raise AssumptionViolationError(
                    f"{name} must be normalized so its most popular user has "
                    f"exposure exactly 1, got max {t.max()}"
                )

    @property
    def shape(self) -> tuple[int, int]:
        return self.theta_proactive_exposure.shape[0], self.theta_reactive_exposure.shape[0]


def exposure_from_popularity(m: PreferenceMatrix, eta: float) -> ExposureModel:
    """Exposure probabilities from preference mass, normalized by the maximum.

    A reactive user's exposure is ``(incoming forward mass / max)**eta``; a
    proactive user's exposure is ``(incoming backward mass / max)**eta``.
    Every user must have strictly positive incoming mass and an exposure
    that does not underflow to 0, otherwise the positivity assumption breaks.
    Both masses are column sums of C-ordered tables, so their bits do not
    depend on the memory layout of ``m``.
    """
    eta = _real(eta, "eta")
    exposures = []
    for side, table in (("reactive", m.forward), ("proactive", m.backward.T)):
        sums = np.ascontiguousarray(table).sum(axis=0)
        zero = np.flatnonzero(sums <= 0.0)
        if zero.size:
            raise AssumptionViolationError(
                f"{side} user {int(zero[0])} has zero incoming preference mass; "
                "exposure probability would be 0"
            )
        exposures.append((sums / sums.max()) ** eta)
        zero = np.flatnonzero(exposures[-1] == 0.0)
        if zero.size:
            raise AssumptionViolationError(
                f"eta {eta} is too large: {side} user {int(zero[0])}'s exposure "
                "underflows to 0"
            )
    return ExposureModel(float(eta), *exposures)


# ---------------------------------------------------------------------------
# preference matrices
# ---------------------------------------------------------------------------

def latent_preferences(
    actor_factors: np.ndarray,
    target_factors: np.ndarray,
    target_offsets: np.ndarray | None = None,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One direction of a low-rank preference model, squashed to [0, 1].

    Probability of actor ``i`` preferring target ``j`` is
    ``sigmoid(actor_factors[i] . target_factors[j] + target_offsets[j])``,
    optionally perturbed by Gaussian noise truncated back into [0, 1].
    """
    actor = np.asarray(actor_factors, dtype=np.float64)
    target = np.asarray(target_factors, dtype=np.float64)
    if actor.ndim != 2 or target.ndim != 2 or actor.shape[1] != target.shape[1]:
        raise ContractViolation("factor matrices must be 2-d with a shared latent dimension")
    noise = _real(noise, "noise")
    logits = actor @ target.T
    if target_offsets is not None:
        logits = logits + np.asarray(target_offsets, dtype=np.float64)[None, :]
    probs = sigmoid(logits)
    if noise > 0:
        if rng is None:
            raise ContractViolation("noise > 0 requires an rng")
        probs = np.clip(probs + noise * rng.standard_normal(probs.shape), 0.0, 1.0)
    return probs


# fixed logit weights of synth_preferences (see its docstring)
_FORWARD_BASE = 0.3
_FORWARD_JITTER = 0.45
_PERSONAL_SPREAD = 0.5
_WITHIN_LOGIT = 2.5
_ACROSS_LOGIT = -2.5
_BACKWARD_BOOST = 3.5
_BACKWARD_JITTER = 0.4


def synth_preferences(
    n_proactive: int,
    n_reactive: int,
    rank: int,
    noise: float,
    seed: int,
) -> PreferenceMatrix:
    """Two-sided preferences where reciprocation is the scarce, clustered signal.

    Forward direction (who proactive users like): a popularity-graded latent
    model, ``sigmoid(_FORWARD_BASE + _FORWARD_JITTER * z_v + personal taste)``,
    with per-user taste of scale ``_PERSONAL_SPREAD``.  Popular reactive users
    are genuinely more attractive, so downstream exposure roughly follows
    forward preference.

    Backward direction (who reciprocates): users on both sides carry one of
    ``rank`` latent classes; reciprocation is strong within a class
    (``_WITHIN_LOGIT``) and rare across classes (``_ACROSS_LOGIT``), except that
    class-0 proactive users are mainstream and get a ``_BACKWARD_BOOST`` from
    everyone.  Niche-class proactive users receive little backward mass, hence
    little backward exposure, which is what makes their logged reciprocations
    rare and precious.

    Both directions are low-rank factor models squashed through a sigmoid;
    ``noise`` perturbs the probabilities and is truncated back into [0, 1].
    """
    n_proactive, n_reactive, rank = map(_index, (n_proactive, n_reactive, rank))
    if rank < 1:
        raise ContractViolation(f"rank must be >= 1, got {rank}")
    if n_proactive < 1 or n_reactive < 1:
        raise ContractViolation("both sides need at least one user")
    rng = np.random.default_rng(seed)
    class_pro = rng.integers(0, rank, n_proactive)
    class_rea = rng.integers(0, rank, n_reactive)

    taste_sd = np.sqrt(_PERSONAL_SPREAD / np.sqrt(rank))
    fwd_actors = rng.standard_normal((n_proactive, rank)) * taste_sd
    fwd_targets = rng.standard_normal((n_reactive, rank)) * taste_sd
    fwd_offsets = _FORWARD_BASE + _FORWARD_JITTER * rng.standard_normal(n_reactive)
    forward = latent_preferences(fwd_actors, fwd_targets, fwd_offsets, noise, rng)

    bwd_actors = np.eye(rank)[class_rea]
    bwd_targets = np.full((n_proactive, rank), _ACROSS_LOGIT)
    bwd_targets[np.arange(n_proactive), class_pro] = _WITHIN_LOGIT
    bwd_offsets = _BACKWARD_BOOST * (class_pro == 0)
    bwd_offsets = bwd_offsets + _BACKWARD_JITTER * rng.standard_normal(n_proactive)
    # backward[u, v] = preference of reactive v for proactive u
    backward = latent_preferences(bwd_actors, bwd_targets, bwd_offsets, noise, rng).T

    return PreferenceMatrix(forward=forward, backward=backward)


def save_preferences(m: PreferenceMatrix, path) -> None:
    """Write a preference matrix as dense CSV, one row per proactive user.

    The row holds the forward block then the backward block side by side
    (``2 * n_reactive`` columns).  Values use shortest round-trip formatting
    (``repr`` of a Python float is :func:`format_float`); rows end in CRLF.
    Rows are formatted by :func:`format_float_rows` in chunks of about 8,192
    values (whole rows, at least one) and written atomically.  The parsed
    table goes into a sidecar (:func:`_save_parsed`).
    """
    stacked = np.hstack([m.forward, m.backward])
    chunk = max(1, _CHUNK_VALUES // stacked.shape[1])  # rows per format_float_rows call
    with atomic_open(path, "w") as fh:
        for lo in range(0, len(stacked), chunk):
            fh.write(format_float_rows(stacked[lo:lo + chunk]))
    _save_parsed(path, {"preferences": stacked})


# ---------------------------------------------------------------------------
# parsed copies: a sidecar ``<csv>.parsed`` beside each CSV the package writes
# ---------------------------------------------------------------------------

_PARSED_MAGIC = b"matchltr-parsed v1\n"


def _payload_sha256(arrays) -> str:
    """Hex sha256 of the C-contiguous arrays' bytes, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array)
    return digest.hexdigest()


def _save_parsed(csv_path, arrays: dict) -> None:
    """Write the sidecar of the CSV just written at ``csv_path``: its tables and its digest.

    Each array is stored with an explicit little-endian dtype; the header
    holds the CSV's sha256, the payload's sha256 and each array's name,
    dtype and shape (:func:`write_arrays`).
    """
    arrays = {name: np.ascontiguousarray(a, a.dtype.newbyteorder("<"))
              for name, a in arrays.items()}
    header = {
        "csv_sha256": file_sha256(csv_path),
        "payload_sha256": _payload_sha256(arrays.values()),
        "arrays": [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
                   for name, a in arrays.items()],
    }
    write_arrays(os.fspath(csv_path) + ".parsed", _PARSED_MAGIC, header, arrays.values())


def _load_parsed(csv_path, expected: dict) -> dict | None:
    """The tables of the CSV at ``csv_path`` from its sidecar, or None to parse the CSV.

    ``expected`` maps each array's name, in order, to its dtype and shape
    (``None`` for any length).  The sidecar stands in for the CSV only if it
    reads cleanly, holds exactly those arrays, its payload digest holds and
    its recorded CSV sha256 is that of the file now at ``csv_path``.
    """
    def fits(name, dtype, shape):
        want_dtype, want_shape = expected[name]
        return (np.dtype(dtype) == np.dtype(want_dtype) and len(shape) == len(want_shape)
                and all(want in (None, n) for n, want in zip(shape, want_shape)))

    def layout(header):
        specs = [(a["name"], a["dtype"], a["shape"]) for a in header["arrays"]]
        names = [name for name, _, _ in specs]
        if names != list(expected) or not all(fits(*spec) for spec in specs):
            raise ValueError("not the expected arrays")
        return specs

    try:
        header, arrays = read_arrays(os.fspath(csv_path) + ".parsed", _PARSED_MAGIC,
                                     "parsed copy", layout)
        if (header.get("payload_sha256") != _payload_sha256(arrays)
                or header.get("csv_sha256") != file_sha256(csv_path)):
            return None
    except (OSError, DataFormatError):
        return None
    return dict(zip(expected, arrays))


def _read_csv(path, what: str, dtype, header: tuple[str, ...] | None = None) -> np.ndarray:
    """Parse a numeric CSV file with numpy's C parser, one row per data line.

    Lines may end in LF, CRLF or CR; blank lines are skipped; cells may be
    quoted and padded with blanks.  Every data line must have as many cells
    as the first (or as ``header``, which must then be line 1).  Errors are
    :class:`DataFormatError` naming the 1-based line where the record starts.
    """
    if header is not None:
        with open_csv(path, what, header):
            pass  # opening checks the header; numpy parses the rest
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(path, dtype, comments=None, delimiter=",", quotechar='"',
                              skiprows=0 if header is None else 1, encoding="utf-8",
                              ndmin=1 if np.dtype(dtype).names else 2)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{what} {path}: {exc}") from None
    except ValueError as exc:
        lines, cells = _data_lines(path, what, header)
        width = len(header) if header is not None else cells[0]
        if (cells != width).any():
            bad = np.argmax(cells != width)
            raise DataFormatError(
                f"{what}: line {lines[bad]}: expected {width} columns, got {cells[bad]}"
            ) from None
        found = re.match(r"(could not convert .*) at row (\d+)", str(exc))
        if found is None:
            raise DataFormatError(f"{what}: {exc}") from None
        raise DataFormatError(f"{what}: line {lines[int(found[2])]}: {found[1]}") from None


def _data_lines(path, what: str, header=None) -> np.ndarray:
    """The first file line (1-based) and the cell count of each non-blank record, as two rows.

    The ``csv`` module splits them as the parser does: a quote opens a cell
    only at its start, and a comma or line end inside a quoted cell is part of
    it.  This runs only after parsing failed, so it may take a step per record.
    """
    found = []
    with open_csv(path, what, header) as reader:  # past the header, if one is given
        first = reader.line_num + 1  # the line where the next record starts
        for row in reader:
            if row:
                found.append((first, len(row)))
            first = reader.line_num + 1
    return np.array(found, dtype=np.intp).reshape(-1, 2).T


def _parse_float_csv(path, what: str, data: np.ndarray | None = None) -> np.ndarray:
    """Parse a float CSV of entries in [0, 1], or check ``data`` parsed from it already."""
    if data is None:
        data = _read_csv(path, what, np.float64)
    if not data.size:
        raise DataFormatError(f"{what}: file is empty")
    bad = ~((data >= 0.0) & (data <= 1.0)).all(axis=1)
    if bad.any():
        line = _data_lines(path, what)[0][np.argmax(bad)]
        raise DataFormatError(f"{what}: line {line}: entries must be finite and lie in [0, 1]")
    return data


def load_preferences(path) -> PreferenceMatrix:
    """Read a preference matrix written by :func:`save_preferences`.

    The sidecar of the CSV stands in for parsing it where it may
    (:func:`_load_parsed`); the checks are the same either way.
    """
    parsed = _load_parsed(path, {"preferences": (np.float64, (None, None))})
    data = _parse_float_csv(path, "preference CSV",
                            None if parsed is None else parsed["preferences"])
    if data.shape[1] % 2 != 0:
        raise DataFormatError(
            f"preference CSV: expected an even column count (forward block then "
            f"backward block), got {data.shape[1]}"
        )
    n_rea = data.shape[1] // 2
    return PreferenceMatrix(forward=data[:, :n_rea], backward=data[:, n_rea:])


def load_square_preferences(path) -> np.ndarray:
    """Read a square all-users preference CSV (``m[i, j]`` = i's preference for j).

    Returns the ``n x n`` float64 array, entries in [0, 1]; split it into
    sides with :meth:`PreferenceMatrix.from_square`.
    """
    data = _parse_float_csv(path, "square preference CSV")
    if data.shape[0] != data.shape[1]:
        raise DataFormatError(
            f"square preference CSV: expected a square matrix, got shape {data.shape}"
        )
    return data


# ---------------------------------------------------------------------------
# feedback datasets
# ---------------------------------------------------------------------------

_DATASET_COLUMNS = (
    "u", "v", "fold_u", "fold_v",
    "r_fwd", "r_bwd", "o_fwd", "o_bwd", "y_fwd", "y_bwd",
    "theta_fwd", "theta_bwd",
)
_BIT_TABLES = _DATASET_COLUMNS[4:10]
_THETA_TABLES = _DATASET_COLUMNS[10:]
_TABLES = ("observed",) + _BIT_TABLES + _THETA_TABLES


@dataclass(frozen=True, eq=False)
class FeedbackDataset(_Market):
    """Sampled feedback as dense ``(n_proactive, n_reactive)`` tables.

    ``observed`` marks the logged pairs and never touches the test block.
    Off ``observed`` every bit is 0 and both propensities are 1, so the
    tables can be read without a mask.  :meth:`from_columns` builds them from
    one row per observed pair.
    """

    fold_plan: FoldPlan
    observed: np.ndarray
    r_fwd: np.ndarray
    r_bwd: np.ndarray
    o_fwd: np.ndarray
    o_bwd: np.ndarray
    y_fwd: np.ndarray
    y_bwd: np.ndarray
    theta_fwd: np.ndarray
    theta_bwd: np.ndarray

    def __post_init__(self):
        plan = self.fold_plan
        for name in _TABLES:
            if np.shape(getattr(self, name)) != self.shape:
                raise ContractViolation(f"table {name} must have shape {self.shape}")
        observed = np.asarray(self.observed)
        if observed.dtype != np.bool_:
            raise ContractViolation("table observed must be boolean")
        object.__setattr__(self, "observed", observed)
        for name in _BIT_TABLES:
            table = np.asarray(getattr(self, name))
            if not ((table == 0) | (table == 1)).all():  # before the cast wraps 256 to 0
                raise ContractViolation(f"table {name} must contain bits")
            object.__setattr__(self, name, np.ascontiguousarray(table, dtype=np.int8))
        for name in _THETA_TABLES:
            table = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, _check_theta(name, table))
        off = ~observed
        if any(getattr(self, name)[off].any() for name in _BIT_TABLES) or any(
            (getattr(self, name)[off] != 1.0).any() for name in _THETA_TABLES
        ):
            raise ContractViolation("unobserved pairs must have bits 0 and propensities 1")
        if not np.array_equal(self.y_fwd, self.o_fwd * self.r_fwd):
            raise ContractViolation("y_fwd must equal o_fwd * r_fwd for every pair")
        if not np.array_equal(self.y_bwd, self.y_fwd * self.o_bwd * self.r_bwd):
            raise ContractViolation("y_bwd must equal y_fwd * o_bwd * r_bwd for every pair")
        in_test = observed & plan.test_mask()
        if in_test.any():
            u, v = np.argwhere(in_test)[0]
            raise ContractViolation(f"pair (u={u}, v={v}) lies in the test block")

    @classmethod
    def from_columns(cls, plan: FoldPlan, u, v, **columns) -> "FeedbackDataset":
        """Tables from per-pair columns: row ``i`` of each describes pair ``(u[i], v[i])``.

        ``columns`` are named like the tables.  Rows may come in any order,
        and a pair may appear at most once.
        """
        n_pro, n_rea = plan.shape
        u = np.asarray(u, dtype=np.intp)
        v = np.asarray(v, dtype=np.intp)
        columns = {name: np.asarray(col) for name, col in columns.items()}
        if u.ndim != 1 or any(col.shape != u.shape for col in (v, *columns.values())):
            raise ContractViolation("columns must be vectors of one length")
        if u.size and (min(u.min(), v.min()) < 0 or u.max() >= n_pro or v.max() >= n_rea):
            raise ContractViolation("pair index out of range")
        flat = u * n_rea + v
        counts = np.bincount(flat, minlength=n_pro * n_rea)
        if counts.max(initial=0) > 1:
            u_dup, v_dup = divmod(int(np.argmax(counts)), n_rea)
            raise ContractViolation(f"pair (u={u_dup}, v={v_dup}) appears more than once")
        tables = {}
        for name, col in columns.items():
            table = (np.ones(counts.size) if name in _THETA_TABLES
                     else np.zeros(counts.size, col.dtype))
            table[flat] = col
            tables[name] = table.reshape(n_pro, n_rea)
        return cls(fold_plan=plan, observed=(counts > 0).reshape(n_pro, n_rea), **tables)

    def __len__(self) -> int:
        """Number of observed pairs."""
        return int(np.count_nonzero(self.observed))

    @property
    def shape(self) -> tuple[int, int]:
        return self.fold_plan.shape


def sample_dataset(
    m: PreferenceMatrix,
    exposure: ExposureModel,
    plan: FoldPlan,
    seed: int,
) -> FeedbackDataset:
    """Draw one biased-feedback realization for every non-test pair.

    Per pair, independently: forward relevance from the forward preference,
    forward exposure from the reactive user's popularity, backward relevance
    from the backward preference, backward exposure from the proactive user's
    popularity; feedback is composed from these four bits.  Deterministic for
    a fixed seed, and the draw for a given pair does not depend on the fold
    plan (the plan only selects which pairs are kept).
    """
    shape = _same_shape({"preference matrix": m, "fold plan": plan, "exposure model": exposure})
    rng = np.random.default_rng(seed)
    observed = ~plan.test_mask()
    r_fwd = (rng.random(shape) < m.forward) & observed
    o_fwd = (rng.random(shape) < exposure.theta_reactive_exposure[None, :]) & observed
    r_bwd = (rng.random(shape) < m.backward) & observed
    o_bwd = (rng.random(shape) < exposure.theta_proactive_exposure[:, None]) & observed
    y_fwd = o_fwd & r_fwd
    return FeedbackDataset(
        fold_plan=plan, observed=observed, r_fwd=r_fwd, r_bwd=r_bwd, o_fwd=o_fwd, o_bwd=o_bwd,
        y_fwd=y_fwd, y_bwd=y_fwd & o_bwd & r_bwd,
        theta_fwd=np.where(observed, exposure.theta_reactive_exposure[None, :], 1.0),
        theta_bwd=np.where(observed, exposure.theta_proactive_exposure[:, None], 1.0),
    )


# ---------------------------------------------------------------------------
# file formats: dataset CSV, fold-plan JSON, exposure JSON
# ---------------------------------------------------------------------------

def _fold_index(folds) -> np.ndarray:
    """Vector mapping each user of one side to its fold index, from that side's blocks."""
    out = np.empty(sum(map(len, folds)), dtype=np.intp)
    for f, block in enumerate(folds):
        out[list(block)] = f
    return out


def _byte_table(cells) -> np.ndarray:
    """The ASCII strings ``cells`` as the rows of a NUL-padded ``uint8`` table."""
    table = np.array(cells, dtype="S")
    return table.view(np.uint8).reshape(len(table), table.itemsize)


def save_dataset(ds: FeedbackDataset, path) -> None:
    """Write one CSV row per observed pair, in row-major order (schema: the header row).

    Rows end in CRLF and floats use :func:`format_float`.  Rows are formatted
    in chunks of about 16,384 pairs (whole proactive rows, at least one) and
    written atomically.  A chunk's cells are rows of NUL-padded byte tables,
    built once per call (ids, fold labels, the 64 tokens of six bits) or per
    chunk (its distinct thetas), gathered by ``np.take`` and joined side by
    side; deleting the padding leaves the rows (240,000 rows in 0.061 s on one
    core, ``BENCH_dataset_rows.json``).  The tables and both sides' fold labels
    go into a sidecar (:func:`_save_parsed`).
    """
    folds = {"fold_u": _fold_index(ds.fold_plan.proactive_folds),
             "fold_v": _fold_index(ds.fold_plan.reactive_folds)}
    ids = _byte_table([f"{i}," for i in range(max(ds.n_proactive, ds.n_reactive))])
    fold_u, fold_v = (_byte_table([f"{f}," for f in labels.tolist()]) for labels in folds.values())
    tokens = _byte_table([",".join(format(i, "06b")) + "," for i in range(64)])
    chunk = max(1, _CHUNK_PAIRS // max(ds.n_reactive, 1))  # proactive rows per chunk
    with atomic_open(path, "w") as fh:
        fh.write(",".join(_DATASET_COLUMNS) + "\r\n")
        for lo in range(0, ds.n_proactive, chunk):
            rows = slice(lo, lo + chunk)
            at = np.flatnonzero(ds.observed[rows])  # the chunk's observed pairs, row-major
            bits = np.zeros(at.size, dtype=np.int8)
            for name in _BIT_TABLES:
                bits = 2 * bits + getattr(ds, name)[rows].ravel()[at]
            uu, vv = np.divmod(at + lo * ds.n_reactive, ds.n_reactive)
            columns = [(ids, uu), (ids, vv), (fold_u, uu), (fold_v, vv), (tokens, bits)]
            for name, end in zip(_THETA_TABLES, (",", "\r\n")):  # in (0, 1]: no -0.0
                values, which = np.unique(getattr(ds, name)[rows].ravel()[at], return_inverse=True)
                columns.append((_byte_table([format_float(x) + end for x in values.tolist()]), which))
            cells = np.concatenate([np.take(table, codes, axis=0) for table, codes in columns], 1)
            fh.write(cells.tobytes().translate(None, b"\0").decode("ascii"))
    _save_parsed(path, {name: getattr(ds, name) for name in _TABLES} | folds)


def load_dataset(path, plan: FoldPlan) -> FeedbackDataset:
    """Read a dataset CSV back against its fold plan.

    Rows may come in any order.  Fold labels stored in the file are
    cross-checked against the plan.  The sidecar of the CSV stands in for
    parsing it where it may (:func:`_load_parsed`); the checks and their
    errors are the same either way.
    """
    shape = plan.shape
    parsed = _load_parsed(path, {
        "observed": (np.bool_, shape), **dict.fromkeys(_BIT_TABLES, (np.int8, shape)),
        **dict.fromkeys(_THETA_TABLES, (np.float64, shape)),
        "fold_u": (np.intp, shape[:1]), "fold_v": (np.intp, shape[1:]),
    })
    try:
        if parsed is None:
            dtype = list(zip(_DATASET_COLUMNS, [np.intp] * 4 + [np.int8] * 6 + [np.float64] * 2))
            table = _read_csv(path, "dataset CSV", dtype, _DATASET_COLUMNS)
            u, v, fold_u, fold_v = (table[c] for c in _DATASET_COLUMNS[:4])
            ds = FeedbackDataset.from_columns(
                plan, u, v, **{c: table[c] for c in _DATASET_COLUMNS[4:]})
        else:  # the fold labels of the users that the CSV's rows name
            u = np.flatnonzero(parsed["observed"].any(axis=1))
            v = np.flatnonzero(parsed["observed"].any(axis=0))
            fold_u, fold_v = parsed.pop("fold_u")[u], parsed.pop("fold_v")[v]
            ds = FeedbackDataset(fold_plan=plan, **parsed)
    except (ContractViolation, AssumptionViolationError) as exc:
        raise DataFormatError(f"dataset CSV: {exc}") from None
    if len(ds) and (
        not np.array_equal(_fold_index(plan.proactive_folds)[u], fold_u)
        or not np.array_equal(_fold_index(plan.reactive_folds)[v], fold_v)
    ):
        raise DataFormatError("dataset CSV: fold labels do not match the fold plan")
    return ds


def save_fold_plan(plan: FoldPlan, path) -> None:
    save_record(plan, path)


def load_fold_plan(path) -> FoldPlan:
    return load_record(FoldPlan, path, "fold-plan JSON")


def save_exposure(exposure: ExposureModel, path) -> None:
    save_record(exposure, path)


def load_exposure(path) -> ExposureModel:
    return load_record(ExposureModel, path, "exposure JSON")


def save_side_assignment(assignment: SideAssignment, path) -> None:
    save_record(assignment, path)


def load_side_assignment(path) -> SideAssignment:
    return load_record(SideAssignment, path, "side-assignment JSON")
