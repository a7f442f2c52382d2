"""Domain types for two-sided matching markets.

A market has a proactive side (users who browse and select first) and a
reactive side (users who respond to selections).  Everything downstream --
simulation, estimators, rankers -- is expressed over these types.  This module
also holds the numpy helpers that several layers share: the sigmoid and the
binary array codec.  The error classes live in :mod:`matchltr.util`, which
needs no numpy, and are re-exported here.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .util import (  # the error classes are re-exported
    AssumptionViolationError,
    ContractViolation,
    DataFormatError,
    DivergenceError,
    FoldInfeasibleError,
    InvalidPopulationError,
    MatchLtrError,
    UndefinedAverageError,
    atomic_open,
)


def sigmoid(x, out=None):
    """Logistic function ``1 / (1 + exp(-x))``; saturates to 0 below about -709.

    The result goes into ``out`` when given, which may be ``x`` itself.
    """
    out = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)



@dataclass(frozen=True)
class PreferenceMatrix:
    """Ground-truth mutual preference probabilities between the two sides.

    ``forward[u, v]`` is the probability that proactive user ``u`` finds
    reactive user ``v`` relevant; ``backward[u, v]`` is the probability that
    ``v`` finds ``u`` relevant.  Both matrices are ``n_proactive x n_reactive``
    with entries in [0, 1].
    """

    forward: np.ndarray
    backward: np.ndarray

    def __post_init__(self):
        fwd = np.asarray(self.forward, dtype=np.float64)
        bwd = np.asarray(self.backward, dtype=np.float64)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "backward", bwd)
        if fwd.ndim != 2 or bwd.shape != fwd.shape:
            raise ContractViolation(
                f"forward and backward must be 2-d with identical shape, "
                f"got {fwd.shape} and {bwd.shape}"
            )
        for name, m in (("forward", fwd), ("backward", bwd)):
            if not np.all(np.isfinite(m)):
                raise ContractViolation(f"{name} preferences contain non-finite entries")
            if m.size and (m.min() < 0.0 or m.max() > 1.0):
                raise ContractViolation(f"{name} preferences must lie in [0, 1]")

    @property
    def n_proactive(self) -> int:
        return self.forward.shape[0]

    @property
    def n_reactive(self) -> int:
        return self.forward.shape[1]

    @staticmethod
    def from_square(m: np.ndarray) -> "PreferenceMatrix":
        """View a square all-users preference matrix as a two-sided matrix.

        ``m[i, j]`` is the preference of user ``i`` for user ``j`` over a single
        population; before side assignment every user plays both roles, so the
        forward block is ``m`` itself and the backward block is ``m.T``.
        Restrict with :meth:`restrict` once sides are assigned.
        """
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractViolation(f"expected a square matrix, got shape {m.shape}")
        return PreferenceMatrix(forward=m, backward=m.T.copy())

    def restrict(self, assignment: "SideAssignment") -> "PreferenceMatrix":
        """Select the rows/columns of an all-users matrix for an assignment.

        Only meaningful for matrices built with :meth:`from_square`, where both
        axes still index the original population.
        """
        pro = np.asarray(assignment.proactive_ids)
        rea = np.asarray(assignment.reactive_ids)
        return PreferenceMatrix(
            forward=self.forward[np.ix_(pro, rea)],
            backward=self.backward[np.ix_(pro, rea)],
        )


@dataclass(frozen=True)
class SideAssignment:
    """Partition of an original user population into proactive and reactive sides.

    The tuples hold original population indices; position within a tuple is the
    dense side-local index used everywhere else.
    """

    proactive_ids: tuple[int, ...]
    reactive_ids: tuple[int, ...]

    def __post_init__(self):
        # operator.index rejects 0.7 instead of truncating it
        object.__setattr__(self, "proactive_ids", tuple(map(operator.index, self.proactive_ids)))
        object.__setattr__(self, "reactive_ids", tuple(map(operator.index, self.reactive_ids)))
        overlap = set(self.proactive_ids) & set(self.reactive_ids)
        if overlap:
            raise ContractViolation(f"sides must be disjoint, shared ids: {sorted(overlap)[:5]}")
        n = len(self.proactive_ids) + len(self.reactive_ids)
        if set(self.proactive_ids) | set(self.reactive_ids) != set(range(n)):
            raise ContractViolation("sides must cover the original population 0..n-1 exactly")

    @property
    def n_proactive(self) -> int:
        return len(self.proactive_ids)

    @property
    def n_reactive(self) -> int:
        return len(self.reactive_ids)

    @staticmethod
    def trivial(n_proactive: int, n_reactive: int) -> "SideAssignment":
        """Identity assignment for data born two-sided (e.g. synthetic matrices)."""
        return SideAssignment(
            proactive_ids=tuple(range(n_proactive)),
            reactive_ids=tuple(range(n_proactive, n_proactive + n_reactive)),
        )


@dataclass(frozen=True)
class FoldPlan:
    """Cross-validation folds over both sides, plus the active test fold.

    Each side is partitioned into ``k`` disjoint blocks of side-local indices.
    The test block is the cartesian product of the two ``test_fold`` blocks;
    the validation block is the product of the two ``(test_fold + 1) % k``
    blocks; every remaining pair is training data.
    """

    k: int
    proactive_folds: tuple[tuple[int, ...], ...]
    reactive_folds: tuple[tuple[int, ...], ...]
    test_fold: int = 0

    def __post_init__(self):
        # operator.index rejects 5.0 or 0.7 instead of truncating it
        for name in ("k", "test_fold"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        for name in ("proactive_folds", "reactive_folds"):
            folds = tuple(tuple(map(operator.index, f)) for f in getattr(self, name))
            object.__setattr__(self, name, folds)
        if self.k < 2:
            raise ContractViolation(f"fold count must be >= 2, got {self.k}")
        if len(self.proactive_folds) != self.k or len(self.reactive_folds) != self.k:
            raise ContractViolation("number of blocks must equal k on both sides")
        if not (0 <= self.test_fold < self.k):
            raise ContractViolation(f"test_fold must lie in [0, {self.k}), got {self.test_fold}")
        for name, folds in (("proactive", self.proactive_folds), ("reactive", self.reactive_folds)):
            flat = [i for f in folds for i in f]
            n = len(flat)
            if sorted(flat) != list(range(n)):
                raise ContractViolation(f"{name} blocks must partition 0..{n - 1}")

    @property
    def n_proactive(self) -> int:
        return sum(len(f) for f in self.proactive_folds)

    @property
    def n_reactive(self) -> int:
        return sum(len(f) for f in self.reactive_folds)

    @property
    def validation_fold(self) -> int:
        return (self.test_fold + 1) % self.k

    def with_test_fold(self, test_fold: int) -> "FoldPlan":
        """Same partition, different active test fold."""
        return FoldPlan(
            k=self.k,
            proactive_folds=self.proactive_folds,
            reactive_folds=self.reactive_folds,
            test_fold=test_fold,
        )

    def _block_mask(self, fold: int) -> np.ndarray:
        mask = np.zeros((self.n_proactive, self.n_reactive), dtype=bool)
        rows = np.asarray(self.proactive_folds[fold], dtype=np.intp)
        cols = np.asarray(self.reactive_folds[fold], dtype=np.intp)
        mask[np.ix_(rows, cols)] = True
        return mask

    def test_mask(self) -> np.ndarray:
        """Boolean (n_proactive, n_reactive) matrix marking held-out test pairs."""
        return self._block_mask(self.test_fold)

    def validation_mask(self) -> np.ndarray:
        return self._block_mask(self.validation_fold)

    def train_mask(self) -> np.ndarray:
        return ~(self.test_mask() | self.validation_mask())


@dataclass(frozen=True)
class RankedList:
    """A ranking of reactive users shown to one proactive user, by side-local index.

    Positions are 1-based; ``entries[0]`` is rank 1.
    """

    owner: int
    entries: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "owner", int(self.owner))
        object.__setattr__(self, "entries", tuple(int(j) for j in self.entries))
        if self.owner < 0 or any(j < 0 for j in self.entries):
            raise ContractViolation("ranked-list indices must be non-negative")
        if len(set(self.entries)) != len(self.entries):
            raise ContractViolation("ranked list contains duplicate entries")

    @staticmethod
    def from_indices(owner_index: int, entry_indices) -> "RankedList":
        return RankedList(owner=owner_index, entries=tuple(entry_indices))

    def __len__(self) -> int:
        return len(self.entries)

    def entry_indices(self) -> np.ndarray:
        """Reactive indices in rank order, as an array."""
        return np.array(self.entries, dtype=np.intp)


def write_arrays(path: str | os.PathLike, magic: bytes, header: dict, arrays) -> None:
    """Write ``magic``, ``header`` and then each array's raw C-order bytes, atomically.

    The header is one line of JSON with sorted keys.  Arrays are written in
    their own dtypes, so callers pass explicit byte orders such as ``<f8``;
    the layout has no timestamps, and equal inputs give equal bytes.
    """
    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for array in arrays:
            fh.write(np.ascontiguousarray(array))


def read_arrays(path: str | os.PathLike, magic: bytes, what: str, layout) -> tuple[dict, list]:
    """Read a file written by :func:`write_arrays`: its header and its arrays.

    ``layout(header)`` lists the arrays that follow as ``(name, dtype,
    shape)``.  The arrays are fresh, writable and aligned.  A wrong magic
    line, a header that does not parse or that ``layout`` rejects (with
    ``KeyError``, ``TypeError`` or ``ValueError``), too few bytes for an array
    or bytes after the last raise :class:`DataFormatError` naming ``what``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if line != magic:
            raise DataFormatError(f"{what}: bad magic line {line!r}")
        try:
            header = json.loads(fh.readline().decode("ascii"))
            specs = [(name, np.dtype(dtype), tuple(map(operator.index, shape)))
                     for name, dtype, shape in layout(header)]
            if any(n < 0 for _, _, shape in specs for n in shape):
                raise ValueError("negative array dimension")
        except (KeyError, TypeError, ValueError) as exc:  # json and ascii errors are ValueErrors
            raise DataFormatError(f"{what}: malformed header: {exc}") from None
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, dtype, shape in specs:  # sizes first: a corrupt shape allocates nothing
            left -= math.prod(shape) * dtype.itemsize
            if left < 0:
                raise DataFormatError(f"{what}: truncated table {name}")
        if left:
            raise DataFormatError(f"{what}: trailing bytes after the last table")
        arrays = []
        for name, dtype, shape in specs:
            array = np.empty(shape, dtype)
            if fh.readinto(array.reshape(-1).view(np.uint8)) != array.nbytes:
                raise DataFormatError(f"{what}: truncated table {name}")
            arrays.append(array)
    return header, arrays
