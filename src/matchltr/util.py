"""Shared helpers that need no numpy: the error classes, the method names (loss
and estimator kinds), seed derivation, forked workers, atomic writes, text and
JSON I/O, the JSON and CSV record codecs, evaluation reports, file digests,
float formatting.  ``report`` and ``--help`` run on this alone."""

from __future__ import annotations

import csv
import enum
import hashlib
import json
import math
import os
import signal
import sys
import threading
import traceback
from contextlib import contextmanager, suppress
from dataclasses import astuple, dataclass, fields
from functools import cache

from . import _BLAS_ONE_THREAD


class MatchLtrError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(MatchLtrError):
    """An argument violated a documented precondition."""


class InvalidPopulationError(MatchLtrError, ValueError):
    """A population is too small to be split into two sides."""


class FoldInfeasibleError(MatchLtrError, ValueError):
    """A side has fewer users than the requested number of folds."""


class AssumptionViolationError(MatchLtrError, ValueError):
    """An exposure probability left the required (0, 1] range."""


class UndefinedAverageError(MatchLtrError, ValueError):
    """A per-user average was requested over an empty user set."""


class DataFormatError(MatchLtrError, ValueError):
    """A file did not parse against its documented schema."""


class DivergenceError(MatchLtrError, RuntimeError):
    """Training produced a non-finite loss."""


class EstimatorKind(enum.Enum):
    """Which plug-in estimator of the ranking metric to evaluate."""

    NAIVE = "naive"
    IPW1 = "ipw1"
    IPW2 = "ipw2"


class LossKind(enum.Enum):
    """Training-loss variant, in report column order; each pairs with a validation
    estimator."""

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


_SEED_MOD = 2**32


def derive_seed(master: int, label: str) -> int:
    """Derive a named 32-bit sub-seed from a master seed.

    The derivation is a stable hash of ``"<master>:<label>"``, so every
    component (side split, folds, sampling, init, test labels, ...) gets an
    independent, reproducible stream regardless of call order.
    """
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MOD



def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


@cache
def _float_tables():
    """The byte tables of :func:`format_float_rows`, built on first use."""
    import numpy as np

    heads = [b"0." + b"0" * zeros + b"%d" % lead for zeros in range(4) for lead in range(10)]
    heads = b"".join(h.rjust(8, b"\0") for h in heads + [b"0.0", b"1.0"])
    return (np.frombuffer(heads, np.uint64),
            (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(
                np.uint8).view(np.uint32).ravel(),
            np.frombuffer(b"".join(b"\xff" * (16 - cut) + b"\0" * cut for cut in range(17)),
                          np.uint64).reshape(17, 2),
            np.frombuffer(b",\0\0\0\0\0\0\0\r\n\0\0\0\0\0\0", np.uint64),
            np.array([10**j for j in range(17)], np.uint64),
            np.array([5**k for k in range(17, 21)], np.uint64))


def format_float_rows(table) -> str:
    """CSV text of a 2-d float64 table: each cell :func:`format_float`, cells
    joined by ``,``, every row ending in CRLF.

    Finite ``x`` in [1e-4, 1), powers of two aside, gets repr's digits from
    exact integer arithmetic (Steele & White 1990; Adams 2018).  With
    ``x * 10**k = q + r / 2**s`` and ``k = 16 + zeros``, the 17-digit integers
    that read back as ``x`` run from ``lo`` to ``hi``; the digits are the
    multiple of ``10**cut`` nearest ``x * 10**k`` for the largest ``cut`` with a
    multiple in that range.  Exact ties between two multiples and all other
    values but 0.0 and 1.0 go through ``repr``.  Integers stay unsigned with
    ``np.uint64`` scalars (uint64 mixed with int64 gives float64), and
    remainders are ``a - a // c * c`` (``%`` divides in hardware).
    """
    import numpy as np

    heads, digits, tails, separators, tens, fives = _float_tables()
    u64 = np.uint64
    values = np.ascontiguousarray(table, np.float64)
    n, n_cols = values.size, values.shape[1]
    flat = values.ravel()
    bits = flat.view(u64)
    fast = (bits >= np.float64(1e-4).view(u64)) & (bits < np.float64(1.0).view(u64)) & (
        bits & u64(2**52 - 1) != 0)
    x = np.where(fast, flat, 0.1 + 0.2)  # off the path: 17 digits end the scan at once
    zeros = (x < 0.1).view(np.uint8) + (x < 0.01).view(np.uint8) + (x < 0.001).view(np.uint8)
    five = fives[zeros]  # P = m * 5**k = x * 10**k * 2**s, in two 64-bit limbs
    m = (x.view(u64) & u64(2**52 - 1)) | u64(2**52)
    s = u64(1058) - (x.view(u64) >> u64(52)) - zeros  # 36 .. 46
    low32 = u64(2**32 - 1)
    m_hi, m_lo, f_hi, f_lo = m >> u64(32), m & low32, five >> u64(32), five & low32
    low, mid = m_lo * f_lo, m_hi * f_lo + m_lo * f_hi
    p_lo = low + (mid << u64(32))
    q = ((m_hi * f_hi + (mid >> u64(32)) + (p_lo < low)) << (u64(64) - s)) | (p_lo >> s)
    one_s, half_five = u64(1) << s, five >> u64(1)
    r = p_lo & (one_s - u64(1))  # x * 10**k = q + r / 2**s
    lo, hi = q + u64(1) - ((half_five + one_s - r) >> s), q + ((r + half_five) >> s)
    cut = np.zeros(n, np.uint8)
    for p in tens[1:]:
        ok = hi // p * p >= lo
        if not ok.any():
            break
        cut += ok
    p = tens[cut]
    base = q // p * p
    rest, half, r_half = q - base, p >> u64(1), (one_s >> u64(1)) * (cut == 0)
    out = base + p * ((rest > half) | (rest == half) & (r > r_half))  # <= hi < 10**17: no carry
    top = out // u64(10**8)
    lead = top // u64(10**8)
    head = zeros * np.uint8(10) + lead.astype(np.uint8)
    zero, one = bits == u64(0), bits == np.float64(1.0).view(u64)
    head[zero], head[one], cut[zero | one] = 40, 41, 16
    cells = np.empty((n, 32), np.uint8)  # head, 16 digits, separator: 8 bytes each
    words, quads = cells.view(u64), cells.view(np.uint32)
    words[:, 0] = heads[head]
    for at, group in ((2, (top - lead * u64(10**8)).astype(np.uint32)),
                      (4, (out - top * u64(10**8)).astype(np.uint32))):
        quads[:, at] = digits[group // np.uint32(10**4)]
        quads[:, at + 1] = digits[group - group // np.uint32(10**4) * np.uint32(10**4)]
    words[:, 1:3] &= np.take(tails, cut, axis=0)
    words[:, 3] = separators[0]
    words[n_cols - 1::n_cols, 3] = separators[1]
    slow = np.flatnonzero(~fast & ~zero & ~one | fast & (rest == half) & (r == r_half))
    cells[slow, :24] = np.array(list(map(repr, flat[slow].tolist())), "S24").view(
        np.uint8).reshape(-1, 24)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


@contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "w"):
    """Write to a temp file in the target directory, then rename into place.

    A partially written file never becomes visible under the final name.  The
    file is created as ``open`` creates one, so its mode is 0666 less the umask
    (``mkstemp`` would make it 0600).
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
        try:
            fh = open(tmp, mode.replace("w", "x"), newline="" if "b" not in mode else None)
            break
        except FileExistsError:
            continue
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_in_worker = False  # set in a forked worker, so that splits never nest


def usable_cores() -> int:
    """How many cores this process may split work over by forking.

    The cores ``sched_getaffinity`` lists, or 1 where that call is missing
    (Windows, macOS), inside a forked :class:`Worker`, while another Python
    thread runs, or while BLAS runs more than one thread (``_BLAS_ONE_THREAD``
    false): a forked copy of a threaded process may deadlock on a lock that
    another thread held.  Importing :mod:`matchltr` before numpy sets one BLAS thread.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or _in_worker or threading.active_count() != 1 or not _BLAS_ONE_THREAD:
        return 1
    return len(affinity(0))


class Worker:
    """``run()`` in a forked child process, as a context manager.

    Pending stdio output is flushed first, so that the child inherits none.
    The child leaves through ``os._exit``, so none of the parent's exit code
    runs twice: with status 0 when ``run`` returns, or 1 after printing the
    traceback of what it raised.  :meth:`wait` reaps the child and returns its
    exit status; on leaving the ``with`` block a child not yet reaped is killed
    and reaped.  Until then, with two or more CPUs in this process's affinity
    set, the child runs on the last of them and this process on the rest: a
    scheduler that does not balance load (a cpuset with ``sched_load_balance``
    off) may otherwise keep both on one CPU.  Where ``sched_setaffinity`` is
    missing or refuses, nothing is pinned.
    """

    def __init__(self, run):
        for stream in (sys.stdout, sys.stderr):  # None when the fd was closed at start-up
            if stream is not None:
                stream.flush()
        self.pid = os.fork()
        if self.pid == 0:
            _run_worker(run)
        self._cores = _split_cores(self.pid)

    def wait(self) -> int:
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if self._cores is not None:
            with suppress(OSError):
                os.sched_setaffinity(0, self._cores)
        return status

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self.wait()


def _split_cores(pid: int):
    """Pin ``pid`` to the last CPU of this process's set and this process to the
    others; returns the set to restore, or None where nothing was pinned."""
    try:
        cores = sorted(os.sched_getaffinity(0))
        if len(cores) < 2:
            return None
        os.sched_setaffinity(pid, cores[-1:])
        os.sched_setaffinity(0, cores[:-1])
    except (AttributeError, OSError):  # missing on Windows and macOS
        return None
    return cores


def _run_worker(run) -> None:
    global _in_worker
    _in_worker = True
    status = 1
    try:
        run()
        status = 0
    except Exception:
        traceback.print_exc()
        if sys.stderr is not None:
            sys.stderr.flush()
    finally:
        os._exit(status)


@contextmanager
def open_csv(path: str | os.PathLike, what: str, header):
    """Open a CSV file and yield its reader, past line 1 when that must be ``header``.

    A wrong header, bytes that do not decode as text, or a row that the CSV
    reader rejects raise :class:`DataFormatError` naming ``what``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if header is not None and next(reader, None) != list(header):
                raise DataFormatError(f"{what}: line 1: expected header {','.join(header)}")
            yield reader
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"{what} {os.fspath(path)}: {exc}") from None


def read_json(path: str | os.PathLike, what: str) -> dict:
    """Load a file holding one JSON object.

    A file that does not decode as text, does not parse, or holds anything
    but an object raises :class:`DataFormatError` naming ``what``.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise DataFormatError(f"{what}: {exc}") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"{what}: expected a JSON object, got {type(payload).__name__}")
    return payload


def write_json(path: str | os.PathLike, payload: dict) -> None:
    """Write one JSON object atomically, indented, keys sorted, newline-terminated."""
    with atomic_open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_record(record, path: str | os.PathLike) -> None:
    """Write a dataclass as one JSON object keyed by its field names.

    Arrays are written as nested lists; tuples become JSON arrays.
    """
    payload = {}
    for f in fields(record):
        value = getattr(record, f.name)
        payload[f.name] = value.tolist() if hasattr(value, "tolist") else value
    write_json(path, payload)


def load_record(cls, path: str | os.PathLike, what: str):
    """Build the dataclass ``cls`` from a JSON object holding one value per field.

    Keys that are not fields are ignored.  A missing field, or a value that
    ``cls`` rejects, raises :class:`DataFormatError` naming ``what``.
    """
    payload = read_json(path, what)
    try:
        return cls(**{f.name: payload[f.name] for f in fields(cls)})
    except (KeyError, TypeError, ValueError, MatchLtrError) as exc:
        raise DataFormatError(f"{what}: {exc}") from None


def file_sha256(path: str | os.PathLike) -> str:
    """Hex sha256 of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_csv(path: str | os.PathLike, header, rows) -> None:
    """Write a header line and then one CSV row per sequence of cells, atomically."""
    with atomic_open(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cell_types(cls) -> list:
    """Each field's type; annotations may be strings (PEP 563)."""
    types = {"int": int, "float": float, "str": str}
    return [types[getattr(f.type, "__name__", f.type)] for f in fields(cls)]


def save_rows(records, header, path: str | os.PathLike) -> None:
    """Write dataclass records as CSV: ``header``, then one column per field in order.

    Float fields are written with :func:`format_float`, the others with ``str``.
    """
    write_csv(path, header, ([format_float(v) if kind is float else v
                              for kind, v in zip(_cell_types(type(r)), astuple(r))]
                             for r in records))


def load_rows(cls, header, path: str | os.PathLike, what: str) -> list:
    """Read the CSV that :func:`save_rows` writes back into ``cls`` records.

    The header must equal ``header``; blank lines are skipped.  Each row has
    one cell per field, parsed by the field's annotation (``int``, ``float``
    or ``str``); numbers hold no ``_`` and floats are finite.  Any fault raises
    :class:`DataFormatError` naming ``what``, the 1-based line and the column.
    """
    kinds = _cell_types(cls)
    records = []
    with open_csv(path, what, header) as reader:
        for row in filter(None, reader):
            where = f"{what}: line {reader.line_num}"
            if len(row) != len(kinds):
                raise DataFormatError(f"{where}: expected {len(kinds)} columns, got {len(row)}")
            values = []
            for column, kind, cell in zip(header, kinds, row):
                try:
                    if kind is not str and "_" in cell:  # int() and float() accept 1_0
                        raise ValueError(f"digit-group underscore in {cell!r}")
                    values.append(kind(cell))
                except ValueError as exc:
                    raise DataFormatError(f"{where}: {column}: {exc}") from None
                if kind is float and not math.isfinite(values[-1]):
                    raise DataFormatError(f"{where}: {column} must be finite")
            records.append(cls(*values))
    return records


# ---------------------------------------------------------------------------
# evaluation reports
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = ("fold", "eta", "method", "K", "dcg_mean", "dcg_stderr", "n_users")


@dataclass(frozen=True)
class EvalRecord:
    """One (fold, eta, method, K) cell of an evaluation report."""

    fold: int
    eta: float
    method: str
    k: int
    dcg_mean: float
    dcg_stderr: float
    n_users: int


def save_eval_report(records, path) -> None:
    save_rows(records, _REPORT_COLUMNS, path)


def load_eval_report(path) -> list[EvalRecord]:
    return load_rows(EvalRecord, _REPORT_COLUMNS, path, "eval report CSV")
