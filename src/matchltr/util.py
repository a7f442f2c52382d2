"""Shared helpers that need no numpy: the error classes, seed derivation, forked
workers, atomic and forked block writes, text and JSON I/O, the JSON and CSV record
codecs, evaluation reports, file digests, float formatting.  ``report`` and
``--help`` run on this alone."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import astuple, dataclass, fields
from functools import partial

from . import _lazy

# the sigmoid and the array codec need numpy, so they live in core; these names reach them
_, __getattr__ = _lazy(__name__, {"core": "read_arrays sigmoid write_arrays"})


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
    (Windows, macOS), inside a forked :class:`Worker`, or while another Python
    thread runs: a forked copy of a threaded process may deadlock on a lock
    that another thread held.  Threads outside Python are not seen, so fork
    with BLAS on one thread, as importing :mod:`matchltr` before numpy arranges.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or _in_worker or threading.active_count() != 1:
        return 1
    return len(affinity(0))


class Worker:
    """``run()`` in a forked child process, as a context manager.

    Pending stdio output is flushed first, so that the child inherits none.
    The child leaves through ``os._exit``, so none of the parent's exit code
    runs twice: with status 0 when ``run`` returns, or 1 after printing the
    traceback of what it raised.  :meth:`wait` reaps the child and returns its
    exit status; on leaving the ``with`` block a child not yet reaped is killed
    and reaped.
    """

    def __init__(self, run):
        for stream in (sys.stdout, sys.stderr):  # None when the fd was closed at start-up
            if stream is not None:
                stream.flush()
        self.pid = os.fork()
        if self.pid == 0:
            _run_worker(run)

    def wait(self) -> int:
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        return status

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self.wait()


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


def write_blocks(path: str | os.PathLike, write_range, n_blocks: int) -> None:
    """Write blocks ``0 .. n_blocks - 1`` of a text file, atomically.

    ``write_range(fh, lo, hi)`` writes blocks ``lo`` to ``hi - 1`` to the text
    file ``fh``.  The blocks are cut into one contiguous range per usable core
    (:func:`usable_cores`, at most one per block).  This process writes the
    first range; each other range is written by a forked :class:`Worker` into
    a ``.part-`` file beside ``path`` and appended in order, so the bytes are
    those of one serial call.  A worker that fails raises
    :class:`MatchLtrError` naming ``path``; on any error every worker is
    killed and reaped and no part or target file is left.
    """
    workers = max(1, min(usable_cores(), n_blocks))
    cuts = [n_blocks * i // workers for i in range(workers + 1)]
    with atomic_open(path, "w") as fh, ExitStack() as stack:
        directory = os.path.dirname(os.fspath(path)) or "."
        parts = []
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            fd, part = tempfile.mkstemp(dir=directory, prefix=".part-", suffix="~")
            stack.callback(os.unlink, part)
            try:
                worker = stack.enter_context(
                    Worker(partial(_write_part, fd, fh.encoding, write_range, lo, hi)))
            finally:
                os.close(fd)
            parts.append((worker, part))
        write_range(fh, cuts[0], cuts[1])
        fh.flush()
        for worker, part in parts:
            status = worker.wait()
            if status != 0:
                raise MatchLtrError(
                    f"writing {os.fspath(path)}: a worker exited with status {status}")
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh.buffer)


def _write_part(fd: int, encoding: str, write_range, lo: int, hi: int) -> None:
    """A forked worker of :func:`write_blocks`: write blocks ``lo .. hi - 1`` to ``fd``."""
    with open(fd, "w", encoding=encoding, newline="") as out:
        write_range(out, lo, hi)


@contextmanager
def open_csv(path: str | os.PathLike, what: str, header):
    """Open a CSV file whose line 1 must be ``header``; yield a reader of the rest.

    A wrong header, bytes that do not decode as text, or a row that the CSV
    reader rejects raise :class:`DataFormatError` naming ``what``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(header):
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
