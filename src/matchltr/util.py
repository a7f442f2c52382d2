"""Small shared helpers: seed derivation, the sigmoid, atomic and forked block writes,
text and JSON I/O, the JSON and CSV record codecs, the binary array codec, file
digests, float formatting."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import os
import shutil
import signal
import sys
import tempfile
import threading
import traceback
from contextlib import contextmanager
from dataclasses import astuple, fields

import numpy as np

from .core import DataFormatError, MatchLtrError

_SEED_MOD = 2**32


def derive_seed(master: int, label: str) -> int:
    """Derive a named 32-bit sub-seed from a master seed.

    The derivation is a stable hash of ``"<master>:<label>"``, so every
    component (side split, folds, sampling, init, test labels, ...) gets an
    independent, reproducible stream regardless of call order.
    """
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MOD


def sigmoid(x, out=None):
    """Logistic function ``1 / (1 + exp(-x))``; saturates to 0 below about -709.

    The result goes into ``out`` when given, which may be ``x`` itself.
    """
    out = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


@contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "w"):
    """Write to a temp file in the target directory, then rename into place.

    A partially written file never becomes visible under the final name.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode, newline="" if "b" not in mode else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_blocks(path: str | os.PathLike, write_range, n_blocks: int) -> None:
    """Write blocks ``0 .. n_blocks - 1`` of a text file, atomically.

    ``write_range(fh, lo, hi)`` writes blocks ``lo`` to ``hi - 1`` to the text
    file ``fh``.  The blocks are cut into one contiguous range per usable core
    (at most one per block).  This process writes the first range; each other
    range is written by a forked worker into a ``.part-`` file beside ``path``
    and appended in order, so the bytes are those of one serial call.  A
    worker that fails raises :class:`MatchLtrError` naming ``path``; on any
    error every worker is killed and reaped and no part or target file is left.

    A forked copy of a threaded process may deadlock on a lock that another
    thread held, so while another Python thread runs there is one range and
    no fork.  Threads outside Python are not seen: call this with BLAS on one
    thread, as importing :mod:`matchltr` before numpy arranges.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # absent on Windows and macOS
    cores = len(affinity(0)) if affinity and threading.active_count() == 1 else 1
    workers = max(1, min(cores, n_blocks))
    cuts = [n_blocks * i // workers for i in range(workers + 1)]
    with atomic_open(path, "w") as fh:
        for stream in (sys.stdout, sys.stderr):  # a worker inherits no pending output
            stream.flush()
        directory = os.path.dirname(os.fspath(path)) or "."
        pids, parts = [], []
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                fd, part = tempfile.mkstemp(dir=directory, prefix=".part-", suffix="~")
                parts.append(part)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _write_part(fd, fh.encoding, write_range, lo, hi)
                finally:
                    os.close(fd)
                pids.append(pid)
            write_range(fh, cuts[0], cuts[1])
            fh.flush()
            for part in parts:
                status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                del pids[0]
                if status != 0:
                    raise MatchLtrError(
                        f"writing {os.fspath(path)}: a worker exited with status {status}")
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for part in parts:
                os.unlink(part)


def _write_part(fd: int, encoding: str, write_range, lo: int, hi: int) -> None:
    """A forked worker of :func:`write_blocks`: write blocks ``lo .. hi - 1`` to ``fd``.

    It leaves through ``os._exit``, so none of the parent's exit code runs twice.
    """
    status = 1
    try:
        with open(fd, "w", encoding=encoding, newline="") as out:
            write_range(out, lo, hi)
        status = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


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
        payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
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
