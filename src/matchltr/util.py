"""Small shared helpers: seed derivation, the sigmoid, atomic writes, text and JSON I/O,
the JSON record codec, float formatting."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import fields

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


def sigmoid(x):
    """Logistic function ``1 / (1 + exp(-x))``; saturates to 0 below about -709."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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


@contextmanager
def open_text(path: str | os.PathLike, what: str):
    """Open a text file for reading, e.g. with :func:`csv.reader`.

    Bytes that do not decode as text, or that the CSV reader rejects, raise
    :class:`DataFormatError` naming ``what`` and the file.
    """
    with open(path, newline="") as fh:
        try:
            yield fh
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
