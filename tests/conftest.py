"""Import matchltr before any test module imports numpy, as every matchltr command
does, so that BLAS loads with the package's one-thread defaults and large enough
training runs split over two processes.  A subprocess test in test_cli.py
covers numpy imported first."""

import os

import pytest

import matchltr  # noqa: F401


@pytest.fixture(autouse=True)
def _own_cpus():
    """Give this process its CPU set back after each test.  A forked Worker restores
    the set that ``os.sched_getaffinity`` reported, which a test may have patched."""
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    setaffinity = getattr(os, "sched_setaffinity", None)
    yield
    if cores is not None and setaffinity is not None:
        setaffinity(0, cores)
