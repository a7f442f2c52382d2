"""Import matchltr before any test module imports numpy, as every matchltr command
does, so that BLAS loads with the package's one-thread defaults and large enough
training runs split over two processes.  A subprocess test in test_cli.py
covers numpy imported first."""

import matchltr  # noqa: F401
