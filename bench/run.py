#!/usr/bin/env python3
"""The matchltr benchmark: two workloads against the public API and the CLI.

    python3 bench/run.py --workload grid-200 --seed 7 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports ``matchltr`` from
``src/`` and nowhere else.  Workloads:

- ``grid-200``: in-process ``run_experiment`` on a 200x200 synthetic market
  with the criterion-6 hyperparameters.  The first of the criterion-6
  (eta, fold) cells in a seed-chosen order always runs with all three
  methods; further method cells follow while they fit in the time budget.
  Closed loop, CPU-bound, no file I/O.
- ``cli-500``: ``gen-data -> train -> evaluate -> report`` pipelines at
  500x500, one ``python -m matchltr.cli`` process per stage, through 15 MB
  and 9 MB CSV files.  The first three always run, more while they fit;
  all use the run's seed, so their outputs must be byte-identical.

Every workload reports every end-to-end metric.  The parts a workload is not
about run at a small fixed size as side operations, spread over the run so
that their samples do not all fall into one slow spell of a shared host:
in grid-200 six 100x100 pipelines, in cli-500 twenty-four 60x60 method cells
of 20 epochs, and in both sixteen ``run_verification`` batches of 50
instances at the acceptance shape (up to 4 users x 6 candidates, tolerance
1e-10).  Before any of it is timed, a tiny cell and oracle batch run once
untimed.

Times and rates are reported at nominal host speed.  The machine this was
written on is a 2-vCPU guest of a shared host, where a fixed piece of work
runs at one of two speeds about 1.75 times apart; the host switches between
them many times a second, in a proportion that drifts over minutes, so wall
times of identical runs spread by up to a third.  The benchmark therefore
times a fixed reference slice of its own (``Reference``) after every
operation and child process, divides every time metric by the run's host
factor (mean slice time / ``REF_NOMINAL_S``) and multiplies every rate by
it.  The reference runs no program code, so a change to the program moves
the reported values as much as the measured ones; the measured values are
printed beside them and kept in the result file.

``--trace 1`` instead runs the workload's own unit of work with spans
around the public functions of every layer, between two untraced runs of
it, and reports per-layer metrics (see ``tracing.py``); in grid-200 that unit
includes an oracle batch of 1000 instances, so that the oracle's layers are
traced too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, and the machine.  Outputs
that fail a check count as failed operations.  Temporary files go to
``bench/out/``; the work directories there are removed at the end.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("grid-200", "cli-500")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: the per-user kernels are too small to gain from more, and
# on a shared 2-core machine a second spinning thread makes timings unsteady
BLAS_THREADS = 1
SETUP_REPEATS = 5
HARD_LIMIT_S = 170.0  # a run must exit within 180 s

# criterion-6 experiment
ETAS = (0.5, 1.0)
FOLDS = 5
PLAN_SEED = 0
K = 10
GRID_CELLS = 1  # (eta, fold) cells every grid-200 run runs; its dcg10.ipw2 averages over them
RANK, NOISE = 4, 0.05
# cli pipeline
CLI_K_LIST = (3, 10, 20, 30)
CLI_DIM = 64
STAGES = ("gen-data", "train", "evaluate", "report")
# verify
VERIFY_TOLERANCE = 1e-10

MB = 1e6

# host reference: one slice is REF_ROWS CSV-like rows formatted and parsed in
# Python plus REF_PRODUCTS 160x64 matrix-vector products with a sigmoid.  On
# the 2-vCPU machine the benchmark was written on, a slice took about 20 ms in
# the host's fast state and 35 ms in its slow one, which alternate many times
# a second; REF_NOMINAL_S is about their usual mix.
REF_ROWS = 1200
REF_PRODUCTS = 1200
REF_NOMINAL_S = 0.030


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads' own parts and of the side operations."""

    grid_n: int = 200
    grid_epochs: int = 100
    cli_n: int = 500
    cli_epochs: int = 3
    cli_pipelines: int = 3  # more follow while they fit in the time budget
    trace_verify_instances: int = 1000
    side_grid_n: int = 60
    side_grid_epochs: int = 20
    side_grid_cells: int = 8
    side_cli_n: int = 100
    side_pipelines: int = 6
    side_verify_batch: int = 50
    side_verify_batches: int = 16


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def grid_cells(seed: int) -> list[tuple[float, int]]:
    """The criterion-6 (eta, fold) cells in a seed-fixed order."""
    cells = [(eta, fold) for eta in ETAS for fold in range(FOLDS)]
    random.Random(seed).shuffle(cells)
    return cells


def setup(workload: str, seed: int, sizes: Sizes):
    """Import the package and build the workload's inputs; returns (inputs, seconds)."""
    start = time.perf_counter()
    import matchltr
    from matchltr import TrainConfig, default_method_configs, synth_preferences

    if Path(matchltr.__file__).resolve().parent != SRC / "matchltr":
        raise RuntimeError(f"imported matchltr from {matchltr.__file__}, not from {SRC}")
    full = workload == "grid-200"
    n = sizes.grid_n if full else sizes.side_grid_n
    epochs = sizes.grid_epochs if full else sizes.side_grid_epochs
    inputs = {
        "m": synth_preferences(n, n, rank=RANK, noise=NOISE, seed=seed),
        "cfgs": default_method_configs(TrainConfig(
            dim=64, epochs=epochs, learning_rate=0.2, batch=16, k_valid=K,
        )),
        "cells": grid_cells(seed),
    }
    return inputs, time.perf_counter() - start


def setup_probe(ctx: "Run", sizes: Sizes) -> float:
    """Set-up time measured in a fresh interpreter, as a user pays it."""
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1]]; import run; "
        "print(run.setup(sys.argv[2], int(sys.argv[3]), run.Sizes(**json.loads(sys.argv[4])))[1])"
    )
    log = ctx.work / "setup.log"
    argv = [sys.executable, "-c", code, str(BENCH), ctx.workload, str(ctx.seed),
            json.dumps(asdict(sizes))]
    status, _ = ctx.process(argv, log)
    if status != 0:
        raise RuntimeError(f"set-up probe failed:\n{log.read_text()[-2000:]}")
    return float(log.read_text().split()[-1])


# ---------------------------------------------------------------------------
# run state
# ---------------------------------------------------------------------------

class Run:
    """Samples, operation counts and child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = None
        self.started = time.monotonic()
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.child_rss_mb: list[float] = []
        self.digests: dict[str, str] = {}
        self.notes: list[str] = []
        self.reference = None

    def probe_host(self) -> None:
        """Time one reference slice, once the reference exists."""
        if self.reference is not None:
            self.add("ref_s", self.reference())

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def ops(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} failed: {why}")
            print(f"[bench] FAILED {failed} of {attempted}: {why}", file=sys.stderr)

    def traced(self, name: str, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in THREAD_VARS:
            env[var] = str(BLAS_THREADS)
        return env

    def process(self, argv, log: Path) -> tuple[int, float]:
        """Run a child to completion; returns (exit status, wall seconds)."""
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        with open(log, "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env(), cwd=self.work)
        timer = threading.Timer(max(remaining, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb.append(usage.ru_maxrss * 1024 / MB)
        self.probe_host()
        return proc.returncode, wall


# ---------------------------------------------------------------------------
# grid: one run_experiment method cell per operation
# ---------------------------------------------------------------------------

def discount_sum(depth: int) -> float:
    return sum(1.0 / math.log2(i + 1) for i in range(1, depth + 1))


def grid_ops(ctx: Run, inputs, cells: int, dcg_cells: int = GRID_CELLS) -> list:
    """One operation per (eta, fold, method) cell of the first ``cells`` cells.

    ``dcg10.ipw2`` averages over the first ``dcg_cells`` of them, which must
    always run, so that it depends on the seed alone.

    Calling ``run_experiment`` per method gives the records of a three-method
    call: sampling, training and test-label seeds depend on (eta, fold, method)
    only.  The cell time runs from the call to its ``progress`` callback.
    """
    from matchltr import ExperimentPlan, run_experiment

    m, cfgs = inputs["m"], inputs["cfgs"]
    # +1-floor gains lie in [1, 4]; test folds hold n // FOLDS or one more candidates
    low = discount_sum(min(K, m.n_reactive // FOLDS))
    high = 4 * discount_sum(min(K, -(-m.n_reactive // FOLDS)))

    def op(eta, fold, kind, count_dcg):
        plan = ExperimentPlan(etas=(eta,), folds=FOLDS, k_values=(K,),
                              seeds=(PLAN_SEED,), test_folds=(fold,))
        done = []
        start = time.perf_counter()
        try:
            records = ctx.traced("train.run_experiment", run_experiment)(
                m, plan, {kind: cfgs[kind]}, progress=lambda **_: done.append(time.perf_counter()))
        except Exception:
            traceback.print_exc()
            ctx.ops(1, 1, f"run_experiment raised at eta={eta} fold={fold} {kind.value}")
            return
        if len(done) != 1:
            ctx.ops(1, 1, f"progress was called {len(done)} times for one cell")
            return
        ctx.add("cell_s", done[0] - start)
        ok = (len(records) == 1 and records[0].method == kind.value and records[0].k == K
              and math.isfinite(records[0].dcg_mean) and low <= records[0].dcg_mean <= high)
        ctx.ops(1, 0 if ok else 1,
                f"grid cell eta={eta} fold={fold} {kind.value}: {records}; "
                f"DCG@{K} must lie in [{low:.4f}, {high:.4f}]")
        if ok and count_dcg and kind.value == "ipw2":
            ctx.add("dcg10_ipw2", records[0].dcg_mean)

    return [
        (i < GRID_CELLS, lambda e=eta, f=fold, k=kind, c=i < dcg_cells: op(e, f, k, c))
        for i, (eta, fold) in enumerate(inputs["cells"][:cells])
        for kind in cfgs
    ]


# ---------------------------------------------------------------------------
# cli: gen-data -> train -> evaluate -> report, one process per stage
# ---------------------------------------------------------------------------

def cli_commands(work: Path, n: int, epochs: int, seed: int) -> list[tuple[str, list[str]]]:
    data, model, ev, rep = (str(work / d) for d in ("data", "model", "eval", "report"))
    return [
        ("gen-data", ["gen-data", "--synth", f"{n},{n},{RANK},{NOISE}",
                      "--seed", str(seed), "--out", data]),
        ("train", ["train", "--data", data, "--loss", "ipw2", "--epochs", str(epochs),
                   "--dim", str(CLI_DIM), "--seed", str(seed), "--out", model]),
        ("evaluate", ["evaluate", "--data", data, "--model", f"{model}/checkpoint.bin",
                      "--loss", "ipw2", "--k-list", ",".join(map(str, CLI_K_LIST)),
                      "--seed", str(seed), "--out", ev]),
        ("report", ["report", f"{ev}/eval.csv", "--out", rep]),
    ]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_checkpoint(path: Path, n: int) -> str | None:
    """None if the checkpoint reloads as four n x dim float64 tables, else why not."""
    import numpy as np

    with open(path, "rb") as fh:
        if fh.readline() != b"matchltr-checkpoint v1\n":
            return "bad magic line"
        header = json.loads(fh.readline())
        body = fh.read()
    if (header.get("n_proactive"), header.get("n_reactive"), header.get("dim")) != (n, n, CLI_DIM):
        return f"header {header} does not describe {n}x{n} tables of dim {CLI_DIM}"
    if len(body) != 4 * n * CLI_DIM * 8:
        return f"{len(body)} table bytes, expected {4 * n * CLI_DIM * 8}"
    if not np.all(np.isfinite(np.frombuffer(body, dtype="<f8"))):
        return "non-finite weights"
    return None


def check_eval(path: Path, folds_path: Path) -> str | None:
    """None if eval.csv has one in-bounds row per K, else why not."""
    folds = json.loads(folds_path.read_text())
    n_cands = len(folds["reactive_folds"][folds["test_fold"]])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if sorted(int(r["K"]) for r in rows) != sorted(CLI_K_LIST):
        return f"{len(rows)} rows for K={[r.get('K') for r in rows]}, expected {list(CLI_K_LIST)}"
    for r in rows:
        low = discount_sum(min(int(r["K"]), n_cands))
        value = float(r["dcg_mean"])
        if not (math.isfinite(value) and low <= value <= 4 * low):
            return f"DCG@{r['K']} = {value} outside [{low:.4f}, {4 * low:.4f}]"
    return None


def record_digests(ctx: Run, key: str, digests: dict[str, str]) -> list[str]:
    """Store the digests under ``key``; returns the names that differ from an earlier run."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    previous = known.get(key, {})
    changed = [name for name, value in digests.items()
               if name in previous and previous[name] != value]
    if not changed:
        known[key] = {**previous, **digests}
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)
    ctx.digests.update({f"{key}:{name}": value for name, value in digests.items()})
    return changed


def pipeline_ops(ctx: Run, n: int, epochs: int, label: str, after_stages=None) -> list:
    """One operation per stage, then one that checks the outputs and cleans up."""
    work = ctx.work / label
    log = work / "stages.log"
    status: dict[str, int] = {}
    walls: list[float] = []

    def stage(name, args):
        work.mkdir(parents=True, exist_ok=True)
        if ctx.tracer is None:
            code, wall = ctx.process([sys.executable, "-m", "matchltr.cli", *args], log)
        else:
            spans = work / f"spans-{name}.json"
            argv = [sys.executable, str(BENCH / "stage.py"), str(spans),
                    f"{ctx.tracer.run_id}/{name}", "--", *args]
            with ctx.tracer.span(f"cli.{name}"):
                parent = ctx.tracer.current()
                code, wall = ctx.process(argv, log)
            if spans.exists():
                dumped = json.loads(spans.read_text())
                ctx.tracer.adopt(dumped["spans"], dumped["counts"], parent)
        status[name] = code
        walls.append(wall)
        if name != "report":
            ctx.add(f"{name.replace('-', '_')}_s", wall)

    def finish():
        ctx.add("pipeline_s", sum(walls))
        if after_stages is not None:
            after_stages(work)
        problems = {name: f"exit status {code}" for name, code in status.items() if code != 0}
        data, model, ev = work / "data", work / "model", work / "eval"
        try:
            if "train" not in problems:
                if why := check_checkpoint(model / "checkpoint.bin", n):
                    problems["train"] = f"checkpoint: {why}"
            if "evaluate" not in problems:
                if why := check_eval(ev / "eval.csv", data / "folds.json"):
                    problems["evaluate"] = f"eval.csv: {why}"
            if "report" not in problems and not (work / "report" / "report_by_fold.csv").exists():
                problems["report"] = "no report_by_fold.csv"
            digests = {}
            if "gen-data" not in problems:
                digests["dataset.csv"] = sha256(data / "dataset.csv")
            if "train" not in problems:
                digests["checkpoint.bin"] = sha256(model / "checkpoint.bin")
            for name in record_digests(ctx, f"cli:n={n}:epochs={epochs}:seed={ctx.seed}", digests):
                problems["gen-data" if name == "dataset.csv" else "train"] = (
                    f"{name} digest differs from an earlier run with seed {ctx.seed}")
        except (OSError, ValueError, KeyError) as exc:
            problems.setdefault("evaluate", f"output check raised {exc!r}")
        if problems:
            print(log.read_text()[-3000:], file=sys.stderr)
        ctx.ops(len(STAGES), len(problems),
                "; ".join(f"{name}: {why}" for name, why in problems.items()))
        shutil.rmtree(work, ignore_errors=True)

    ops = [lambda s=name, a=args: stage(s, a)
           for name, args in cli_commands(work, n, epochs, ctx.seed)]
    return ops + [finish]


# ---------------------------------------------------------------------------
# verify: exact-oracle batches
# ---------------------------------------------------------------------------

def verify_op(ctx: Run, batch: int, index: int):
    from matchltr import run_verification

    def op():
        start = time.perf_counter()
        try:
            report = ctx.traced("verify.run_verification", run_verification)(
                trials=batch, max_users=4, max_candidates=6,
                tolerance=VERIFY_TOLERANCE, seed=ctx.seed * 1_000_003 + index)
        except Exception:
            traceback.print_exc()
            ctx.ops(batch + 1, batch + 1, f"run_verification raised on batch {index}")
            return
        ctx.add("verify_s", time.perf_counter() - start)
        ctx.add("verify_instances", batch)
        bad = len(report.failures)
        if report.max_abs_error["ipw2"] > VERIFY_TOLERANCE or not report.passed:
            bad = max(bad, 1)
        witness_bad = not (report.witness.expected["naive"] == 1.0 and report.witness.truth == 3.0)
        if ctx.tracer is not None:
            ctx.tracer.counts["failures"] += bad
        ctx.ops(batch + 1, bad + witness_bad,
                f"verify batch {index}: {len(report.failures)} instances beyond tolerance, "
                f"max ipw2 error {report.max_abs_error['ipw2']:.3e}, witness naive "
                f"{report.witness.expected['naive']} vs truth {report.witness.truth}")

    return op


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------

def blas_threads_in_effect() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "matchltr").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads_in_effect(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def end_to_end(ctx: Run) -> dict[str, tuple[float, str, int]]:
    """The end-to-end metrics as (value, unit, sample count)."""
    s = ctx.samples
    med = statistics.median
    return {
        "setup_s": (med(s["setup_s"]), "s", len(s["setup_s"])),
        "peak_rss_mb": (max(s["rss_mb"]), "MB", len(s["rss_mb"])),
        "cells_per_min": (60.0 * len(s["cell_s"]) / sum(s["cell_s"]), "1/min", len(s["cell_s"])),
        "cell_s.p50": (med(s["cell_s"]), "s", len(s["cell_s"])),
        "dcg10.ipw2": (statistics.fmean(s["dcg10_ipw2"]), "DCG", len(s["dcg10_ipw2"])),
        "pipeline_s": (med(s["pipeline_s"]), "s", len(s["pipeline_s"])),
        "gen_data_s": (med(s["gen_data_s"]), "s", len(s["gen_data_s"])),
        "train_s": (med(s["train_s"]), "s", len(s["train_s"])),
        "evaluate_s": (med(s["evaluate_s"]), "s", len(s["evaluate_s"])),
        "verify_per_s": (sum(s["verify_instances"]) / sum(s["verify_s"]), "1/s",
                         len(s["verify_s"])),
    }


def host_factor(ctx: Run) -> float:
    """How much slower than nominal the host ran: mean reference slice / REF_NOMINAL_S.

    The mean, not the median: the host switches between a fast and a slow
    state, and an operation of a second or more runs at the time-weighted
    mix of the two, which the mean of many short slices estimates.
    """
    return statistics.fmean(ctx.samples["ref_s"]) / REF_NOMINAL_S


def at_nominal_speed(metrics, factor: float) -> dict[str, tuple[float, str, int]]:
    """Times divided and rates multiplied by the host factor; other metrics unchanged."""
    scale = {"s": 1.0 / factor, "1/min": factor, "1/s": factor}
    return {name: (value * scale.get(unit, 1.0), unit, n)
            for name, (value, unit, n) in metrics.items()}


def own_ops(ctx: Run, workload: str, inputs, sizes: Sizes, after_stages=None):
    """The workload's own operations as (required, op); optional ones run while they fit."""
    if workload == "grid-200":
        return grid_ops(ctx, inputs, len(inputs["cells"]))

    def pipeline(index):
        for op in pipeline_ops(ctx, sizes.cli_n, sizes.cli_epochs, f"pipeline-{index}",
                               after_stages):
            op()

    return ((index < sizes.cli_pipelines, lambda i=index: pipeline(i))
            for index in itertools.count())


def side_ops(ctx: Run, workload: str, inputs, sizes: Sizes) -> list:
    """Small-size operations of the other workload and the oracle, interleaved by kind."""
    if workload == "grid-200":
        other = [op for r in range(sizes.side_pipelines)
                 for op in pipeline_ops(ctx, sizes.side_cli_n, sizes.cli_epochs, f"side-{r}")]
    else:
        other = [op for _, op in grid_ops(ctx, inputs, sizes.side_grid_cells,
                                          dcg_cells=sizes.side_grid_cells)]
    oracle = [verify_op(ctx, sizes.side_verify_batch, b) for b in range(sizes.side_verify_batches)]
    return [op for group in itertools.zip_longest(other, oracle) for op in group if op is not None]


class Reference:
    """A fixed slice of work that belongs to the benchmark, not to the program.

    It mixes the two kinds of work the program spends its time on: float
    formatting and parsing in Python, and small matrix-vector products.  Timed
    between the operations of a run, its mean says how fast the shared host ran
    during that run; no change to the program can change it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.rows = rng.random((REF_ROWS, 8)).tolist()
        self.w = rng.random((160, 64))
        self.v = rng.random(64)

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        text = "\n".join(",".join(f"{x:.17g}" for x in row) for row in self.rows)
        total = sum(float(x) for line in text.split("\n") for x in line.split(","))
        for _ in range(REF_PRODUCTS):
            total += float((1.0 / (1.0 + np.exp(-(self.w @ self.v)))).sum())
        if not math.isfinite(total):
            raise RuntimeError("reference slice computed a non-finite sum")
        return time.perf_counter() - start


def warm_up() -> None:
    """One tiny cell and oracle batch, untimed, so that lazy imports and first-call
    costs fall outside the measured part."""
    from matchltr import (ExperimentPlan, TrainConfig, default_method_configs,
                          run_experiment, run_verification, synth_preferences)

    cfgs = default_method_configs(TrainConfig(dim=8, epochs=1, batch=16, k_valid=K))
    run_experiment(synth_preferences(30, 30, rank=RANK, noise=NOISE, seed=0),
                   ExperimentPlan(etas=(ETAS[0],), folds=FOLDS, k_values=(K,),
                                  seeds=(PLAN_SEED,), test_folds=(0,)), cfgs)
    run_verification(trials=5, max_users=4, max_candidates=6,
                     tolerance=VERIFY_TOLERANCE, seed=0)


def measure(ctx: Run, workload: str, inputs, seconds: float, sizes: Sizes, after_stages) -> None:
    """Untraced run: own operations until the deadline, side operations spread among them."""
    start = time.perf_counter()
    deadline = start + seconds
    side = side_ops(ctx, workload, inputs, sizes)
    spacing = seconds / max(len(side), 1)
    done = 0
    last = 0.0
    for required, op in own_ops(ctx, workload, inputs, sizes, after_stages):
        now = time.perf_counter()
        if not required and now + last > deadline:
            break
        op()
        last = time.perf_counter() - now
        ctx.probe_host()
        while done < len(side) and time.perf_counter() >= start + done * spacing:
            side[done]()
            ctx.probe_host()
            done += 1
    for op in side[done:]:
        op()
        ctx.probe_host()


def traced(ctx: Run, workload: str, inputs, sizes: Sizes, after_stages):
    """The workload's unit of work untraced, traced, then untraced again; returns
    per-layer metrics of the traced pass.  Its overhead is measured against the
    mean of the two untraced passes, which cancels a steady drift of the host."""
    import tracing

    def once(label):
        if workload == "grid-200":
            ops = [op for _, op in grid_ops(ctx, inputs, 1)]
            ops.append(verify_op(ctx, sizes.trace_verify_instances, 0))
        else:
            ops = pipeline_ops(ctx, sizes.cli_n, sizes.cli_epochs, label, after_stages)
        start = time.perf_counter()
        for op in ops:
            op()
        return start, time.perf_counter()

    before = once("untraced-1")
    ctx.tracer = tracing.Tracer(f"{workload}/seed={ctx.seed}")
    with tracing.installed(ctx.tracer):
        wall = once("traced")
    tracer, ctx.tracer = ctx.tracer, None
    after = once("untraced-2")
    tracer.dump(OUT / f"spans-{workload}-seed{ctx.seed}.json")
    layer = tracing.per_layer(tracer.spans, tracer.counts, wall)
    untraced_s = (before[1] - before[0] + after[1] - after[0]) / 2
    layer["trace.overhead_share"] = ((wall[1] - wall[0] - untraced_s) / untraced_s, "share")
    return {name: (value, unit, 1) for name, (value, unit) in layer.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = Sizes(), after_stages=None) -> dict:
    """Run one workload; returns the result with metrics as (value, unit, samples).

    ``after_stages(work_dir)`` is called after each pipeline of the workload's
    own part and before its outputs are checked.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Run(workload, seed, work)
    measured = {}
    factor = None
    try:
        inputs, setup_s = setup(workload, seed, sizes)
        if trace:
            metrics = traced(ctx, workload, inputs, sizes, after_stages)
        else:
            ctx.add("setup_s", setup_s)
            ctx.reference = Reference()
            for _ in range(SETUP_REPEATS - 1):
                ctx.add("setup_s", setup_probe(ctx, sizes))
            warm_up()
            measure(ctx, workload, inputs, seconds, sizes, after_stages)
            ctx.samples["rss_mb"] = [
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
                *ctx.child_rss_mb,
            ]
            measured = end_to_end(ctx)
            factor = host_factor(ctx)
            metrics = at_nominal_speed(measured, factor)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed,
        "metrics": metrics, "measured": measured, "host_factor": factor,
        "digests": ctx.digests, "notes": ctx.notes,
        "samples": ctx.samples, "machine": machine(seed), "sizes": asdict(sizes),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def report(result: dict) -> None:
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"seconds {result['seconds']} trace {result['trace']}")
    for name, digest in sorted(result["digests"].items()):
        print(f"# sha256 {name} {digest}")
    if result["host_factor"] is not None:
        print(f"# host factor {result['host_factor']:.4f}: times divided and rates multiplied "
              f"by it give the values at nominal host speed; 'measured' is before that")
    measured = result["measured"]
    print(f"{'metric':<34} {'value':>14} {'unit':<8} {'samples':>7}"
          + (f" {'measured':>14}" if measured else ""))
    rows = dict(result["metrics"])
    rows["fail_share"] = (result["failed"] / result["attempted"], "share", result["attempted"])
    for name, (value, unit, n) in rows.items():
        print(f"{name:<34} {value:>14.6g} {unit:<8} {n:>7}"
              + (f" {measured.get(name, (value,))[0]:>14.6g}" if measured else ""))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matchltr" / "__init__.py").is_file():
        print(f"error: no matchltr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
