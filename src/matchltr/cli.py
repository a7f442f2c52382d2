"""Command-line entry points: gen-data, train, evaluate, verify, report.

gen-data, train and evaluate print the resolved configuration (including all
derived sub-seeds) before doing work and write a ``run.json`` next to their
outputs.  verify prints its configuration (unless replaying) and writes only a
failing instance, when one fails; report does neither.
Exit status: 0 on success, 1 on runtime failure, 2 on usage errors, and 141
(128 + SIGPIPE) when a command that would have succeeded finds stdout's reader gone.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
from pathlib import Path

from . import _BLAS_THREADS, _lazy
from .util import (
    EstimatorKind,
    EvalRecord,
    LossKind,
    MatchLtrError,
    Worker,
    derive_seed,
    format_float,
    load_eval_report,
    read_json,
    save_eval_report,
    usable_cores,
    write_csv,
    write_json,
)

# The library names a command needs beyond util, by module.  Commands call them
# as ``lib.name``, an attribute of this module (``__main__`` under ``python -m``),
# so the first call imports the module and a process loads only what its
# command runs; bench/tracing.py wraps them here.
lib = sys.modules[__name__]
_, __getattr__ = _lazy(__name__, {
    "core": "PreferenceMatrix SideAssignment _real",
    "ranker": "load_model save_model",
    "simulate": """assign_sides exposure_from_popularity load_dataset load_fold_plan
        load_preferences load_square_preferences make_folds sample_dataset save_dataset
        save_exposure save_fold_plan save_preferences save_side_assignment synth_preferences""",
    "train": """TrainConfig labels_sub_seeds save_training_log test_dcg_records train_model
        training_sub_seeds""",
    "verify": "check_instance check_settings load_instance run_verification save_instance",
})

# pairs from which gen-data writes preferences.csv in a forked worker; below
# it a fork costs more than it saves (BENCH_gen_data_split.json)
_FORK_PAIRS = 1 << 16


def _print_config(command: str, config: dict, sub_seeds: dict) -> None:
    print(f"[{command}] resolved config:")
    for key in sorted(config):
        print(f"  {key} = {config[key]}")
    if sub_seeds:
        print(f"[{command}] sub-seeds:")
        for key in sorted(sub_seeds):
            print(f"  {key} = {sub_seeds[key]}")


def _settings(args, **resolved) -> dict:
    """The command's parsed options by dest, tuples comma-joined and paths as ``str``;
    ``resolved`` values replace the parsed ones."""
    config = {key: ",".join(map(str, value)) if isinstance(value, tuple)
              else str(value) if isinstance(value, Path) else value
              for key, value in vars(args).items() if key not in ("command", "func")}
    return {**config, **resolved}


def _write_run_json(out_dir: Path, command: str, config: dict, sub_seeds: dict) -> None:
    payload = {"command": command, "config": config, "sub_seeds": sub_seeds,
               "blas_threads": _BLAS_THREADS}
    write_json(out_dir / "run.json", payload)


def _parse_synth(text: str) -> tuple[int, int, int, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected N_PRO,N_REA,RANK,NOISE (e.g. 50,50,4,0.05)"
        )
    try:
        return int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError("cutoffs must be positive integers")
    return values


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    sub_seeds = {
        "side-split": derive_seed(args.seed, "side-split"),
        "folds": derive_seed(args.seed, "folds"),
        "sampling": derive_seed(args.seed, "sampling"),
        "synth": derive_seed(args.seed, "synth"),
    }
    config = _settings(args)
    _print_config("gen-data", config, sub_seeds)

    if args.matrix is not None:
        square = lib.load_square_preferences(args.matrix)
        assignment = lib.assign_sides(len(square), sub_seeds["side-split"])
        m = lib.PreferenceMatrix.from_square(square, assignment)
    else:
        n_pro, n_rea, rank, noise = args.synth
        m = lib.synth_preferences(n_pro, n_rea, rank, noise, sub_seeds["synth"])
        assignment = lib.SideAssignment.trivial(n_pro, n_rea)

    plan = lib.make_folds(assignment, args.folds, sub_seeds["folds"], args.test_fold)
    exposure = lib.exposure_from_popularity(m, args.eta)
    dataset = lib.sample_dataset(m, exposure, plan, sub_seeds["sampling"])

    args.out.mkdir(parents=True, exist_ok=True)  # not before: a rejected run leaves none
    # a forked worker writes a large market's preferences.csv while this process
    # writes the rest; on a failure here it is waited for, not killed, so that it
    # leaves no temporary file
    prefs = args.out / "preferences.csv"
    worker = None
    if usable_cores() >= 2 and m.n_proactive * m.n_reactive >= _FORK_PAIRS:
        worker = Worker(lambda: lib.save_preferences(m, prefs))
    else:
        lib.save_preferences(m, prefs)
    try:
        lib.save_side_assignment(assignment, args.out / "sides.json")
        lib.save_fold_plan(plan, args.out / "folds.json")
        lib.save_exposure(exposure, args.out / "exposure.json")
        lib.save_dataset(dataset, args.out / "dataset.csv")
    finally:
        status = worker.wait() if worker else 0
    if status:
        raise MatchLtrError(f"writing {prefs}: a worker exited with status {status}")
    _write_run_json(args.out, "gen-data", config, sub_seeds)
    print(
        f"[gen-data] wrote {len(dataset)} observations "
        f"({m.n_proactive} proactive x {m.n_reactive} reactive, "
        f"test fold {plan.test_fold} of {plan.k}) to {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    sub_seeds = lib.training_sub_seeds(args.seed)
    config = _settings(args)
    _print_config("train", config, sub_seeds)

    plan = lib.load_fold_plan(args.data / "folds.json")
    dataset = lib.load_dataset(args.data / "dataset.csv", plan)
    fields = {f.name for f in dataclasses.fields(lib.TrainConfig)}
    cfg = lib.TrainConfig(loss_kind=LossKind(args.loss),
                          **{key: value for key, value in config.items() if key in fields})
    model, log = lib.train_model(dataset, cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    lib.save_model(model, args.out / "checkpoint.bin")
    lib.save_training_log(log, args.out / "train_log.csv")
    _write_run_json(args.out, "train", config, sub_seeds)
    if log.records:
        print(
            f"[train] best validation metric {log.best_valid_metric:.6g} "
            f"at epoch {log.best_epoch} of {args.epochs}"
        )
    else:
        print("[train] epochs=0: saved the initialized model unchanged")
    print(f"[train] wrote checkpoint and log to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _resolve_eta(args) -> float:
    eta, run_json = args.eta, args.data / "run.json"
    if eta is None and run_json.exists():
        config = read_json(run_json, "run.json").get("config")
        eta = config.get("eta") if isinstance(config, dict) else None
    if eta is None:
        raise MatchLtrError(
            "eta is needed to label report rows; pass --eta or keep the "
            "run.json written by gen-data next to the dataset"
        )
    return lib._real(eta, "eta")


def _cmd_evaluate(args) -> int:
    plan = lib.load_fold_plan(args.data / "folds.json")
    eta = _resolve_eta(args)
    sub_seeds = lib.labels_sub_seeds(args.seed, plan.test_fold)
    config = _settings(args, eta=eta)
    _print_config("evaluate", config, sub_seeds)

    m = lib.load_preferences(args.data / "preferences.csv")
    model = lib.load_model(args.model)
    (labels_seed,) = sub_seeds.values()
    records = lib.test_dcg_records(model, m, plan, eta, args.loss, args.k_list, labels_seed,
                                   args.label_mode)
    args.out.mkdir(parents=True, exist_ok=True)
    save_eval_report(records, args.out / "eval.csv")
    _write_run_json(args.out, "evaluate", config, sub_seeds)
    for r in records:
        print(
            f"[evaluate] fold={r.fold} eta={r.eta:g} method={r.method} "
            f"DCG@{r.k} = {r.dcg_mean:.4f} +/- {r.dcg_stderr:.4f} ({r.n_users} users)"
        )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.replay is not None:
        lib.check_settings(args.tolerance, args.max_users, args.max_candidates)
        inst = lib.load_instance(args.replay)
        result = lib.check_instance(inst)
        print(f"[verify] replaying {args.replay}")
        print(f"  ground truth        = {result.truth!r}")
        for kind in EstimatorKind:
            print(
                f"  E[{kind.value:<5}] = {result.expected[kind.value]!r} "
                f"(|error| = {result.error(kind):.3e})"
            )
        ok = result.error(EstimatorKind.IPW2) <= args.tolerance
        print(f"[verify] two-sided estimator within tolerance: {ok}")
        return 0 if ok else 1

    config = {key: value for key, value in _settings(args).items()
              if key not in ("out", "replay")}
    _print_config("verify", config, {})
    report = lib.run_verification(**config)
    for line in report.lines():
        print(f"[verify] {line}")
    if not report.passed:
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        target = out / "failing_instance.json"
        lib.save_instance(report.failures[0], target)
        print(f"[verify] FAILED: wrote first failing instance to {target} (replay with --replay)")
        return 1
    print("[verify] PASSED")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _ordered_methods(records: list[EvalRecord]) -> list[str]:
    seen = {r.method for r in records}
    ordered = [kind.value for kind in LossKind if kind.value in seen]
    return ordered + sorted(seen - set(ordered))


def _aggregate(records: list[EvalRecord], row_of) -> tuple[list, list[int], list[str], dict]:
    rows = sorted({row_of(r) for r in records})
    ks = sorted({r.k for r in records})
    methods = _ordered_methods(records)
    sums: dict[tuple, list[float]] = {}
    for r in records:
        sums.setdefault((row_of(r), r.k, r.method), []).append(r.dcg_mean)
    cells = {key: sum(vals) / len(vals) for key, vals in sums.items()}
    return rows, ks, methods, cells


def _render_table(title: str, row_label: str, rows, ks, methods, cells) -> list[str]:
    lines = [title]
    header = [f"{row_label:>6}"]
    for k in ks:
        for method in methods:
            header.append(f"{method}@{k}".rjust(16))
    lines.append(" ".join(header))
    for row in rows:
        out = [f"{row:>6}" if isinstance(row, int) else f"{row:>6g}"]
        for k in ks:
            group = [cells.get((row, k, m)) for m in methods]
            known = [v for v in group if v is not None]
            best = max(known) if known else None
            worst = min(known) if known else None
            for v in group:
                if v is None:
                    out.append("-".rjust(16))
                    continue
                mark = " "
                if len(known) > 1 and v == best:
                    mark = "*"
                elif len(known) > 1 and v == worst:
                    mark = "_"
                out.append(f"{v:.4f}{mark}".rjust(16))
        lines.append(" ".join(out))
    lines.append("(* best of the methods in a cell group, _ worst)")
    return lines


def _write_table_csv(path, row_label: str, rows, ks, methods, cells) -> None:
    header = [row_label] + [f"dcg@{k}:{m}" for k in ks for m in methods]
    write_csv(path, header, (
        [row if isinstance(row, int) else format_float(row)]
        + [format_float(cells[row, k, m]) if (row, k, m) in cells else ""
           for k in ks for m in methods]
        for row in rows
    ))


def _cmd_report(args) -> int:
    all_records: list[EvalRecord] = []
    k_sets = []
    for path in args.inputs:
        records = load_eval_report(path)
        if not records:
            raise MatchLtrError(f"eval report {path} is empty")
        k_sets.append((path, tuple(sorted({r.k for r in records}))))
        all_records.extend(records)
    distinct = {ks for _, ks in k_sets}
    if len(distinct) > 1:
        detail = "; ".join(f"{p}: K={list(ks)}" for p, ks in k_sets)
        raise MatchLtrError(f"inputs disagree on the K grid ({detail})")

    by_fold = _aggregate(all_records, lambda r: r.fold)
    by_eta = _aggregate(all_records, lambda r: r.eta)
    for line in _render_table("test DCG by fold (averaged over eta values)", "fold", *by_fold):
        print(line)
    print()
    for line in _render_table("test DCG by eta (averaged over folds)", "eta", *by_eta):
        print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_table_csv(out / "report_by_fold.csv", "fold", *by_fold)
        _write_table_csv(out / "report_by_eta.csv", "eta", *by_eta)
        print(f"\n[report] wrote report_by_fold.csv and report_by_eta.csv to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own ignores a failed write
        if (file := file or sys.stdout) is not None:
            file.write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    losses = [kind.value for kind in LossKind]
    parser = _Parser(
        prog="matchltr",
        description=(
            "Simulate biased two-sided matching feedback, train rankers under "
            "conventional and inverse-propensity-weighted listwise losses, and "
            "verify estimator unbiasedness exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate preferences, exposure and a feedback dataset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="square all-users preference CSV (m[i,j] = i's preference for j)")
    src.add_argument("--synth", type=_parse_synth, metavar="N_PRO,N_REA,RANK,NOISE",
                     help="synthesize a low-rank preference matrix")
    p.add_argument("--eta", type=float, default=0.5, help="popularity-to-exposure exponent")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--test-fold", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one ranker on a generated dataset")
    p.add_argument("--data", type=Path, required=True, help="gen-data output directory")
    p.add_argument("--loss", choices=losses, required=True)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--k-valid", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on the held-out test block")
    p.add_argument("--data", type=Path, required=True, help="gen-data output directory")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--loss", choices=losses, required=True,
                   help="method label for the report rows")
    p.add_argument("--k-list", type=_parse_k_list, default=(3, 10, 20, 30))
    p.add_argument("--label-mode", choices=("sampled", "expected"), default="sampled")
    p.add_argument("--eta", type=float, default=None,
                   help="override the eta recorded by gen-data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("verify", help="check estimator (un)biasedness with the exact oracle")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-users", type=int, default=4)
    p.add_argument("--max-candidates", type=int, default=6)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta-one", action="store_true",
                   help="force all exposure probabilities to 1")
    p.add_argument("--out", default=None, help="where to put a failing instance, if any")
    p.add_argument("--replay", default=None, help="re-check a serialized failing instance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="aggregate eval CSVs into fold and eta tables")
    p.add_argument("inputs", nargs="+", metavar="EVAL_CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:  # stdout's reader has gone: 128 + SIGPIPE, as a killed writer
        return 141
    except (MatchLtrError, OSError, MemoryError) as exc:  # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def run() -> None:
    """Entry of ``matchltr`` and ``python -m matchltr.cli``: exit with main's status after
    ``gc.freeze()``, so that shutdown's full collections skip what numpy and the package
    loaded (stdio is still flushed, atexit still runs); :func:`main` leaves gc alone."""
    try:
        status = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        status = exc.code
    try:
        if sys.stdout is not None:  # None when fd 1 was closed at start-up
            sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = status or 141
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
