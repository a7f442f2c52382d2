"""End-to-end command-line flows and their file artifacts."""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matchltr import (
    EvalRecord,
    init_model,
    load_eval_report,
    save_eval_report,
    save_model,
    save_preferences,
)
from matchltr.cli import main
from matchltr.core import write_arrays
from matchltr.ranker import _CKPT_MAGIC, TABLES
from matchltr.simulate import load_exposure, synth_preferences
from matchltr.verify import save_instance, single_pair_witness


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli("gen-data", "--synth", "12,12,2,0.05", "--eta", "0.5",
                   "--folds", "3", "--seed", "7", "--out", str(out))
    assert code == 0
    return out


class TestGenData:
    def test_writes_all_artifacts(self, data_dir):
        for name in ("preferences.csv", "sides.json", "folds.json",
                     "exposure.json", "dataset.csv", "run.json",
                     "preferences.csv.parsed", "dataset.csv.parsed"):
            assert (data_dir / name).exists()

    def test_dataset_row_count(self, data_dir):
        # 12x12 pairs minus the 4x4 test block, plus a header line
        lines = (data_dir / "dataset.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 12 * 12 - 4 * 4

    def test_eta_zero_exposure_all_ones(self, tmp_path):
        out = tmp_path / "flat"
        assert run_cli("gen-data", "--synth", "8,8,2,0.0", "--eta", "0",
                       "--folds", "2", "--out", str(out)) == 0
        exposure = load_exposure(out / "exposure.json")
        assert (exposure.theta_reactive_exposure == 1.0).all()
        assert (exposure.theta_proactive_exposure == 1.0).all()

    def test_an_eta_that_underflows_an_exposure_is_named(self, tmp_path, capsys):
        """At 60x60, eta 1000 takes an exposure to 0.0; the error names eta, not a table."""
        argv = ["gen-data", "--synth", "60,60,4,0.05", "--folds", "5", "--seed", "0"]
        assert run_cli(*argv, "--eta", "400", "--out", str(tmp_path / "ok")) == 0
        exposure = load_exposure(tmp_path / "ok" / "exposure.json")
        seed = json.loads((tmp_path / "ok" / "run.json").read_text())["sub_seeds"]["synth"]
        m = synth_preferences(60, 60, 4, 0.05, seed)
        for theta, sums in ((exposure.theta_reactive_exposure, m.forward.sum(axis=0)),
                            (exposure.theta_proactive_exposure, m.backward.sum(axis=1))):
            assert theta.min() > 0.0
            assert theta.tobytes() == ((sums / sums.max()) ** 400.0).tobytes()
        capsys.readouterr()
        assert run_cli(*argv, "--eta", "1000", "--out", str(tmp_path / "bad")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eta 1000.0 is too large: reactive user ")
        assert err.rstrip().endswith("'s exposure underflows to 0")
        assert "theta_" not in err
        assert not (tmp_path / "bad" / "dataset.csv").exists()

    def test_missing_source_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-data", "--out", str(tmp_path / "x"))
        assert err.value.code == 2

    def test_both_sources_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-data", "--matrix", "m.csv", "--synth", "4,4,1,0.0",
                    "--out", str(tmp_path / "x"))
        assert err.value.code == 2

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-data", "--synth", "4,4,1,0.0", "--out",
                    str(tmp_path / "x"), "--bogus", "1")
        assert err.value.code == 2

    def test_square_matrix_source(self, tmp_path):
        rng = np.random.default_rng(0)
        square = rng.random((16, 16)) * 0.9 + 0.05
        path = tmp_path / "square.csv"
        with open(path, "w") as fh:
            for row in square:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        out = tmp_path / "from_matrix"
        assert run_cli("gen-data", "--matrix", str(path), "--folds", "2",
                       "--seed", "1", "--out", str(out)) == 0
        sides = json.loads((out / "sides.json").read_text())
        assert len(sides["proactive_ids"]) == 8
        assert len(sides["reactive_ids"]) == 8

    def test_determinism_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen-data", "--synth", "10,10,2,0.1", "--eta", "0.8",
                           "--folds", "2", "--seed", "3", "--out", str(out)) == 0
        for name in ("preferences.csv", "dataset.csv", "folds.json",
                     "exposure.json", "sides.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_runtime_failure_exit_one(self, tmp_path):
        assert run_cli("gen-data", "--matrix", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "x")) == 1


class TestTrainEvaluateReport:
    def test_full_pipeline(self, data_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2",
                       "--epochs", "5", "--dim", "4", "--lr", "0.2",
                       "--seed", "1", "--out", str(run_dir)) == 0
        assert (run_dir / "checkpoint.bin").exists()
        log_lines = (run_dir / "train_log.csv").read_text().strip().splitlines()
        assert log_lines[0] == "epoch,train_loss,valid_metric"
        assert len(log_lines) - 1 == 5

        eval_dir = tmp_path / "eval"
        assert run_cli("evaluate", "--data", str(data_dir), "--model",
                       str(run_dir / "checkpoint.bin"), "--loss", "ipw2",
                       "--k-list", "1,3", "--out", str(eval_dir)) == 0
        records = load_eval_report(eval_dir / "eval.csv")
        assert [r.k for r in records] == [1, 3]
        assert all(r.method == "ipw2" for r in records)
        assert all(r.eta == 0.5 for r in records)

        assert run_cli("report", str(eval_dir / "eval.csv"),
                       "--out", str(tmp_path / "rep")) == 0
        assert (tmp_path / "rep" / "report_by_fold.csv").exists()
        assert (tmp_path / "rep" / "report_by_eta.csv").exists()

    def test_outputs_do_not_depend_on_sidecars(self, data_dir, tmp_path):
        """train and evaluate write the same bytes whether they read gen-data's
        ``.parsed`` sidecars or parse the CSVs."""
        outputs = []
        for run in ("sidecars", "csv-only"):
            if run == "csv-only":
                for sidecar in data_dir.glob("*.parsed"):
                    sidecar.unlink()
            model, evaluation = tmp_path / run / "model", tmp_path / run / "eval"
            assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2", "--epochs", "3",
                           "--dim", "4", "--seed", "2", "--out", str(model)) == 0
            assert run_cli("evaluate", "--data", str(data_dir), "--model",
                           str(model / "checkpoint.bin"), "--loss", "ipw2",
                           "--out", str(evaluation)) == 0
            outputs.append([(model / "checkpoint.bin").read_bytes(),
                            (model / "train_log.csv").read_bytes(),
                            (evaluation / "eval.csv").read_bytes()])
        assert not list(data_dir.glob("*.parsed"))
        assert outputs[0] == outputs[1]

    def test_untrained_checkpoint_is_the_recorded_init_seed(self, data_dir, tmp_path):
        # run.json's sub-seeds are the ones training uses, not a restatement of them
        out = tmp_path / "init"
        assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2", "--epochs", "0",
                       "--dim", "3", "--seed", "5", "--out", str(out)) == 0
        init = json.loads((out / "run.json").read_text())["sub_seeds"]["init"]
        save_model(init_model(12, 12, 3, init), tmp_path / "expected.bin")
        assert (out / "checkpoint.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()

    def test_train_determinism(self, data_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("train", "--data", str(data_dir), "--loss",
                           "conventional", "--epochs", "3", "--dim", "2",
                           "--seed", "9", "--out", str(out)) == 0
            outs.append(out)
        assert (outs[0] / "checkpoint.bin").read_bytes() == \
            (outs[1] / "checkpoint.bin").read_bytes()
        assert (outs[0] / "train_log.csv").read_bytes() == \
            (outs[1] / "train_log.csv").read_bytes()

    def test_evaluate_determinism(self, data_dir, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(data_dir), "--loss", "ipw1",
                       "--epochs", "2", "--dim", "2", "--out", str(run_dir)) == 0
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert run_cli("evaluate", "--data", str(data_dir), "--model",
                           str(run_dir / "checkpoint.bin"), "--loss", "ipw1",
                           "--out", str(out)) == 0
            outs.append(out)
        assert (outs[0] / "eval.csv").read_bytes() == (outs[1] / "eval.csv").read_bytes()


class TestCorruptJsonInputs:
    @pytest.mark.parametrize("name", ["run.json", "folds.json"])
    @pytest.mark.parametrize("content", [
        b'{"command": "gen-data", "config": {"eta"',  # truncated
        b"\x89PNG\r\n\x1a\n\xff\xfe\x00",  # binary
        b"[1]",  # valid JSON, not an object
    ], ids=["truncated", "binary", "non-object"])
    def test_evaluate_reports_error_and_exits_one(self, data_dir, tmp_path, capsys,
                                                  name, content):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2",
                       "--epochs", "1", "--dim", "2", "--out", str(run_dir)) == 0
        (data_dir / name).write_bytes(content)
        capsys.readouterr()
        code = run_cli("evaluate", "--data", str(data_dir), "--model",
                       str(run_dir / "checkpoint.bin"), "--loss", "ipw2",
                       "--out", str(tmp_path / "eval"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_train_rejects_a_float_fold_count(self, data_dir, tmp_path, capsys):
        path = data_dir / "folds.json"
        payload = json.loads(path.read_text())
        payload["k"] = float(payload["k"])
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2", "--epochs", "1",
                       "--dim", "2", "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fold-plan JSON: ") and "integer" in err


class TestBinaryCsvInputs:
    # evaluate reads preferences.csv but never dataset.csv, so that case must succeed
    @pytest.mark.parametrize("name, command, code", [
        ("dataset.csv", "train", 1),
        ("dataset.csv", "evaluate", 0),
        ("preferences.csv", "evaluate", 1),
        ("eval.csv", "report", 1),
    ])
    def test_error_without_traceback(self, data_dir, tmp_path, capsys, name, command, code):
        run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
        assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2",
                       "--epochs", "1", "--dim", "2", "--out", str(run_dir)) == 0
        assert run_cli("evaluate", "--data", str(data_dir), "--model",
                       str(run_dir / "checkpoint.bin"), "--loss", "ipw2",
                       "--out", str(eval_dir)) == 0
        target = eval_dir / name if name == "eval.csv" else data_dir / name
        target.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
        argv = {
            "train": ["train", "--data", str(data_dir), "--loss", "ipw2", "--epochs", "1",
                      "--dim", "2", "--out", str(tmp_path / "run2")],
            "evaluate": ["evaluate", "--data", str(data_dir), "--model",
                         str(run_dir / "checkpoint.bin"), "--loss", "ipw2",
                         "--out", str(tmp_path / "eval2")],
            "report": ["report", str(target)],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("argv", [
    ("gen-data", "--synth", "12,12,2,0.05", "--eta", "nan"),
    ("gen-data", "--synth", "12,12,2,0.05", "--folds", "1"),
    ("train", "--loss", "ipw2", "--epochs", "1", "--lr", "nan"),
    ("evaluate", "--loss", "ipw2", "--model", "missing.bin"),
], ids=["gen-data-eta", "gen-data-folds", "train-lr", "evaluate-model"])
def test_a_rejected_run_leaves_no_output_directory(data_dir, tmp_path, capsys, argv):
    if argv[0] != "gen-data":
        argv += ("--data", str(data_dir))
    if argv[0] == "evaluate":
        argv = tuple(str(tmp_path / a) if a == "missing.bin" else a for a in argv)
    out = tmp_path / "out" / "nested"
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_nan_propensity_in_dataset_is_a_format_error(data_dir, tmp_path, capsys):
    path = data_dir / "dataset.csv"
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[1].split(b",")
    cells[10] = b"nan"  # theta_fwd
    lines[1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2", "--epochs", "1",
                   "--dim", "2", "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dataset CSV: ") and "theta_fwd" in err
    assert "Traceback" not in err


def test_evaluate_rejects_a_checkpoint_of_another_size(data_dir, tmp_path, capsys):
    big = tmp_path / "big"
    assert run_cli("gen-data", "--synth", "14,14,2,0.05", "--eta", "0.5",
                   "--folds", "3", "--seed", "7", "--out", str(big)) == 0
    run_dir = tmp_path / "run"
    assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2",
                   "--epochs", "1", "--dim", "2", "--out", str(run_dir)) == 0
    capsys.readouterr()
    assert run_cli("evaluate", "--data", str(big), "--model",
                   str(run_dir / "checkpoint.bin"), "--loss", "ipw2",
                   "--out", str(tmp_path / "eval")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model 12x12, preference matrix 14x14" in err


def test_evaluate_rejects_a_checkpoint_of_dimension_zero(data_dir, tmp_path, capsys):
    """A well-formed checkpoint whose header says dim 0 is an error line, and no --out is made."""
    path = tmp_path / "checkpoint.bin"
    header = {"dim": 0, "n_proactive": 12, "n_reactive": 12, "tables": list(TABLES),
              "dtype": "<f8"}
    write_arrays(path, _CKPT_MAGIC, header, [np.zeros((12, 0), dtype="<f8")] * 4)
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run_cli("evaluate", "--data", str(data_dir), "--model", str(path), "--loss", "ipw2",
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: embedding dimension must be >= 1, got 0\n"
    assert not out.exists()


class TestNonFiniteArguments:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_train_learning_rate(self, data_dir, tmp_path, capsys, value):
        capsys.readouterr()
        assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2", "--epochs", "1",
                       "--lr", value, "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: learning rate must be finite and positive, got {value}")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gen_data_eta(self, tmp_path, capsys, value):
        capsys.readouterr()
        assert run_cli("gen-data", "--synth", "12,12,2,0.05", "--eta", value,
                       "--out", str(tmp_path / "data")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: eta must be finite and non-negative, got {value}")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gen_data_synth_noise(self, tmp_path, capsys, value):
        capsys.readouterr()
        assert run_cli("gen-data", "--synth", f"12,12,3,{value}",
                       "--out", str(tmp_path / "data")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: noise must be finite and non-negative, got {value}")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_evaluate_eta(self, data_dir, tmp_path, capsys, value):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--data", str(data_dir), "--loss", "ipw2",
                       "--epochs", "1", "--dim", "2", "--out", str(run_dir)) == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(data_dir), "--model",
                       str(run_dir / "checkpoint.bin"), "--loss", "ipw2", "--eta", value,
                       "--out", str(tmp_path / "eval")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: eta must be finite and non-negative, got {value}")
        assert not (tmp_path / "eval" / "eval.csv").exists()

    def test_evaluate_eta_from_run_json(self, data_dir, tmp_path, capsys):
        run_json = json.loads((data_dir / "run.json").read_text())
        run_json["config"]["eta"] = float("inf")
        (data_dir / "run.json").write_text(json.dumps(run_json))
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(data_dir), "--model",
                       str(tmp_path / "unread.bin"), "--loss", "ipw2",
                       "--out", str(tmp_path / "eval")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eta must be finite and non-negative, got inf")

    @pytest.mark.parametrize("value", [True, "0.5", [0.5]], ids=["bool", "string", "list"])
    def test_evaluate_eta_from_run_json_must_be_a_number(self, data_dir, tmp_path, capsys,
                                                         value):
        """JSON true is not 1.0 and "0.5" is not 0.5, as in exposure.json."""
        run_json = json.loads((data_dir / "run.json").read_text())
        run_json["config"]["eta"] = value
        (data_dir / "run.json").write_text(json.dumps(run_json))
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(data_dir), "--model",
                       str(tmp_path / "unread.bin"), "--loss", "ipw2",
                       "--out", str(tmp_path / "eval")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: eta must be a number, got {value!r}")

    def test_report_eta(self, tmp_path, capsys):
        path = tmp_path / "eval.csv"
        save_eval_report([EvalRecord(0, 0.5, "ipw2", 3, 1.0, 0.0, 4),
                          EvalRecord(1, float("nan"), "ipw2", 3, 1.0, 0.0, 4)], path)
        capsys.readouterr()
        assert run_cli("report", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eval report CSV: line 3: eta must be finite")


class TestErrorPaths:
    @pytest.mark.parametrize("argv, message", [
        (("gen-data", "--synth", "1,2,3"), "expected N_PRO,N_REA,RANK,NOISE"),
        (("gen-data", "--synth", "a,2,3,0.1"), "invalid literal for int()"),
        (("evaluate", "--data", "d", "--model", "m", "--loss", "ipw2", "--k-list", "0"),
         "cutoffs must be positive integers"),
        (("evaluate", "--data", "d", "--model", "m", "--loss", "ipw2", "--k-list", "3,x"),
         "invalid literal for int()"),
    ], ids=["synth-three-fields", "synth-letter", "k-list-zero", "k-list-letter"])
    def test_bad_option_values_are_usage_errors(self, tmp_path, capsys, argv, message):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv, "--out", str(tmp_path / "out"))
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_evaluate_needs_an_eta(self, data_dir, tmp_path, capsys):
        (data_dir / "run.json").unlink()
        capsys.readouterr()
        assert run_cli("evaluate", "--data", str(data_dir), "--model",
                       str(tmp_path / "unread.bin"), "--loss", "ipw2",
                       "--out", str(tmp_path / "eval")) == 1
        assert capsys.readouterr().err.startswith("error: eta is needed to label report rows")

    def test_report_of_a_header_only_csv(self, tmp_path, capsys):
        path = tmp_path / "eval.csv"
        save_eval_report([], path)
        capsys.readouterr()
        assert run_cli("report", str(path)) == 1
        assert capsys.readouterr().err == f"error: eval report {path} is empty\n"

    def test_report_marks_a_missing_method(self, tmp_path, capsys):
        path = tmp_path / "eval.csv"
        save_eval_report([EvalRecord(0, 0.5, "ipw2", 3, 1.0, 0.0, 4),
                          EvalRecord(0, 0.5, "conventional", 3, 0.5, 0.0, 4),
                          EvalRecord(1, 0.5, "ipw2", 3, 2.0, 0.0, 4)], path)
        capsys.readouterr()
        assert run_cli("report", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["fold", "conventional@3", "ipw2@3"]
        assert lines[2].split() == ["0", "0.5000_", "1.0000*"]
        assert lines[3].split() == ["1", "-", "2.0000"]

    def test_verify_needs_a_trial(self, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli("verify", "--trials", "0", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == "error: need at least one trial\n"


def _source_tree_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def test_package_imports_without_scipy():
    """numpy is the only numerical dependency, and importing the command line
    loads neither: scipy would take more than half of every command's start-up."""
    subprocess.run(
        [sys.executable, "-c",
         "import sys, matchltr.cli; assert not {'scipy', 'numpy'} & set(sys.modules)"],
        env=_source_tree_env(), check=True, timeout=60,
    )


# Runs ``main(argv)`` in a fresh interpreter, under the umask in argv[1], and
# prints the loaded modules as the last line of standard output.
_CLI_CHILD = """
import json, os, sys
os.umask(int(sys.argv[1], 8))
from matchltr.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


def _cli_child(*argv, cwd, umask="022") -> set[str]:
    """Run one command in a fresh interpreter; returns the modules it loaded."""
    done = subprocess.run([sys.executable, "-c", _CLI_CHILD, umask, *argv], cwd=cwd,
                          env=_source_tree_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


_PIPELINE = (
    ("gen-data", "--synth", "12,12,2,0.05", "--folds", "3", "--out", "data"),
    ("train", "--data", "data", "--loss", "ipw2", "--epochs", "1", "--dim", "4", "--out", "model"),
    ("evaluate", "--data", "data", "--model", "model/checkpoint.bin", "--loss", "ipw2",
     "--out", "eval"),
    ("report", "eval/eval.csv", "--out", "report"),
    ("--help",),
    ("verify", "--trials", "5"),
)


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """The modules each command of a small pipeline loads, by command."""
    work = tmp_path_factory.mktemp("imports")
    return {argv[0]: _cli_child(*argv, cwd=work) for argv in _PIPELINE}


# each command loads only the modules it runs, and none loads scipy:
# command -> (modules it loads, modules it does not load)
_IMPORT_SETS = {
    "gen-data": ({"matchltr.simulate"},
                 {"scipy", "matchltr.ranker", "matchltr.train", "matchltr.verify"}),
    "train": ({"matchltr.train", "matchltr.ranker"}, {"scipy", "matchltr.verify"}),
    "evaluate": ({"matchltr.train", "matchltr.ranker"}, {"scipy", "matchltr.verify"}),
    "verify": ({"matchltr.verify"},
               {"scipy", "matchltr.simulate", "matchltr.train", "matchltr.ranker"}),
    "report": ({"matchltr.util"}, {"numpy", "matchltr.core"}),
    "--help": ({"matchltr.cli"}, {"numpy", "matchltr.core"}),
}


@pytest.mark.parametrize("command", _IMPORT_SETS)
def test_command_loads_only_its_modules(loaded_modules, command):
    loads, skips = _IMPORT_SETS[command]
    modules = loaded_modules[command]
    assert loads <= modules
    assert not skips & modules


# the entry before run(): main's status straight to sys.exit, without gc.freeze()
_MAIN_ENTRY = "import sys; from matchltr.cli import main; sys.exit(main())"

# two successes, a runtime failure and a usage error: status and arguments, run in ``evaluated``
_EXIT_CASES = {
    "report": (0, ("report", "eval/eval.csv")),
    "help": (0, ("--help",)),
    "no-checkpoint": (1, ("evaluate", "--data", "data", "--model", "missing.bin",
                          "--loss", "ipw2", "--out", "eval-missing")),
    "usage": (2, ("train", "--data", "data")),
}


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A directory with a small gen-data output in ``data`` and its ``eval/eval.csv``."""
    work = tmp_path_factory.mktemp("exit")
    data, model = str(work / "data"), str(work / "model")
    for argv in (("gen-data", "--synth", "12,12,2,0.05", "--folds", "3", "--out", data),
                 ("train", "--data", data, "--loss", "ipw2", "--epochs", "1", "--dim", "4",
                  "--out", model),
                 ("evaluate", "--data", data, "--model", f"{model}/checkpoint.bin",
                  "--loss", "ipw2", "--out", str(work / "eval"))):
        assert run_cli(*argv) == 0
    return work


def _run_entry(entry, argv, stdout, cwd):
    """One command in a fresh interpreter, its stdout a pipe, closed, or a pipe
    whose reader has gone (so that writing or flushing it fails), block-buffered
    as by default or, for ``reader-gone-unbuffered``, with ``PYTHONUNBUFFERED``."""
    cmd = [sys.executable, *entry, *argv]
    # a pipe block-buffered, as by default, so that an exit that skips the flush shows
    env = {k: v for k, v in _source_tree_env().items() if k != "PYTHONUNBUFFERED"}
    if stdout == "closed":
        cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
    if not stdout.startswith("reader-gone"):
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=120)
    if stdout == "reader-gone-unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, stdout=write, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write)


@pytest.mark.parametrize("stdout", ["pipe", "closed", "reader-gone", "reader-gone-unbuffered"])
@pytest.mark.parametrize("case", _EXIT_CASES)
def test_module_entry_exits_as_main_did(evaluated, case, stdout):
    """``python -m matchltr.cli`` exits through run(), with the status and the
    stdout and stderr bytes of ``sys.exit(main())``.  When stdout's reader has
    gone, it writes to stderr only what the command writes there and exits with
    the command's failure status, or with 141 (128 + SIGPIPE) if it succeeded;
    ``sys.exit(main())`` alone lets the exit flush fail."""
    status, argv = _EXIT_CASES[case]
    module = ("-m", "matchltr.cli")
    if stdout.startswith("reader-gone"):
        # unbuffered, the first write fails, and evaluate prints its config before it fails
        if stdout.endswith("unbuffered") and case == "no-checkpoint":
            status, expected_err = 0, b""
        else:
            expected_err = _run_entry(module, argv, "pipe", evaluated).stderr
        done = _run_entry(module, argv, stdout, evaluated)
        assert (done.returncode, done.stderr) == (status or 141, expected_err)
        return
    new, old = ((done.returncode, done.stdout, done.stderr)
                for done in (_run_entry(module, argv, stdout, evaluated),
                             _run_entry(("-c", _MAIN_ENTRY), argv, stdout, evaluated)))
    assert new == old
    assert new[0] == status
    assert new[2].startswith(b"error: ") == (case == "no-checkpoint")


def test_main_returns_141_and_leaves_the_descriptors(evaluated, monkeypatch):
    """In process, main() reports a reader that has gone by its status alone."""

    class Gone(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    def state():
        return (sorted(os.listdir("/proc/self/fd")), os.fstat(1).st_ino,
                gc.get_freeze_count(), gc.isenabled())

    monkeypatch.chdir(evaluated)
    before = state()
    for case in ("help", "report"):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", Gone())
            assert main(list(_EXIT_CASES[case][1])) == 141
        assert state() == before


def test_main_leaves_the_collector_as_it_found_it(evaluated, monkeypatch):
    monkeypatch.chdir(evaluated)
    before = gc.get_freeze_count(), gc.isenabled()
    for status, argv in _EXIT_CASES.values():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert code == status
        assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_console_script_exits_through_run():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert '\nmatchltr = "matchltr.cli:run"\n' in pyproject


@pytest.mark.parametrize("umask, mode", [("022", 0o644), ("077", 0o600)])
def test_output_files_follow_the_umask(tmp_path, umask, mode):
    for argv in _PIPELINE[:4]:
        _cli_child(*argv, cwd=tmp_path, umask=umask)
    modes = {p.relative_to(tmp_path).as_posix(): oct(p.stat().st_mode & 0o777)
             for p in tmp_path.rglob("*") if p.is_file()}
    assert set(modes) >= {
        "data/dataset.csv", "data/dataset.csv.parsed", "data/preferences.csv.parsed",
        "data/folds.json", "model/checkpoint.bin", "model/train_log.csv", "eval/eval.csv",
        "report/report_by_fold.csv", "report/report_by_eta.csv"}
    assert modes == dict.fromkeys(modes, oct(mode))


# the package's public names before they loaded lazily, by the module that held them
_EXPORTS = {
    "core": """AssumptionViolationError ContractViolation DataFormatError DivergenceError
        FoldInfeasibleError FoldPlan InvalidPopulationError MatchLtrError PreferenceMatrix
        RankedList SideAssignment UndefinedAverageError""",
    "metrics": """EstimatorKind LambdaWeight MetricValue dcg_at_k estimate_metric gain_ipw
        gain_surrogate gain_true metric_ground_truth rank_candidates""",
    "ranker": """GradientTables LossKind RankerModel init_model load_model loss_gradient
        loss_user save_model score_matrix""",
    "simulate": """ExposureModel FeedbackDataset assign_sides exposure_from_popularity
        latent_preferences load_dataset load_exposure load_fold_plan load_preferences
        load_side_assignment load_square_preferences make_folds sample_dataset save_dataset
        save_exposure save_fold_plan save_preferences save_side_assignment synth_preferences""",
    "train": """ExperimentPlan TrainConfig TrainingLog default_method_configs load_training_log
        run_experiment save_training_log test_dcg_records train_model validation_metric""",
    "util": "EvalRecord derive_seed load_eval_report save_eval_report",
    "verify": """OracleInstance VerificationReport check_instance expected_metric_exact
        run_verification single_pair_witness""",
}


class TestPackageNamespace:
    names = [name for names in _EXPORTS.values() for name in names.split()]

    def test_every_export_is_listed(self):
        import matchltr

        assert len(self.names) == 70
        assert set(self.names) == set(matchltr.__all__)
        assert set(self.names) <= set(dir(matchltr))

    @pytest.mark.parametrize("home", sorted(_EXPORTS))
    def test_exports_are_their_home_objects(self, home):
        import importlib

        import matchltr

        module = importlib.import_module(f"matchltr.{home}")
        for name in _EXPORTS[home].split():
            assert getattr(matchltr, name) is getattr(module, name), name

    def test_util_binds_no_numpy_names(self):
        from matchltr import util

        for name in ("np", "sigmoid", "write_arrays", "read_arrays"):
            assert not hasattr(util, name), name

    def test_star_import_binds_every_export(self):
        import matchltr

        namespace = {}
        exec("from matchltr import *", namespace)
        assert all(namespace[name] is getattr(matchltr, name) for name in self.names)

    def test_unknown_names_raise_attribute_error(self):
        import matchltr
        from matchltr import cli, util

        for module in (matchltr, cli, util):
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name

    def test_option_defaults_are_the_library_defaults(self):
        """train's options feed TrainConfig and verify's feed run_verification; the
        parser cannot read their defaults (--help loads no numpy), so a drift would
        give the command line and the library different runs."""
        import argparse
        import dataclasses
        import inspect

        from matchltr import ExperimentPlan, TrainConfig, run_verification
        from matchltr.cli import build_parser

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        defaults = {command: {a.dest: a.default for a in parser._actions if a.dest != "help"}
                    for command, parser in sub.choices.items()}
        fields = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        train = {key: value for key, value in defaults["train"].items() if key in fields}
        assert train == {key: fields[key] for key in fields if key != "loss_kind"}
        verify = {key: value for key, value in defaults["verify"].items()
                  if key not in ("out", "replay")}
        params = inspect.signature(run_verification).parameters
        assert verify == {name: param.default for name, param in params.items()}
        plan = {f.name: f.default for f in dataclasses.fields(ExperimentPlan)}
        assert defaults["evaluate"]["k_list"] == plan["k_values"]


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Training runs a few small GEMMs per minibatch; at this size the
    checkpoint bytes must not depend on the BLAS thread count."""
    env = _source_tree_env()

    def cli(*argv, threads="1"):
        result = subprocess.run(
            [sys.executable, "-m", "matchltr.cli", *argv],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr

    data = tmp_path / "data"
    cli("gen-data", "--synth", "200,200,4,0.05", "--eta", "1.0", "--seed", "3", "--out", str(data))
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        cli("train", "--data", str(data), "--loss", "ipw2", "--epochs", "2", "--seed", "4",
            "--out", str(out), threads=threads)
        checkpoints.append((out / "checkpoint.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="one usable core runs BLAS on one thread anyway")
def test_default_blas_threads_give_one_thread_bytes(tmp_path):
    """At 500x500 and the default batch, and at 1000x1000 with batch 16, a GEMM
    is large enough for OpenBLAS to split it over threads, which changes its
    summation order; importing matchltr pins BLAS to one thread unless the
    environment sets a count.  The cases run in turn under one test id."""
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in _source_tree_env().items() if k not in thread_vars}
    for synth, train_args in (("500,500,4,0.05", ("--epochs", "2")),
                              ("1000,1000,4,0.05", ("--batch", "16", "--epochs", "1"))):
        digests = []
        for name, env in (("unset", unset),
                          ("one", {**unset, **dict.fromkeys(thread_vars, "1")})):
            run = tmp_path / synth.split(",")[0] / name
            data, out = run / "data", run / "model"
            for argv in (("gen-data", "--synth", synth, "--eta", "1.0", "--seed", "3",
                          "--out", str(data)),
                         ("train", "--data", str(data), "--loss", "ipw2", *train_args,
                          "--seed", "4", "--out", str(out))):
                result = subprocess.run([sys.executable, "-m", "matchltr.cli", *argv],
                                        env=env, capture_output=True, text=True, timeout=300)
                assert result.returncode == 0, result.stderr
            digests.append(hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest())
        assert digests[0] == digests[1], synth


# train in a process that imports numpy before matchltr, counting forks;
# argv: "all-cores" or "one-core", then the train arguments
_NUMPY_FIRST_TRAIN = """
import os, sys
import numpy  # BLAS reads the thread variables now, before matchltr can set them
from matchltr.cli import main
forks, fork = [], os.fork
def counted():
    forks.append(None)
    return fork()
os.fork = counted
if sys.argv[1] == "one-core":
    os.sched_getaffinity = lambda pid: {0}
status = main(["train", *sys.argv[2:]])
print(len(forks))
sys.exit(status)
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two usable cores to split")
@pytest.mark.parametrize("threads, forks", [(None, 0), ("1", 1)], ids=["unset", "exported"])
def test_numpy_first_splits_only_on_one_blas_thread(tmp_path, threads, forks):
    """With numpy imported first, BLAS has loaded before matchltr sets its
    defaults: with the variables unset it runs a thread per core, so a run above
    the split threshold (200 * 200 * 64 * 27 >= 2**26) stays in one process;
    exported as 1, the run splits and gives the bytes of one core."""
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in _source_tree_env().items() if k not in thread_vars}
    if threads is not None:
        env.update(dict.fromkeys(thread_vars, threads))
    data = tmp_path / "data"
    assert run_cli("gen-data", "--synth", "200,200,4,0.05", "--seed", "3", "--out", str(data)) == 0

    def train(cores: str, out: Path) -> int:
        done = subprocess.run(
            [sys.executable, "-c", _NUMPY_FIRST_TRAIN, cores, "--data", str(data), "--loss",
             "ipw2", "--dim", "64", "--epochs", "27", "--seed", "4", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return int(done.stdout.split()[-1])

    assert train("all-cores", tmp_path / "all") == forks
    if forks:
        assert train("one-core", tmp_path / "one") == 0
        for name in ("checkpoint.bin", "train_log.csv"):
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("openblas, expected", [(None, "1"), ("2", "2")])
def test_run_json_records_blas_threads(tmp_path, openblas, expected):
    """run.json records the BLAS thread variables in effect: the pinned 1
    where the environment sets none, the environment's value where it does."""
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in _source_tree_env().items() if k not in thread_vars}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    out = tmp_path / "data"
    subprocess.run([sys.executable, "-m", "matchltr.cli", "gen-data", "--synth", "12,12,2,0.05",
                    "--folds", "3", "--out", str(out)],
                   env=env, capture_output=True, check=True, timeout=120)
    recorded = json.loads((out / "run.json").read_text())["blas_threads"]
    assert recorded == {"OPENBLAS_NUM_THREADS": expected, "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        assert run_cli("verify", "--trials", "50", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_theta_one_zero_error(self, capsys):
        assert run_cli("verify", "--trials", "30", "--theta-one") == 0
        out = capsys.readouterr().out
        assert "0.000e+00" in out

    def test_failure_writes_replayable_instance(self, tmp_path, capsys):
        # tolerance 0 fails the instances whose two-sided error is a rounding residue
        out = tmp_path / "fail"
        assert run_cli("verify", "--trials", "50", "--tolerance", "0",
                       "--out", str(out)) == 1
        instance = out / "failing_instance.json"
        assert instance.exists()
        # replaying the serialized instance re-checks it in isolation
        assert run_cli("verify", "--replay", str(instance)) == 0
        assert run_cli("verify", "--replay", str(instance),
                       "--tolerance", "0") == 1

    def test_replay_rejects_a_non_integer_cutoff(self, tmp_path, capsys):
        instance = tmp_path / "witness.json"
        save_instance(single_pair_witness(), instance)
        payload = json.loads(instance.read_text())
        payload["k"] = 2.5
        instance.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("verify", "--replay", str(instance)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: oracle instance: ")
        assert "replaying" not in captured.out

    @pytest.mark.parametrize("field, value", [
        ("r_fwd", [[0.5]]), ("r_bwd", [[2]]), ("r_fwd", [[256]]), ("ranking", [[0.7]]),
        ("theta_fwd", [[0.0]]), ("theta_bwd", [[1.5]]),
    ], ids=["half-bit", "two", "256", "fractional-ranking", "theta-zero", "theta-above-one"])
    def test_replay_rejects_bad_bits_and_ranking(self, tmp_path, capsys, field, value):
        instance = tmp_path / "witness.json"
        save_instance(single_pair_witness(), instance)
        payload = json.loads(instance.read_text())
        payload[field] = value
        instance.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("verify", "--replay", str(instance)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: oracle instance: {field} must ")
        assert "replaying" not in captured.out

    @pytest.mark.parametrize("replay", [False, True], ids=["run", "replay"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_rejected(self, tmp_path, capsys, value, replay):
        instance = tmp_path / "witness.json"
        save_instance(single_pair_witness(), instance)
        extra = ["--replay", str(instance)] if replay else []
        capsys.readouterr()
        assert run_cli("verify", "--trials", "5", "--tolerance", value,
                       "--out", str(tmp_path), *extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: tolerance must be finite and non-negative, got {float(value)}"
        )
        assert "PASSED" not in captured.out

    @pytest.mark.parametrize("flag", ["--max-users", "--max-candidates"])
    def test_zero_size_rejected(self, tmp_path, capsys, flag):
        capsys.readouterr()
        assert run_cli("verify", "--trials", "5", flag, "0", "--out", str(tmp_path)) == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {name} must be at least 1, got 0")

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # numpy's default_rng(-1) would end in a ValueError traceback
        capsys.readouterr()
        assert run_cli("verify", "--seed", "-1", "--out", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed must be non-negative, got -1")
        assert "PASSED" not in captured.out



# a library call of each command that allocates by the command's sizes, and
# arguments whose allocation numpy would refuse there (no test allocates it)
_OUT_OF_MEMORY = {
    "verify": ("matchltr.verify._padded", ("verify", "--trials", "1", "--max-users", "1000000",
                                            "--max-candidates", "1000000")),
    "train": ("matchltr.train.init_model", ("train", "--loss", "ipw2", "--dim", "100000000",
                                             "--epochs", "1")),
    "gen-data": ("matchltr.cli.synth_preferences",
                 ("gen-data", "--synth", "10000000,10000000,4,0.05")),
}


class TestOutOfMemory:
    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 14.6 TiB for an array with shape (4, 2, 1000000, 1000000) and "
         "data type float64", "Unable to allocate 14.6 TiB"),
        ("", "MemoryError"),
    ], ids=["numpy", "bare"])
    @pytest.mark.parametrize("command", _OUT_OF_MEMORY)
    def test_reported_as_a_runtime_failure(self, data_dir, tmp_path, capsys, monkeypatch,
                                           command, message, shown):
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        target, argv = _OUT_OF_MEMORY[command]
        monkeypatch.setattr(target, refuse)
        if command == "train":
            argv += ("--data", str(data_dir))
        capsys.readouterr()
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {shown}") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestReportCommand:
    def _write_grid(self, tmp_path, folds=5, etas=(0.5,), ks=(3, 10, 20, 30)):
        methods = ("conventional", "ipw1", "ipw2")
        paths = []
        rng = np.random.default_rng(0)
        for fold in range(folds):
            records = [
                EvalRecord(fold=fold, eta=eta, method=m, k=k,
                           dcg_mean=float(rng.random() + k), dcg_stderr=0.01,
                           n_users=10)
                for eta in etas for m in methods for k in ks
            ]
            path = tmp_path / f"eval_fold{fold}.csv"
            save_eval_report(records, path)
            paths.append(path)
        return paths

    def test_five_by_twelve_layout(self, tmp_path, capsys):
        paths = self._write_grid(tmp_path)
        out = tmp_path / "rep"
        assert run_cli("report", *[str(p) for p in paths], "--out", str(out)) == 0
        lines = (out / "report_by_fold.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5  # header + one row per fold
        header = lines[0].split(",")
        assert len(header) == 1 + 4 * 3  # fold + K x method value columns
        text = capsys.readouterr().out
        assert "*" in text and "_" in text  # best/worst marks

    def test_identity_aggregation(self, tmp_path):
        records = [
            EvalRecord(fold=0, eta=0.5, method="ipw2", k=3,
                       dcg_mean=1.5, dcg_stderr=0.0, n_users=4),
            EvalRecord(fold=0, eta=0.5, method="ipw2", k=10,
                       dcg_mean=2.25, dcg_stderr=0.0, n_users=4),
        ]
        path = tmp_path / "eval.csv"
        save_eval_report(records, path)
        out = tmp_path / "rep"
        assert run_cli("report", str(path), "--out", str(out)) == 0
        lines = (out / "report_by_fold.csv").read_text().strip().splitlines()
        assert lines[0] == "fold,dcg@3:ipw2,dcg@10:ipw2"
        assert lines[1] == "0,1.5,2.25"

    def test_conflicting_k_sets_rejected(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        save_eval_report([EvalRecord(0, 0.5, "ipw2", 3, 1.0, 0.0, 4)], a)
        save_eval_report([EvalRecord(1, 0.5, "ipw2", 10, 1.0, 0.0, 4)], b)
        assert run_cli("report", str(a), str(b)) == 1

    def test_report_bytes_deterministic(self, tmp_path):
        paths = self._write_grid(tmp_path, folds=2)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli("report", *[str(p) for p in paths], "--out", str(out)) == 0
        assert (out1 / "report_by_fold.csv").read_bytes() == \
            (out2 / "report_by_fold.csv").read_bytes()
