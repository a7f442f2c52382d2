"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

It checks that each run reports every metric named in BENCHMARK.json with its
unit, that the traced self times add up, and that the output checks catch a
bad output.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402

TINY = run.Sizes(
    grid_n=50, grid_epochs=2, cli_n=50, cli_epochs=1, cli_pipelines=1,
    trace_verify_instances=20, side_grid_n=50, side_grid_epochs=2, side_grid_cells=1,
    side_cli_n=50, side_pipelines=1, side_verify_batch=10, side_verify_batches=2,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    result = run.run_workload(workload, seed=5, seconds=0.5, trace=bool(trace), sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {name: unit for name, (_, unit, _) in metrics.items()} == \
        units("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(value) and n >= 1 for value, _, n in metrics.values())
    if trace:
        parts = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        parts += metrics["trace.unattributed_s"][0]
        assert parts == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9, abs=1e-9)
    else:
        assert all(value > 0 for value, _, _ in metrics.values())


def test_result_line_has_exactly_the_contract_keys(capsys):
    result = run.run_workload("grid-200", seed=5, seconds=0.2, trace=False, sizes=TINY)
    run.report(result)
    printed = capsys.readouterr().out.strip().splitlines()
    last = json.loads(printed[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())
    assert any(line.startswith("fail_share") for line in printed)


def test_nominal_speed_scales_times_and_rates_only():
    measured = {"t": (2.0, "s", 3), "r": (10.0, "1/s", 3), "c": (6.0, "1/min", 3),
                "m": (5.0, "MB", 3), "d": (9.0, "DCG", 1)}
    assert run.at_nominal_speed(measured, 2.0) == {
        "t": (1.0, "s", 3), "r": (20.0, "1/s", 3), "c": (12.0, "1/min", 3),
        "m": (5.0, "MB", 3), "d": (9.0, "DCG", 1)}
    slice_s = run.Reference()()
    assert 0 < slice_s < 10


def test_truncated_eval_csv_counts_as_failure():
    def truncate(work: Path) -> None:
        path = work / "eval" / "eval.csv"
        path.write_text("".join(path.read_text().splitlines(True)[:2]))

    result = run.run_workload("cli-500", seed=6, seconds=0.2, trace=False, sizes=TINY,
                              after_stages=truncate)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any("eval.csv" in note for note in result["notes"])


def test_changed_dataset_digest_counts_as_failure(out_dir):
    first = run.run_workload("cli-500", seed=7, seconds=0.2, trace=False, sizes=TINY)
    assert first["correct"]
    store = out_dir / "digests.json"
    known = json.loads(store.read_text())
    key = f"cli:n={TINY.cli_n}:epochs={TINY.cli_epochs}:seed=7"
    known[key]["dataset.csv"] = "0" * 64
    store.write_text(json.dumps(known))
    second = run.run_workload("cli-500", seed=7, seconds=0.2, trace=False, sizes=TINY)
    assert not second["correct"]
    assert any("dataset.csv digest" in note for note in second["notes"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "grid-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
