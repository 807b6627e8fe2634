"""Small-size runs of every workload through the benchmark's own entry point.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_spherelab()
import tracing  # noqa: E402  (needs spherelab on the path)

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _main(capsys, *argv) -> tuple[dict, dict, dict]:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    head, report, result = (json.loads(line) for line in lines[-3:])
    return head["manifest"], report["report"], result


def _small(capsys, workload, trace, seed=3):
    return _main(capsys, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "small")


def test_benchmark_json_lists_what_the_runs_report():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    head, report, result = _small(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failed_checks"]
    assert result["attempted"] >= 1
    expected = {name: unit for name, unit, _ in run.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert head["seeds"]["seed"] == 3 and head["config"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(capsys, workload):
    _, report, result = _small(capsys, workload, 1)
    assert result["correct"], report["failed_checks"]
    expected = {name: unit for name, unit, _ in tracing.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # Per-layer times add up to the traced wall time within 10 %.
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert report["traced_passes"] >= 1


def test_same_seed_same_digest_and_different_seed_differs(capsys):
    first = _small(capsys, "quad_analyze", 0, seed=5)[1]["digest"]
    again = _small(capsys, "quad_analyze", 1, seed=5)[1]["digest"]
    other = _small(capsys, "quad_analyze", 0, seed=6)[1]["digest"]
    assert first == again != other


def test_layers_move_where_the_map_says(capsys):
    quad = _small(capsys, "quad_train", 1)[2]["metrics"]
    relu = _small(capsys, "relu_train", 1)[2]["metrics"]
    _, analyze_report, analyze_result = _small(capsys, "quad_analyze", 1)
    analyze = analyze_result["metrics"]
    assert quad["linalg.singular_values.calls"]["value"] == 0
    assert quad["attack.start_steps"]["value"] == 0
    assert analyze["training.adam_step.calls"]["value"] == 0
    # One spectrum per traced pass; how many passes fit depends on the host.
    assert analyze["linalg.singular_values.calls"]["value"] \
        == analyze_report["traced_passes"] >= 1
    assert relu["checkpoint.bytes"]["value"] > 0
    assert relu["models.mlp.gflop_per_s"]["value"] > 0
    for metrics in (relu, analyze):
        assert metrics["attack.model_calls_per_step"]["value"] == 2.0


def test_tracer_restores_every_patched_name():
    import spherelab
    from spherelab import dataset, models, rng, training

    before = (spherelab.singular_values, training.sample_batch, dataset.sample_batch,
              rng.RngStream.__dict__["normals"], models.MlpNet.__dict__["forward"],
              models.MlpNet.__dict__["init_random"])
    with tracing.Tracer() as tracer:
        assert training.sample_batch is not before[1]
        training.sample_batch(dataset.SphereConfig(n=4), rng.RngStream(1), 3)
    after = (spherelab.singular_values, training.sample_batch, dataset.sample_batch,
             rng.RngStream.__dict__["normals"], models.MlpNet.__dict__["forward"],
             models.MlpNet.__dict__["init_random"])
    assert after == before
    names = [span[0] for span in tracer.spans]
    assert names[0] == "dataset.sample_batch" and "rng.normals" in names


def _command(cwd, *argv):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_pins_blas_threads_and_ends_with_the_result():
    done = _command(run.ROOT, "--workload", "quad_analyze", "--seed", "2", "--seconds", "0.1",
                    "--trace", "0", "--size", "small")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    head = json.loads(lines[0])["manifest"]
    assert set(json.loads(lines[-1])) == {"correct", "attempted", "failed", "metrics"}
    assert set(head["thread_env"].values()) == {str(run.BLAS_THREADS)}
    assert head["blas_threads"] in (None, run.BLAS_THREADS)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.ROOT) / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _command(tmp_path, "--workload", "quad_train", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
