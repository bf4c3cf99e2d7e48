"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src on sys.path)
import workloads as wl  # noqa: E402
from boxworld import infotasks, rac  # noqa: E402


def _one_round(name: str, folder: Path, inproc: bool = False) -> dict:
    build = worker._round_builder(name, 11, inproc, folder)
    return worker.summarize(worker.measure(build, recorder=None, rounds=1))


@pytest.mark.parametrize("name", ["ladder", "codes", "cli"])
def test_smoke_round_passes_its_checks(name, tmp_path):
    summary = _one_round(name, tmp_path)
    assert summary["attempted"] > 0
    assert summary["failed"] == 0, summary["failures"]


def test_cli_mix_in_process_passes_its_checks(tmp_path):
    summary = _one_round("cli", tmp_path, inproc=True)
    assert summary["failed"] == 0, summary["failures"]


def test_planted_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    honest = infotasks.simulate_ip_protocol
    monkeypatch.setattr(infotasks, "simulate_ip_protocol", lambda *a, **k: 1 - honest(*a, **k))
    summary = _one_round("codes", tmp_path)
    assert summary["failed"] == len(wl.IP_BITS) * 2
    assert summary["failed"] / summary["attempted"] > 0
    assert all(f.startswith("ip-") for f in summary["failures"])


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(infotasks, "pir_simulate", broken)
    summary = _one_round("codes", tmp_path)
    assert summary["failed"] == len(wl.PIR_POWERS)


def test_self_time_on_synthetic_span_tree():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child overlapping the next one
        (3.0, 6.0, 0),
        (2.0, 3.0, 1),  # grandchild
        (8.0, 12.0, 0),  # child running past its parent's end
    ]
    # Root: children cover [1, 6] and [8, 10], 7 of its 10 seconds.
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_call_inside_the_package_is_caught():
    recorder = tracer.Recorder()
    original = rac.IndexMap.__dict__["settings_map"]
    undo = tracer.install(recorder)
    try:
        state = rac.rac_encode_gnst([0, 1] * 4 + [1], 2)
        recorder.active = True
        assert rac.rac_decode(state, 2) == (1, 1.0)
        recorder.active = False
    finally:
        tracer.uninstall(undo)
    metrics = tracer.layer_metrics(recorder, 0)
    assert metrics["rac.rac_decode.calls"] == 1
    assert metrics["rac.IndexMap.settings_map.calls"] > 0
    assert metrics["states.all_settings.calls"] > 0  # bound by name inside rac
    assert rac.IndexMap.__dict__["settings_map"] is original


def test_per_layer_spec_matches_benchmark_json():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = [{"name": n, "unit": u, "better": b} for n, u, b in tracer.per_layer_spec()]
    assert config["per_layer"] == spec


def test_run_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "codes", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in config["end_to_end"]}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "codes", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
