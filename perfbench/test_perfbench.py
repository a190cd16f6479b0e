"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root with ``python -m pytest perfbench -q``.  Each
workload must pass its checks on the unmodified program, and each check
must fail when the program is made to produce a wrong output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402


def tiny(workload: str, tmp_path: Path, seconds: float = 0.5, trace: bool = False,
         deadline: float = 120.0) -> dict:
    return bench.run(workload, seed=3, seconds=seconds, trace=trace, size="tiny",
                     deadline=deadline, out_dir=tmp_path)


def failed_checks(record: dict) -> list[str]:
    return [name for name, check in record["checks"].items() if not check["ok"]]


@pytest.mark.parametrize("workload", ["campaign", "cold_reconstruct", "serve_miss"])
def test_workload_passes_its_checks(workload, tmp_path):
    record = tiny(workload, tmp_path)
    result = record["result"]
    assert result["correct"], record["checks"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for name, m in result["metrics"].items() if name != "snr_db")
    assert record["machine"]["effective_cores"] >= 1
    assert not list(tmp_path.glob("work-*")), "work directory left behind"


@pytest.mark.parametrize("workload", ["campaign", "cold_reconstruct", "serve_miss"])
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    record = tiny(workload, tmp_path, seconds=1.0, trace=True)
    assert record["result"]["correct"], record["checks"]
    assert set(record["result"]["metrics"]) == set(bench.PER_LAYER)
    assert record["breakdown"], "traced run printed no self-time breakdown"
    spans = [json.loads(line) for line in Path(record["spans_file"]).read_text().splitlines()]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert any(s["parent"] >= 0 for s in spans), "no span recorded its caller"
    assert any(s["request"] is not None for s in spans), "no span carries a request id"


def test_tracing_restores_the_program(tmp_path):
    import tracing
    from repro.core.features import FeatureExtractor, canonical_neighbors
    import repro.core.features as features_mod

    before = (FeatureExtractor.__dict__["features_into"], features_mod.canonical_neighbors,
              features_mod.cKDTree)
    uninstall = tracing.install(tracing.Tracer())
    assert features_mod.canonical_neighbors is not canonical_neighbors
    uninstall()
    after = (FeatureExtractor.__dict__["features_into"], features_mod.canonical_neighbors,
             features_mod.cKDTree)
    assert before == after


def test_swapped_member_weights_fail_the_campaign_check(tmp_path, monkeypatch):
    from repro.nn.batched import ModelStack

    original = ModelStack.member_weights

    def swapped(self, member):
        return original(self, (member + 1) % self.k)

    monkeypatch.setattr(ModelStack, "member_weights", swapped)
    record = tiny("campaign", tmp_path)
    assert not record["result"]["correct"]
    assert any(name.startswith("campaign.reference") for name in failed_checks(record))


def test_perturbed_neighbour_index_fails_the_oracle(tmp_path, monkeypatch):
    import repro.core.features as features_mod

    original = features_mod.canonical_neighbors

    def perturbed(dist, idx, k):
        out = original(dist, idx, k).copy()
        out[::50, [0, 1]] = out[::50, [1, 0]]  # nearest two swapped on every 50th void
        return out

    monkeypatch.setattr(features_mod, "canonical_neighbors", perturbed)
    record = tiny("cold_reconstruct", tmp_path)
    assert not record["result"]["correct"]
    assert any(name.startswith("cold.oracle") for name in failed_checks(record))


def test_wrong_served_bytes_fail_the_serve_check(tmp_path, monkeypatch):
    from repro.serve.engine import StackEvaluator

    original = StackEvaluator.evaluate

    def corrupted(self, weight_rows, value_rows, on_nonfinite="fallback"):
        pred, reports = original(self, weight_rows, value_rows, on_nonfinite)
        pred[:, 0] += 1e-9
        return pred, reports

    monkeypatch.setattr(StackEvaluator, "evaluate", corrupted)
    record = tiny("serve_miss", tmp_path)
    assert not record["result"]["correct"]
    assert failed_checks(record) == ["serve.bytes_equal_reference"]


def test_torn_read_fails_the_serve_check(tmp_path, monkeypatch):
    from repro.serve.service import ServedField

    original = ServedField.assemble

    def torn(self):
        out = original(self)
        out[: out.size // 2] += 1.0  # the first half copied from the slot's next store
        self._generation = -1        # and the slot counts as recycled after the copy
        return out

    monkeypatch.setattr(ServedField, "assemble", torn)
    record = tiny("serve_miss", tmp_path)
    assert not record["result"]["correct"]
    assert failed_checks(record) == ["serve.bytes_equal_reference"]
    assert "torn read" in record["checks"]["serve.bytes_equal_reference"]["detail"]
    assert " 0 torn" not in record["checks"]["serve.bytes_equal_reference"]["detail"]


def test_oracle_matches_on_a_tied_lattice():
    import oracles

    grid_points = np.stack(np.meshgrid(*(np.arange(4.0),) * 3, indexing="ij"), -1).reshape(-1, 3)
    queries = np.array([[1.5, 1.5, 1.5], [0.5, 0.0, 0.0]])
    idx = oracles.brute_force_neighbours(grid_points, queries, 8)
    # Eight equidistant corners around (1.5, 1.5, 1.5), in ascending index.
    assert list(idx[0]) == sorted(idx[0])
    assert list(idx[1][:2]) == [0, 16]


def test_deadline_turns_a_hang_into_failed_operations(tmp_path, monkeypatch):
    from repro.perf.campaign import LocalReconstructionSink

    release = threading.Event()
    original = LocalReconstructionSink.reconstruct

    def stuck(self, *args, **kwargs):
        release.wait(60)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LocalReconstructionSink, "reconstruct", stuck)
    try:
        record = tiny("campaign", tmp_path, deadline=8.0)
    finally:
        release.set()
        for thread in threading.enumerate():
            if thread.name == "perfbench-workload":
                thread.join(60)
    result = record["result"]
    assert record["timed_out"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "in stuck" in record["stacks"]


def test_missing_program_source_exits_without_a_result(tmp_path):
    repo = HERE.parent
    shutil.copy(repo / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "campaign", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
