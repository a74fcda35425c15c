"""The benchmark's own test, on tiny configurations of its workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import Workload  # noqa: E402

TINY_ORACLE = Workload("oracle", qubits=(4, 5), ququarts=(1, 2, 3, 4))
TINY_PARITY = Workload("tc2d-parity", ("game", "parity", "--code", "tc2d", "--L", "4", "--P", "3"), "1/1")
TINY_CLASSICAL = Workload("classical-optimum", ("game", "parity", "--classical", "--P", "5"), "5/8")

COUNTS = [n for n in run.LAYER_UNITS if n.endswith("_calls")] + [
    "tableau.build_gens", "tableau.build_rejects", "dense.bytes_computed"]


def _benchmark_names(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


@pytest.mark.parametrize("w", [TINY_ORACLE, TINY_PARITY], ids=lambda w: w.name)
def test_counts_repeat_exactly_for_the_same_seed(w, tmp_path):
    seen = []
    for rep in range(2):
        rundir = tmp_path / str(rep)
        rundir.mkdir()
        passes, spans, counts = run.trace_passes(w, 7, rundir)
        assert all(o.ok for o in passes.values()), {m: o.problems for m, o in passes.items()}
        metrics = layer_metrics(spans, counts)
        seen.append({n: metrics[n] for n in COUNTS})
    assert seen[0] == seen[1]
    assert seen[0]["tableau.build_calls"] > 0


def test_wrong_expected_value_counts_as_failed(tmp_path):
    wrong = Workload(TINY_CLASSICAL.name, TINY_CLASSICAL.cli, "1/2")
    report = run.run_timed(wrong, 0, 0, tmp_path)
    assert report.attempted >= run.MIN_JOBS
    assert report.failed == report.attempted
    assert report.metrics["ok_frac"] == 0
    assert not report.result()["correct"]
    assert all("p_cl = 5/8, expected 1/2" in f for f in report.failures)


def test_every_metric_name_is_reported(tmp_path):
    (tmp_path / "timed").mkdir()
    timed = run.run_timed(TINY_CLASSICAL, 0, 0, tmp_path / "timed")
    assert timed.failed == 0 and timed.result()["correct"]
    assert list(timed.result()["metrics"]) == _benchmark_names("end_to_end")
    (tmp_path / "traced").mkdir()
    traced = run.run_traced(TINY_ORACLE, 0, tmp_path / "traced")
    assert traced.failures == []
    assert list(traced.result()["metrics"]) == _benchmark_names("per_layer")


def test_refuses_to_run_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "oracle", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
