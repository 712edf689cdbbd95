"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/test_selftest.py -q

Tiny runs of each workload must print every metric BENCHMARK.json names,
with its unit; a wrong expected value must fail the operation it checks;
and the benchmark must refuse to run where there is no program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == ["cli", "analyzer", "design"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(common.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(common.PER_LAYER)


@pytest.mark.parametrize("workload", ["cli", "analyzer", "design"])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    for name, unit in common.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"\n{name} = " in proc.stdout
    assert "\nfail_ratio = " in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "design", "--seed", "7", "--seconds", "1", "--trace", "1")
    metrics = _result(proc)["metrics"]
    assert list(metrics) == [name for name, _, _ in common.PER_LAYER]
    assert metrics["loop.residual_jitter.calls"]["value"] > 0
    assert metrics["import.opasim_ms"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_slowest_of_passes_keeps_each_inputs_slowest_attempt():
    loop = {"records": [((0, 0), 0.004, True), ((0, 1), 0.010, True),
                        ((0, 0), 0.002, True), ((0, 1), 0.030, False)]}
    slowest = common.summarize(loop, slowest_of_passes=True)
    assert slowest["op_samples"] == 2 and slowest["op_p50_ms"] == pytest.approx(17.0)
    assert slowest["ops_per_s"] == pytest.approx(1 / 0.034)  # input (0, 1) failed once
    pooled = common.summarize(loop, slowest_of_passes=False)
    assert pooled["op_samples"] == 4 and pooled["ops_per_s"] == pytest.approx(3 / 0.046)


def test_counts_are_per_input_and_every_input_runs():
    calls = []

    def op(kind, ok):
        return common.Op(kind, lambda tr: calls.append(kind), lambda out: [] if ok else ["wrong"])

    cycle = [[op("a", True), op("b", False)], [op("c", True)]]
    loop = common.timed_loop(cycle, 0.0, common.NullTracer())
    assert calls == ["a", "b", "c"]  # a zero-second run still makes one whole pass
    assert (loop["attempted"], loop["failed"], loop["value_errors"]) == (3, 1, 1)
    assert loop["failed_by_kind"] == {"b": 1}
    again = common.timed_loop(cycle, 0.05, common.NullTracer())
    assert len(again["records"]) > 3  # more passes, the same counts
    assert (again["attempted"], again["failed"], again["value_errors"]) == (3, 1, 1)


_right_close = oracles.Checker.close


def _wrong_close(self, label, got, want, rel=0.0, abs_=0.0):
    _right_close(self, label, got, want + 1.0 + abs(want), rel, abs_)


@pytest.mark.parametrize("workload", ["analyzer", "design"])
def test_wrong_expected_value_fails_in_process_ops(workload, monkeypatch):
    import inputs
    import worker
    from opasim import load_scenario

    work = ROOT / common.WORK_DIR / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    p = inputs.scenario_params(inputs.deck_rng(7, "base", 0))
    (work / "base.scenario").write_text(inputs.render_scenario(p))
    if workload == "analyzer":
        base = load_scenario(work / "base.scenario").scenario
        deck = worker.analyzer_cycle(base, p, 7)[0][:6]
    else:
        deck = worker.design_cycle(7)[0]
    monkeypatch.setattr(oracles.Checker, "close", _wrong_close)
    loop = common.timed_loop([deck], 0.0, common.NullTracer())
    shutil.rmtree(work)
    assert loop["attempted"] >= 6
    assert loop["failed"] == loop["value_errors"] == loop["attempted"]


def test_wrong_expected_value_fails_cli_ops(monkeypatch):
    import cli_workload

    work = ROOT / common.WORK_DIR / "selftest-cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    monkeypatch.setattr(oracles.Checker, "close", _wrong_close)
    env = common.child_env(ROOT / "src")
    loop = common.timed_loop(
        [[cli_workload.make_op(0, 7, work, env)]], 0.0, common.NullTracer()
    )
    shutil.rmtree(work)
    assert loop["attempted"] == 1
    assert loop["failed"] == loop["value_errors"] == 1


def test_refuses_to_run_without_program_source():
    bare = ROOT / common.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
