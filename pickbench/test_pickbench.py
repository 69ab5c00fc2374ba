"""Self-tests of the pick-trial benchmark.

Each workload passes its output checks on a few seeds, the traced run reports
every per-layer metric, and faults planted in the program are caught and
counted in the result. Run with ``python3 -m pytest pickbench``.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from shelfpick import sim  # noqa: E402


def measure(workload: str, tmp_path: Path, trace: bool = False, count: int = 4):
    return run.measure(workload, seed=0, seconds=0, trace=trace, count=count,
                       setup_runs=1, work_root=tmp_path)


def values(result: dict) -> dict[str, float]:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_passes_every_check(workload, tmp_path):
    result, report = measure(workload, tmp_path)
    assert result["correct"], report
    assert result["failed"] == 0
    assert result["attempted"] == 8  # the timed pass plus the verification pass
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert values(result)["ok_share"] == 1.0
    assert all(value > 0 for value in values(result).values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer(workload, tmp_path):
    result, report = measure(workload, tmp_path, trace=True, count=8)
    assert result["correct"], report
    assert set(result["metrics"]) == set(run.PER_LAYER)
    got = values(result)
    assert got["sim.run_pick.calls"] == 4
    assert got["planner.plan_grasps.ms_per_round"] > got["planner.plan_grasps.self_ms_per_round"]
    if workload == "ablated":
        assert got["declutter.plan_declutter.calls"] == 0
    elif workload == "clean":
        assert 0 < got["declutter.solves_per_candidate"] < 0.05
    else:
        assert got["declutter.solves_per_candidate"] > 0.9
    assert list(tmp_path.glob(f"spans-{workload}-0.tsv"))


def test_one_round_per_plan_event(tmp_path):
    tracer = run.Tracer()
    tracer.install(run.TRIAL_SITES)
    try:
        got = run.run_batch(run.batch_config("noisy", 0, 4), tmp_path / "pass", tracer)
    finally:
        tracer.uninstall()
    assert got.rounds > 4
    assert len(got.round_times) == got.rounds
    assert 0 < sum(got.round_times) <= sum(got.trial_times)


def test_benchmark_json_names_every_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER


def _assert_caught(result: dict, report: list[str], message: str) -> None:
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert values(result)["ok_share"] == 1.0 - result["failed"] / result["attempted"]
    assert any(message in line for line in report), report


def test_tampered_grasp_stage_is_counted(tmp_path, monkeypatch):
    real = sim.run_grasp

    def optimistic(*args, **kwargs):
        return replace(real(*args, **kwargs), success=True, stage=None)

    # without declutter every grasp fails, so every trial carries the fault
    monkeypatch.setattr(sim, "run_grasp", optimistic)
    result, report = measure("ablated", tmp_path)
    _assert_caught(result, report, "grasp replay gives success=False")
    assert result["failed"] == result["attempted"]


def test_overlapping_nudge_is_counted(tmp_path, monkeypatch):
    real = sim.run_nudge

    def overlapping(scene, plan):
        out = real(scene, plan)
        for step in out.steps:
            other = next(k for k in step.positions if k != scene.target_id)
            step.positions[other] = step.positions[scene.target_id]
        return out

    monkeypatch.setattr(sim, "run_nudge", overlapping)
    result, report = measure("noisy", tmp_path)
    _assert_caught(result, report, "nudge leaves an invalid layout")


def test_pass_to_pass_difference_is_counted(tmp_path, monkeypatch):
    real = sim.observe
    calls = itertools.count()

    def drifting(scene, noise=None, *args, **kwargs):
        return real(scene, replace(noise, seed=next(calls)), *args, **kwargs)

    monkeypatch.setattr(sim, "observe", drifting)
    result, report = measure("noisy", tmp_path)
    _assert_caught(result, report, "output differs between passes")
