"""Tests of the end-to-end benchmark: contract, determinism, checks, layers.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Sizes are shrunk through function arguments. The layer-accounting tests
run the named study-smoke and epoch-drift workloads cut to 20 groups and
20 epochs, and the CLI test one traced epoch of epoch-steady.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import numpy as np
import pytest
import run as run_cli

from repro.experiments.methodology import STUDY_SCHEMES, build_suite_profile, run_study

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    """The named workload at a size that runs in about a second."""
    wl = harness.WORKLOADS[name]
    if isinstance(wl, harness.StudyWorkload):
        return dataclasses.replace(
            wl, cache_blocks=256, length_scale=0.1, golden_optimal_mr=None
        )
    return dataclasses.replace(wl, epoch_length=2 * harness.BATCH)


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


# ---------------------------------------------------------------- contract
def test_benchmark_json_matches_the_harness():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(harness.WORKLOADS)
    assert set(run_cli.WORKLOAD_NAMES) == set(harness.WORKLOADS)
    assert declared("end_to_end") == harness.END_TO_END_UNITS
    assert declared("per_layer") == harness.PER_LAYER_UNITS
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_emits_exactly_the_declared_metrics(name, trace):
    run = harness.measure(tiny(name), seed=3, seconds=0, trace=trace, min_ops=2)
    result = harness.result_object(run, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(section)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_same_seed_repeats_deterministic_outputs(name):
    wl = tiny(name)
    a, b = (harness.measure(wl, seed=5, seconds=0, trace=True, min_ops=3) for _ in range(2))
    assert a.digest == b.digest
    assert (a.attempted, a.failed, a.ops) == (b.attempted, b.failed, b.ops)
    # set-up layer times are wall-clock; every other count repeats exactly
    direct = [{k: v for k, v in r.direct.items() if k not in harness.SETUP_LAYERS} for r in (a, b)]
    assert direct[0] == direct[1]


def test_a_new_seed_changes_epoch_inputs_but_not_study_inputs():
    for name in ("epoch-steady", "epoch-drift"):
        wl = tiny(name)
        same = zip(next(harness.epoch_inputs(wl, 1)), next(harness.epoch_inputs(wl, 1)))
        assert all(np.array_equal(x, y) for x, y in same)
        other = zip(next(harness.epoch_inputs(wl, 1)), next(harness.epoch_inputs(wl, 2)))
        assert not all(np.array_equal(x, y) for x, y in other)
    wl = tiny("study-smoke")
    digests = {
        harness.measure(wl, seed=seed, seconds=0, trace=False, min_ops=2).digest
        for seed in (1, 2)
    }
    assert len(digests) == 1


def test_cli_prints_environment_then_result(capsys):
    code = run_cli.main(
        ["--workload", "epoch-steady", "--seed", "1", "--seconds", "0", "--trace", "1"]
    )
    info, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert code == 0 and result["correct"]
    assert {"nproc", "python", "numpy", "kernel"} <= set(info)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "study-smoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


# ----------------------------------------------------------- output checks
@pytest.fixture(scope="module")
def window_result():
    profile = build_suite_profile(tiny("study-smoke").config)
    return run_study(harness.windows(profile)[0], n_jobs=1)


def _corrupt(result, how: str):
    result = dataclasses.replace(
        result,
        group_mr=result.group_mr.copy(),
        program_mr=result.program_mr.copy(),
        allocations=result.allocations.copy(),
    )
    s = STUDY_SCHEMES.index
    if how == "non-finite":
        result.group_mr[2, s("sttw")] = np.nan
    elif how == "allocation":
        result.allocations[2, 0, s("equal_baseline")] += 1
    elif how == "not-optimal":
        result.group_mr[2, s("optimal")] = result.group_mr[2, s("equal")] * 1.01
    elif how == "baseline":
        result.program_mr[2, 1, s("equal_baseline")] = result.program_mr[2, 1, s("equal")] * 1.01
    return result


def test_a_sound_window_passes_every_group_check(window_result):
    assert not harness.check_groups(window_result).any()


@pytest.mark.parametrize("how", ["non-finite", "allocation", "not-optimal", "baseline"])
def test_each_group_check_fails_exactly_the_corrupted_group(window_result, how):
    assert harness.check_groups(_corrupt(window_result, how)).tolist() == [
        False, False, True, False, False
    ]


def test_one_corrupted_group_fails_the_run(monkeypatch):
    calls = []

    def corrupting(profile, **kwargs):
        calls.append(1)
        result = run_study(profile, **kwargs)
        return _corrupt(result, "not-optimal") if len(calls) == 1 else result

    monkeypatch.setattr(harness, "run_study", corrupting)
    run = harness.measure(tiny("study-smoke"), seed=1, seconds=0, trace=False, min_ops=2)
    result = harness.result_object(run, trace=False)
    assert (result["failed"], result["attempted"]) == (1, 10)
    assert harness.exit_code(result) == 1


def test_one_corrupted_epoch_decision_fails_the_run(monkeypatch):
    ingest = harness.OnlineController.ingest

    def corrupting(self, batches):
        out = ingest(self, batches)
        if out and out[0].epoch == 2:
            bad = out[0].allocation.copy()
            bad[0], bad[1] = -1, bad[1] + bad[0] + 1  # still sums to C
            out = [dataclasses.replace(out[0], allocation=bad)]
        return out

    monkeypatch.setattr(harness.OnlineController, "ingest", corrupting)
    run = harness.measure(tiny("epoch-drift"), seed=1, seconds=0, trace=False, min_ops=4)
    result = harness.result_object(run, trace=False)
    assert (result["failed"], result["attempted"]) == (1, 4)
    assert harness.exit_code(result) == 1


def test_check_epoch_rejects_missing_and_misordered_decisions():
    wl = tiny("epoch-steady")
    controller = harness.OnlineController(harness.TENANTS, wl.config)
    accesses = next(harness.epoch_inputs(wl, 0))
    per_call, _, _ = harness.feed_epoch(controller, wl, accesses, harness.NULL_TRACER)
    assert harness.check_epoch(per_call, 0)
    assert not harness.check_epoch(per_call, 1)
    assert not harness.check_epoch(per_call[:-1] + [[]], 0)
    assert not harness.check_epoch([per_call[-1]] + per_call, 0)


# -------------------------------------------------------- layer accounting
def test_traced_profile_is_build_suite_profile():
    config = tiny("study-smoke").config
    traced, _ = harness.traced_profile(config)
    plain = build_suite_profile(config)
    assert traced.names == plain.names
    assert all(np.array_equal(a.ratios, b.ratios) for a, b in zip(traced.mrcs, plain.mrcs))


def test_study_smoke_layers_sum_to_the_traced_wall_time():
    wl = harness.WORKLOADS["study-smoke"]
    run = harness.measure(wl, seed=1, seconds=0, trace=True, min_ops=4)
    assert run.attempted == 20
    assert sum(run.layers.values()) == pytest.approx(sum(run.busy_s), rel=0.05)
    assert max(run.layers, key=run.layers.get) == "composition.ncp_ms"


def test_epoch_drift_layers_sum_to_the_traced_wall_time():
    wl = harness.WORKLOADS["epoch-drift"]
    run = harness.measure(wl, seed=1, seconds=0, trace=True, min_ops=20)
    assert run.attempted == 20
    assert sum(run.layers.values()) == pytest.approx(sum(run.busy_s), rel=0.05)
    assert max(run.layers, key=run.layers.get) == "engine.foldcache.solve_ms"


def test_unmapped_spans_charge_their_nearest_mapped_ancestor():
    spans = [
        {"name": "bench.op", "start": 0.0, "end": 10.0, "id": 1, "parent": None},
        {"name": "controller.epoch", "start": 1.0, "end": 9.0, "id": 2, "parent": 1},
        {"name": "profile.snapshot", "start": 2.0, "end": 5.0, "id": 3, "parent": 2},
    ]
    layers = harness.layer_self_times(spans, harness.EPOCH_LAYERS)
    assert layers["online.ingest_ms"] == 2.0
    assert layers["online.epoch_self_ms"] == 8.0
    orphan = {**spans[2], "parent": None}
    with pytest.raises(ValueError, match="no ancestor"):
        harness.layer_self_times([orphan], harness.EPOCH_LAYERS)


def test_a_renamed_span_fails_the_traced_run(monkeypatch):
    layers = {**harness.EPOCH_LAYERS, "controller.renamed": "online.resolve_self_ms"}
    monkeypatch.setattr(harness, "EPOCH_LAYERS", layers)
    with pytest.raises(RuntimeError, match="controller.renamed"):
        harness.measure(tiny("epoch-drift"), seed=1, seconds=0, trace=True, min_ops=2)
