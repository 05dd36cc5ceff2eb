"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/tests -q``. They
start the real workload processes at a tiny shot count; the noise-aware
workload still simulates full repeats, so the whole file takes a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS, MIN_SAMPLED_REPEATS, per_layer_units  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_SHOTS = 64
SEED = 9001
IDEAL = ("qpt_ideal", "qst_ideal")


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


_runs = {}


def smoke(workload, trace, attempt=0):
    """Result line and detail file of a tiny-shot run, made once per (workload, trace, attempt)."""
    key = (workload, trace, attempt)
    if key not in _runs:
        proc = run_bench("--workload", workload, "--seed", SEED, "--seconds", 0.1,
                         "--trace", trace, "--shots", SMOKE_SHOTS)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads(
            (BENCH / "results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
        _runs[key] = (result, detail)
    return _runs[key]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    result, detail = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = per_layer_units() if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    assert detail["seed"] == SEED and detail["result"] == result
    records = [r for c in detail["children"] for r in c["records"]]
    assert all("master_seed" in r for r in records)
    if not trace:
        assert sum(r["repeats"] for r in records) >= MIN_SAMPLED_REPEATS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_fidelities_are_bit_identical(workload):
    _, detail = smoke(workload, 1)
    records = detail["children"][0]["records"]
    untraced = {r["index"]: r["fidelities"] for r in records if r["phase"] == "untraced"}
    traced = [r for r in records if r["phase"] == "traced"]
    assert traced
    for rec in traced:
        assert rec["fidelities"] == untraced[rec["index"]]


@pytest.mark.parametrize("workload", IDEAL)
def test_ideal_workloads_build_no_noise_channels(workload):
    metrics = smoke(workload, 1)[0]["metrics"]
    assert metrics["noise.channel_builds"]["value"] == 0
    assert metrics["noise.channel_s"]["value"] == 0


def test_noisy_workload_builds_noise_channels():
    assert smoke("qpt_noisy", 1)[0]["metrics"]["noise.channel_builds"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_with_the_same_seed(workload):
    first = smoke(workload, 1)[0]["metrics"]
    second = smoke(workload, 1, attempt=1)[0]["metrics"]
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_times_account_for_the_traced_wall(workload):
    metrics = smoke(workload, 1)[0]["metrics"]
    layers = sum(v["value"] for k, v in metrics.items()
                 if k.endswith(".self_s"))
    assert layers == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "qst_ideal", "--seed", 1, "--seconds", 1, "--trace", 0,
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_patches_lookup_sites_and_restores_them():
    from ccxlab import experiments, noise, simulator
    originals = (experiments.run_density, simulator.depolarizing_channel,
                 noise.depolarizing_channel)
    with Tracer().installed():
        assert experiments.run_density is not originals[0]
        assert simulator.depolarizing_channel is not originals[1]
        assert simulator.depolarizing_channel is noise.depolarizing_channel
    assert (experiments.run_density, simulator.depolarizing_channel,
            noise.depolarizing_channel) == originals


def test_a_removed_function_reads_zero_instead_of_crashing(monkeypatch):
    from ccxlab import experiments, states
    monkeypatch.delattr(states, "prepare_state")
    tracer = Tracer()
    cfg = experiments.ExperimentConfig(shots_per_setting=SMOKE_SHOTS, repeats=1)
    with tracer.installed():
        report = experiments.run_qst_experiment(cfg)
    assert len(report.fidelities) == 1
    assert tracer.missing == ["states.prepare_state"]
    assert tracer.counts.get("states.prepare_calls", 0) == 0
    assert tracer.counts["simulator.sample_calls"] == 27
    assert sum(tracer.buckets.values()) == pytest.approx(tracer.root_s, rel=1e-12)
