"""Tests of the benchmark itself, at a tiny input size.

    python -m pytest hadpibench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ["synth", "translate", "equiv-cli"]


def bench(tmp_path, workload, trace, seed=3, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--out-dir", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    report = json.loads(lines[0].removeprefix("report "))
    return report, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spans")
    return {
        (w, t, rep): bench(tmp, w, t)
        for w in WORKLOADS
        for t in (0, 1)
        for rep in ((0, 1) if t == 0 else (0,))
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_with_units(runs, workload):
    report, result = runs[workload, 0, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["backend"] in ("py", "c") and report["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_with_units(runs, workload):
    report, result = runs[workload, 1, 0]
    assert result["correct"] is True
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    head, cols = tracing.load_spans(Path(report["spans_file"]))
    assert head["count"] == len(cols["start"]) > 0
    assert all(e >= s for s, e in zip(cols["start"], cols["end"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_repeat_for_a_seed(runs, workload):
    (r1, m1), (r2, m2) = runs[workload, 0, 0], runs[workload, 0, 1]
    assert r1["nf_digest"] == r2["nf_digest"]
    assert r1["out_digest"] == r2["out_digest"]
    assert m1["metrics"]["nf_gens"] == m2["metrics"]["nf_gens"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_gives_the_same_outputs(runs, workload):
    plain, traced = runs[workload, 0, 0][0], runs[workload, 1, 0][0]
    assert plain["out_digest"] == traced["out_digest"]
    assert plain["nf_digest"] == traced["nf_digest"]


def test_layers_are_loaded_where_expected(runs):
    synth = runs["synth", 1, 0][1]["metrics"]
    translate = runs["translate", 1, 0][1]["metrics"]
    assert synth["lang.sem.calls"]["value"] == 0
    assert synth["synthesis.syllables"]["value"] > 0
    assert translate["lang.sem.calls"]["value"] > 0


def _bindings():
    return {
        (owner, attr): owner.__dict__[attr]
        for entries in tracing.ENTRY_POINTS.values()
        for _, attr, owners in entries
        for owner in owners
    }


def test_tracer_restores_every_name():
    from hadpi import linalg, synthesis

    before = _bindings()
    with tracing.Tracer():
        # one wrapper per function, under every name that binds it
        assert linalg.reduce_nums is synthesis.reduce_nums
        assert synthesis.reduce_nums is not before[synthesis, "reduce_nums"]
    assert _bindings() == before


def test_tail_counts_failures_beyond():
    lat = [0.001 * i for i in range(1, 101)]
    assert run.tail(lat, 90) == (90, lat[89], 10)
    # failures sit beyond every finite latency
    failed = lat[:85] + [math.inf] * 15
    p, value, beyond = run.tail(failed, 90)
    assert (p, beyond) == (75, 25) and value == lat[74]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
