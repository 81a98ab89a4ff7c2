"""Tests of the benchmark itself: corpora, counters, hooks and gates.

    python3 -m pytest perfbench
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import types
from random import Random

import pytest

import run
import tracer
import workloads

COUNTS = ("count", "bits")


@pytest.fixture(scope="module")
def mods():
    return workloads.load_certiroot()


def traced_counts(mods, calls) -> dict:
    trace = tracer.Tracer()
    trace.install(mods)
    try:
        for call in calls:
            call.run(mods, trace)
    finally:
        trace.uninstall()
    metrics = tracer.layer_metrics(trace.spans, trace.missing, {})
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNTS}


def test_default_seed_reproduces_the_acceptance_corpus(mods):
    path = workloads.ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("acceptance_corpus", path)
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    rng = Random(0xACCE55)
    theirs = [acceptance._random_planted(rng, max_mult=3, lattice_den=8, lattice_span=10,
                                         allow_quads=True) for _ in range(200)]
    ours = workloads.planted_corpus(mods, workloads.DEFAULT_SEED)
    assert [p.polynomial.coeffs for p in ours] == [p.polynomial.coeffs for p in theirs]
    assert [p.spec for p in ours] == [p.spec for p in theirs]
    assert workloads.planted_corpus(mods, workloads.HELDOUT_SEED)[0].spec != ours[0].spec


def test_traced_planted_counts_repeat_and_match_the_baseline(mods):
    calls = workloads.planted_calls(mods, workloads.DEFAULT_SEED)
    first = traced_counts(mods, calls)
    assert traced_counts(mods, calls) == first
    assert first["rootenum.certify_calls"] == 447_911
    assert first["rootenum.certify_pruned"] == 211_109
    assert first["rootenum.classify_calls"] == 16_258
    assert first["rootenum.leaves"] == 8_129
    assert first["sturm.chain_calls"] == 600


def test_wilkinson_20_at_r64_counts(mods):
    (call,) = [c for c in workloads.deep_calls(mods, 0) if c.name == "wilkinson20/r64"]
    counts = traced_counts(mods, [call])
    assert counts["rootenum.certify_calls"] == 35_053
    assert counts["rootenum.certify_pruned"] == 17_178


def test_a_shift_in_machine_speed_cancels_out():
    pace = run.Pace()
    nominal = run.REFERENCES["call"][1]
    for speed in [1.0] * 20 + [1.6] * 20:  # the machine slows by 1.6x halfway
        pace.refs["call"].append(nominal * speed)
        pace.record("call", 0.010 * speed)
    pace.refs["call"].append(nominal * 1.6)
    scaled = pace.scaled("call")
    # Calls whose ten surrounding reference times all saw one speed.
    assert scaled[:15] + scaled[24:] == pytest.approx([0.010] * 31)


def test_a_missing_hook_target_reads_null(mods):
    stub = types.SimpleNamespace(root_enum=mods.rootenum.root_enum,
                                 PrecisionParams=mods.rootenum.PrecisionParams,
                                 _ScaledChain=type("_ScaledChain", (), {}))
    renamed = types.SimpleNamespace(**{**vars(mods), "rootenum": stub})
    call = workloads.planted_calls(mods, workloads.DEFAULT_SEED)[0]
    trace = tracer.Tracer()
    trace.install(renamed)
    try:
        call.run(renamed, trace)
    finally:
        trace.uninstall()
    assert {"rootenum.certify", "rootenum.classify", "rootenum.scale"} <= trace.missing
    metrics = tracer.layer_metrics(trace.spans, trace.missing, {})
    assert metrics["rootenum.certify_calls"]["value"] is None
    assert metrics["rootenum.scale_s"]["value"] is None
    assert metrics["rootenum.enum_s"]["value"] > 0
    assert metrics["errbounds.threshold_calls"]["value"] == 1
    assert stub.root_enum is mods.rootenum.root_enum
    assert mods.package.root_enum is mods.rootenum.root_enum


def test_traced_cli_run_reproduces_the_recorded_outputs(capsys):
    assert run.main(["--workload", "cli", "--seed", str(workloads.DEFAULT_SEED),
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    assert result["metrics"]["cli.render_s"]["value"] > 0
    assert result["metrics"]["cli.report_bytes"]["value"] > 0


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "planted",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
