"""The correctness gate fails a run whose scores move, and the command says so."""

import json
import os

import pytest

import run
from conftest import ROOT


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_injected_score_mismatch_fails_the_run(monkeypatch, capsys):
    from ssimkit import pipeline

    original = pipeline.pool_temporal
    monkeypatch.setattr(pipeline, "pool_temporal", lambda *a, **k: original(*a, **k) * (1.0 + 1e-6))
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "vod1080_default", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_a_failing_call_counts_as_a_failed_operation():
    from ssimkit.errors import TruncatedFrame

    gate = run.Gate()

    def broken():
        raise TruncatedFrame("frame 0: short read")

    assert run._attempt(gate, "op 0", broken) is None
    gate.record("op 1", [])
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.fail_frac == pytest.approx(0.5)
