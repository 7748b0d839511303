"""Tests of the benchmark itself: python3 -m pytest pipebench"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from spans import Tracer
from workloads import ROOT, WORKLOADS, Digests, Log, Oracle, PaperEval

from palmroi import cli, evaluate, matcher


@pytest.mark.parametrize("seed", [42, 7])
def test_traced_paper_eval_reproduces_exact_counts(tmp_path, seed):
    workload = PaperEval(seed, tmp_path)
    workload.setup()
    log = Log()
    with Tracer() as tracer:
        seconds = workload.run_pass(log)
    assert log.failed == 0
    # 60 training images x 66 strips, plus 120 images x 28 cells x 2 modes
    assert tracer.calls("kernels.count_components") == 60 * 66 + 120 * 28 * 2 == 10_680
    assert tracer.calls("edges.edge_mask") == 180
    assert tracer.calls("matcher.identify") == 360
    assert tracer.calls("matcher.distance") == 360 * 60 == 21_600
    assert tracer.stats["matcher.distance"].spans == 0  # a counter inside identify, not a span
    assert tracer.work["kernels.label_px"] > 0
    assert sum(ms for _, ms in tracer.layer_totals().values()) <= seconds * 1e3


def test_tracer_wraps_imported_names_and_restores_them():
    originals = [evaluate.features_from_mask, evaluate.load_pgm, cli.extract_features, matcher.identify]
    with Tracer():
        wrapped = [evaluate.features_from_mask, evaluate.load_pgm, cli.extract_features, matcher.identify]
        assert [w.__wrapped__ for w in wrapped] == originals
    assert [evaluate.features_from_mask, evaluate.load_pgm, cli.extract_features, matcher.identify] == originals


def test_oracle_first_minimum_wins_ties():
    db = matcher.enroll([("a", "s0", [0.0, 1.0]), ("b", "s0", [0.0, 1.0]), ("c", "s0", [1.0, 1.0])])
    probe = np.array([0.0, 1.0])
    assert Oracle(db).identify(probe) == matcher.identify(probe, db) == ("a", 0.0)
    assert Oracle(db).verify(probe, "c", 0.5) is False
    assert Oracle(db).verify(probe, "b", 0.0) is True


def test_log_counts_each_failed_operation_once():
    log, digests = Log(), Digests()

    def boom():
        raise ValueError("boom")

    assert log.timed("op", boom) is None
    log.check(False, "second problem with the same operation")
    op = log.begin()
    digests.check(log, "out", b"first", op)
    digests.check(log, "out", b"changed", op)
    assert (log.attempted, log.failed) == (2, 2)


def test_benchmark_json_names_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "pipebench", tmp_path / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "paper-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / ".pipebench").exists()
