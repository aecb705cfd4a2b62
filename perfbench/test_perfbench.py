"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import nqkd.cli  # noqa: E402,F401
from nqkd import dense, noise, protocol  # noqa: E402

import workloads  # noqa: E402
from checks import binomial_consistent, read_pinned_tables  # noqa: E402
from spans import Target, Tracer  # noqa: E402
from worker import package_caches, run_cycle  # noqa: E402


@pytest.fixture(scope="module")
def tables():
    return read_pinned_tables(ROOT / "tests" / "test_acceptance.py")


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [why for *_, why in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in workloads.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_outputs_match_untraced_and_assigned_spans_fire(workload, tables, tmp_path):
    ops = workloads.build_cycle(workload, 5, 0, tmp_path, light_only=True)
    caches = package_caches()
    plain = run_cycle(ops, tables, caches)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cycle(ops, tables, caches, tracer)
    finally:
        tracer.uninstall()
    assert plain.failures == [] and traced.failures == []
    assert tracer.absent == []
    for op in ops:
        assert workloads.digest(op, plain.outputs[op.name]) == workloads.digest(op, traced.outputs[op.name]), op.name

    calls: dict[str, int] = {}
    for totals in traced.spans.values():
        for target, entry in totals.items():
            calls[target] = calls.get(target, 0) + entry["calls"]
    layer = workloads.layer_metrics(ops, traced.spans, traced.outputs)
    for name, _, _, assigned in workloads.PER_LAYER:
        if assigned != workload:
            continue
        if name in workloads.DERIVED:
            assert layer[name] > 0.0, name
        else:
            target = name.rpartition(".")[0]
            assert calls.get(target, 0) > 0, name
            assert layer[name] > 0, name


def test_tracer_wraps_every_binding_site_and_restores_them():
    original = dense.product_basis_probabilities
    tracer = Tracer()
    tracer.install()
    try:
        assert protocol.product_basis_probabilities is dense.product_basis_probabilities
        assert protocol.product_basis_probabilities is not original
        assert noise.apply_cnot is dense.apply_cnot is not None
        assert noise.apply_cnot.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert protocol.product_basis_probabilities is original
    assert dense.product_basis_probabilities is original
    assert not hasattr(noise.apply_cnot, "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = Tracer((Target("keyrate.threshold_qber"), Target("keyrate.bisect_root")))
    tracer.install()
    try:
        from nqkd import keyrate

        keyrate.threshold_qber(3)
    finally:
        tracer.uninstall()
    totals = tracer.take()
    outer, inner = totals["keyrate.threshold_qber"], totals["keyrate.bisect_root"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)


def test_missing_target_is_reported_absent():
    tracer = Tracer((Target("protocol._no_such_function"), Target("nosuchmodule.f"), Target("cli.main")))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["protocol._no_such_function", "nosuchmodule.f"]


def test_binomial_band():
    assert binomial_consistent(50, 100, 0.5)
    assert binomial_consistent(5000, 50000, 0.1)
    assert not binomial_consistent(90, 100, 0.5)
    assert not binomial_consistent(10, 100, 0.5)
    # 5 sigma of Binomial(50000, 0.1) is about 335 events
    assert binomial_consistent(5300, 50000, 0.1)
    assert not binomial_consistent(5400, 50000, 0.1)


def test_pinned_tables_are_read_from_the_acceptance_tests(tables):
    assert len(tables["THRESHOLD_TABLE"]) == 16 and len(tables["GATE_TABLE"]) == 16
    assert math.isclose(tables["THRESHOLD_INF"], 0.341071)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol_runs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_metric_values_sum_the_best_time_of_each_op():
    ops = [
        workloads.Op("post.l1000", "post", "post_rounds_per_s", rounds=1000),
        workloads.Op("post.l3000", "post", "post_rounds_per_s", rounds=3000),
        workloads.Op("table.a", "table", "table_s"),
        workloads.Op("table.b", "table", "table_s"),
    ]
    best = {"post.l1000": 0.01, "post.l3000": 0.03, "table.a": 0.2}
    assert workloads.metric_values(ops, best) == {"post_rounds_per_s": pytest.approx(1e5)}
    best["table.b"] = 0.05
    assert workloads.metric_values(ops, best)["table_s"] == pytest.approx(0.25)
