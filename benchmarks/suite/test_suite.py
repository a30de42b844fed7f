"""Self-test of the benchmark suite, at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

It checks that the suite reports exactly what ``BENCHMARK.json``
declares, that every function it wraps still exists, that the coverage
gate notices a missing wrapper, and that the digest follows the seed.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))

import run  # noqa: E402

run.bootstrap()

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_cli(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "1", "--seed", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_names_the_suite_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == run.per_layer_metrics(layers.LAYER_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = _run_cli(workload, trace)
    section = "end_to_end" if trace == 0 else "per_layer"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_every_wrapped_attribute_still_exists():
    for _layer, targets in layers.LAYERS:
        for target in targets:
            _owner, _attr, raw = layers.resolve(target)
            assert callable(raw.__func__ if isinstance(raw, staticmethod) else raw)


def test_install_reaches_by_name_imports_and_remove_restores_them():
    from repro.experiments import runner
    from repro.graph import ops

    original = ops.require_connected
    installation = layers.install()
    try:
        assert ops.require_connected is not original
        assert runner.require_connected is ops.require_connected
    finally:
        installation.remove()
    assert ops.require_connected is original
    assert runner.require_connected is original


def test_removing_a_wrapper_trips_the_coverage_gate():
    whole = run.evaluate(workloads.measure("paper-sweep", 1, 1.0, True, True), True)
    assert whole["correct"], whole["failures"]
    assert whole["metrics"]["trace.coverage"]["value"] >= run.COVERAGE_GATE
    missing = run.evaluate(
        workloads.measure("paper-sweep", 1, 1.0, True, True, skip=("tree.walk",)),
        True,
    )
    assert missing["metrics"]["trace.coverage"]["value"] < run.COVERAGE_GATE
    assert not missing["correct"]


def test_op_p10_weighs_each_kind_of_op_alike():
    ops = [workloads.Op(i, 0.0, 0.001 if i < 90 else 0.010, None) for i in range(100)]
    measured = workloads.Measured(
        setup_s=[1.0], ops=ops, failures=[], peak_rss_mb=1.0, digest="",
        kinds=["cache"] * 90 + ["table"] * 10,
    )
    result = run.evaluate(measured, False)
    assert result["metrics"]["op_p10_ms"]["value"] == pytest.approx((1.0 + 10.0) / 2)
    assert result["detail"]["kinds"]["table"] == {"ops": 10, "p10_ms": pytest.approx(10.0)}


def test_serve_exact_refuses_to_repeat_keys():
    keys = workloads.exact_keys(workloads.seed_for(1, 0), 100)
    with pytest.raises(ValueError, match="unique keys"):
        asyncio.run(workloads._open_loop([], keys, 0, workloads.ServeExact.RATE, 25.0, False))


def test_same_seed_same_digest_other_seed_other_digest():
    def digest(seed):
        return workloads.measure("builder-mix", seed, 0.1, False, True).digest

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)
