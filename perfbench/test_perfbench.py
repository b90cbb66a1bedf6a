"""The benchmark's own checks must fail closed.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from suite import WORKLOADS, check_outcomes  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def _outcomes(name, keys, tmp_path):
    """Run the pool operations named *keys* once; their outcomes by key."""
    workload = WORKLOADS[name]()
    workload.setup(str(tmp_path))
    seen = {}
    for item in workload.pool:
        if workload.op_id(item) in keys:
            outcome, problems, _ratio, _counters = workload.inspect(item, workload.run(item))
            assert problems == []
            seen[workload.op_id(item)] = outcome
    workload.close()
    return seen


def test_reference_check_fails_on_a_perturbed_t_star(tmp_path):
    key = "32x10"
    reference = {key: REFERENCE["approx"][key]}
    seen = _outcomes("approx", {key}, tmp_path)
    assert check_outcomes(reference, seen) == []
    perturbed = copy.deepcopy(reference)
    perturbed[key]["T_star"] += "1"
    (problem,) = check_outcomes(perturbed, seen)
    assert problem.startswith(key)


def test_reference_check_fails_on_a_perturbed_verdict(tmp_path):
    witness, none = "flat4:u0.5#0", "flat4:u1.05#0"
    reference = {k: REFERENCE["admission"][k] for k in (witness, none)}
    assert reference[witness]["witness"] and not reference[none]["witness"]
    seen = _outcomes("admission", set(reference), tmp_path)
    assert check_outcomes(reference, seen) == []
    for key, change in (
        (witness, {"witness": False}),
        (none, {"witness": True, "admitted": 0, "misses": 0}),
        (witness, dict(reference[witness], misses=reference[witness]["misses"] + 1)),
    ):
        perturbed = dict(reference, **{key: change})
        (problem,) = check_outcomes(perturbed, seen)
        assert problem.startswith(key)


def test_reference_check_fails_when_operations_are_missing_or_unknown():
    reference = {"a": {"T": "1"}, "b": {"T": "2"}}
    assert check_outcomes(reference, {"a": {"T": "1"}}) == [
        "b: listed in the reference but never run"
    ]
    assert check_outcomes(reference, dict(reference, c={"T": "3"})) == [
        "c: not in the reference"
    ]


def test_reference_covers_every_input(tmp_path):
    for name, workload_class in WORKLOADS.items():
        workload = workload_class()
        workload.setup(str(tmp_path / name))
        try:
            keys = {workload.op_id(item) for item in workload.pool}
            keys |= set(workload.reference_outcomes())
        finally:
            workload.close()
        assert keys == set(REFERENCE[name])


def test_tail_has_ten_samples_beyond_it():
    # 20 operations of one kind at 1 ms, 12 of another at 5 ms, 1 at 9 ms.
    samples = [("fast", 1e6)] * 20 + [("slow", 5e6)] * 12 + [("slowest", 9e6)]
    summary = bench.latency_summary(samples)
    assert summary["latency_p50_ms"] == 1.0
    assert summary["latency_tail_ms"] == 5.0
    assert summary["samples"] == 33
    # Each sample stands for its operation's median over the run.
    noisy = [("fast", 1e6)] * 19 + [("fast", 50e6)] + samples[20:]
    assert bench.latency_summary(noisy) == summary
