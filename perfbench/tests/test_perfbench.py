"""Self-tests of the benchmark: its checks can fail, and failures are counted.

    python3 -m pytest perfbench/tests -q

Small instances of the workloads keep these fast; the benchmark itself
always runs the default sizes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import ledger
import rep
import run
import workloads

SEED = 3
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def small(name: str):
    return {
        "trace-hot": lambda: workloads.TraceHot(duration_s=5.0),
        "population-wide": lambda: workloads.PopulationWide(n_functions=300, duration_s=60.0),
        "retry-storm": lambda: workloads.RetryStorm(duration_s=200.0, outage_start_s=60.0),
        "workflow-fanout": lambda: workloads.WorkflowFanout(duration_s=5.0),
    }[name]()


@pytest.fixture
def small_workloads(monkeypatch):
    """Make ``rep.run_rep`` build the small instances."""
    monkeypatch.setattr(workloads, "WORKLOADS", {name: (lambda n=name: small(n)) for name in run.WORKLOADS})


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_unperturbed_output_passes(name):
    workload = small(name)
    state = workload.setup(SEED)
    output = workload.call(state, 1)
    assert workload.check(state, output) == []


def test_conservation_violation_is_rejected():
    workload = small("trace-hot")
    state = workload.setup(SEED)
    result = workload.call(state)
    result.executed_total += 1
    assert any("conservation" in problem for problem in workload.check(state, result))


def test_unranked_tenants_are_rejected():
    workload = small("population-wide")
    state = workload.setup(SEED)
    replay = workload.call(state, 1)
    assert len(replay.top_tenants) >= 2
    swapped = dataclasses.replace(replay, top_tenants=replay.top_tenants[::-1])
    assert any("ranked by spend" in problem for problem in workload.check(state, swapped))


def test_storm_recovery_bounds_are_enforced():
    workload = small("retry-storm")
    state = workload.setup(SEED)
    result = workload.call(state)
    naive = result.variant("naive")
    recovered = dataclasses.replace(naive, post=dataclasses.replace(naive.post, successes=naive.post.submitted))
    result.variants[result.variants.index(naive)] = recovered
    assert any("naive recovery" in problem for problem in workload.check(state, result))


def test_workflow_lost_invocations_are_rejected():
    workload = small("workflow-fanout")
    state = workload.setup(SEED)
    result = workload.call(state)
    result.invocation_total -= 1
    assert workload.check(state, result)


def test_perturbed_rep_counts_all_its_ops_as_failed(small_workloads, monkeypatch):
    """End to end: a repetition whose output is wrong is rejected and counted."""
    good = rep.run_rep("trace-hot", SEED, traced=False, workers=None)
    assert good["ok"], good["problems"]

    call = workloads.TraceHot.call

    def perturbed(self, state, workers=None):
        result = call(self, state, workers)
        result.throttled_total += 1
        return result

    monkeypatch.setattr(workloads.TraceHot, "call", perturbed)
    bad = rep.run_rep("trace-hot", SEED, traced=False, workers=None)
    assert not bad["ok"]
    attempted, failed = run.tally([good, bad])
    assert (attempted, failed) == (good["ops"] + bad["ops"], bad["ops"])
    metrics = run.end_to_end([good, bad], attempted, failed)
    assert {name: run.END_TO_END_UNITS[name] for name in metrics} == declared("end_to_end")
    assert metrics["success_rate"] == pytest.approx(1.0 - failed / attempted)
    assert 0.0 < failed / attempted < 1.0  # error_rate


def test_raising_call_counts_expected_ops_as_failed(small_workloads, monkeypatch):
    def boom(self, state, workers=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.TraceHot, "call", boom)
    record = rep.run_rep("trace-hot", SEED, traced=False, workers=None)
    assert not record["ok"] and record["ops"] > 0
    assert run.tally([record]) == (record["ops"], record["ops"])


def test_digest_disagreement_fails_the_odd_rep():
    reps = [
        {"ok": True, "ops": 10, "digest": "a", "problems": []},
        {"ok": True, "ops": 10, "digest": "a", "problems": []},
        {"ok": True, "ops": 10, "digest": "b", "problems": []},
    ]
    assert run.tally(reps) == (30, 10)
    assert not reps[2]["ok"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_digest_matches_untraced_and_ledger_covers(small_workloads, name):
    workers = run.TRACED_WORKERS.get(name)
    reps = [
        rep.run_rep(name, SEED, traced=False, workers=None),
        rep.run_rep(name, SEED, traced=False, workers=workers),
        rep.run_rep(name, SEED, traced=True, workers=workers),
    ]
    assert len({record["digest"] for record in reps}) == 1
    assert reps[-1]["ledger"]["coverage"] > 0.8
    assert run.tally(reps)[1] == 0
    metrics = run.per_layer(name, reps)
    assert {key: metric["unit"] for key, metric in metrics.items()} == declared("per_layer")
    assert all(metric["value"] >= 0.0 for key, metric in metrics.items() if key != "tracing.overhead")


def test_missing_boundary_fails_loudly(monkeypatch):
    gone = ledger.Boundary("replay", "repro.workload.engine:WorkloadEngine.no_such_loop", ledger.ALL)
    monkeypatch.setattr(ledger, "BOUNDARIES", ledger.BOUNDARIES + (gone,))
    with pytest.raises(KeyError):
        with ledger.Tracer():
            pass
    # The failed install restored every patch it had made.
    assert workloads.providers.create_platform.__module__ == "repro.simulator.providers"


def test_uncalled_boundary_fails_loudly():
    workload = small("trace-hot")
    with ledger.Tracer(extra_modules=(workloads,)) as tracer:
        with tracer.span("run"):
            workload.call(workload.setup(SEED))
    tracer.ledger("trace-hot")
    with pytest.raises(RuntimeError, match="never called"):
        tracer.ledger("population-wide")


def test_reference_speed_rescales_durations_and_rates_only():
    half_speed = 2 * run.PROBE_REFERENCE_S
    units = ("s", "us", "inv/s", "1/s", "MB", "ratio")
    scaled = {unit: run.at_reference_speed(unit, 10.0, half_speed) for unit in units}
    assert scaled == {"s": 5.0, "us": 5.0, "inv/s": 20.0, "1/s": 20.0, "MB": 10.0, "ratio": 10.0}
