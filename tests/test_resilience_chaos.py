"""Declarative chaos harness (repro.resilience.chaos).

Scenario-data validation plus one smoke-scaled execution of every
canonical scenario.  The full-volume suite runs behind
``scripts/soak_resilience.py``; here each scenario is scaled down so the
whole module stays tier-1 sized while still killing real workers,
corrupting real segments, and reaping a real SIGKILL'd orphan.
"""

import dataclasses
import glob
import importlib.util
import pathlib
import types

import pytest

from repro.resilience import (
    SCENARIOS,
    SEEDED_COUNTS,
    TIMING_COUNTS,
    ChaosScenario,
    ScenarioOutcome,
    run_scenario,
    scenario_by_name,
)
from repro.service import ServiceConfig

pytestmark = [pytest.mark.soak, pytest.mark.chaos, pytest.mark.service]


def _segments():
    return set(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = _segments()
    yield
    leaked = _segments() - before
    assert not leaked, f"leaked shared segments: {sorted(leaked)}"


class TestScenarioData:
    def test_canonical_suite_shape(self):
        names = [s.name for s in SCENARIOS]
        assert len(names) == len(set(names)), "duplicate scenario names"
        assert len(SCENARIOS) >= 8
        # Every fault axis the harness knows is exercised somewhere.
        assert any(s.kill_probability > 0 for s in SCENARIOS)
        assert any(s.fault_probability > 0 for s in SCENARIOS)
        assert any(s.shard_kill for s in SCENARIOS)
        assert any(s.deadline_storm for s in SCENARIOS)
        assert any(s.queue_flood for s in SCENARIOS)
        # The two storms: kills and faults together, in process and
        # over HTTP.
        assert any(not s.gateway and s.kill_probability
                   and s.fault_probability for s in SCENARIOS)
        assert any(s.gateway and s.kill_probability and s.fault_probability
                   for s in SCENARIOS)
        for attack in ("unlink", "corrupt", "orphan"):
            assert any(s.segment_attack == attack for s in SCENARIOS)
        # The network axes drive the real HTTP gateway over sockets.
        assert any(s.gateway and s.network_attack is None for s in SCENARIOS)
        for attack in (
            "conn_flood", "slow_client", "gateway_kill_mid_request",
            "cache_poison_guard",
        ):
            assert any(s.network_attack == attack for s in SCENARIOS)
        # Distinct seeds: no two scenarios replay the same chaos stream.
        seeds = [s.seed for s in SCENARIOS]
        assert len(seeds) == len(set(seeds))

    def test_scenario_by_name(self):
        assert scenario_by_name("baseline") is SCENARIOS[0]
        with pytest.raises(ValueError, match="nope"):
            scenario_by_name("nope")

    def test_scaled(self):
        s = scenario_by_name("queue-flood")
        assert s.scaled(0.5).requests == 10
        assert s.scaled(0.01).requests == 2  # floor of 2
        assert s.scaled(2.0).requests == 40
        assert s.scaled(1.0) == dataclasses.replace(s)
        with pytest.raises(ValueError):
            s.scaled(0.0)

    def test_service_config_mapping(self):
        s = scenario_by_name("worker-kill-pre")
        config = s.service_config()
        assert isinstance(config, ServiceConfig)
        assert config.workers == s.workers
        assert config.max_retries == s.max_retries
        assert config.kill_probability == s.kill_probability
        assert config.kill_point == s.kill_point
        assert config.chaos_seed == s.seed
        # Overrides win over the scenario mapping.
        assert s.service_config(workers=7).workers == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosScenario("bad", "zero requests", requests=0)
        with pytest.raises(ValueError):
            ChaosScenario("bad", "unknown attack", segment_attack="melt")


class TestScenarioOutcome:
    def test_ok_requires_completions_and_cleanliness(self):
        good = ScenarioOutcome("s", requests=4, completed=4)
        assert good.ok
        assert ScenarioOutcome("s", requests=4, completed=0).ok is False
        assert ScenarioOutcome(
            "s", requests=4, completed=4, untyped_failures=["boom"]
        ).ok is False
        assert ScenarioOutcome(
            "s", requests=4, completed=4, leaked_segments=["repro-x"]
        ).ok is False
        assert ScenarioOutcome(
            "s", requests=4, completed=4, mismatches=["req 1"]
        ).ok is False

    def test_typed_failures_and_shed_are_acceptable(self):
        o = ScenarioOutcome("s", requests=6, completed=3, shed=1,
                            failures={"DeadlineExceededError": 2})
        assert o.ok
        assert o.failed == 2

    def test_every_request_is_accounted_exactly_once(self):
        # A lost request, and one counted twice, both fail the row.
        assert ScenarioOutcome("s", requests=4, completed=3).ok is False
        assert ScenarioOutcome("s", requests=2, completed=3).ok is False
        assert ScenarioOutcome(
            "s", requests=2, completed=2, failures={"WorkerCrashError": 1}
        ).ok is False
        # Checks are verified answers the runner asked for on its own;
        # they never stand in for a requested operation.
        assert ScenarioOutcome("s", requests=2, completed=1, checks=1).ok is False
        assert ScenarioOutcome(
            "s", requests=2, failures={"WorkerCrashError": 2}, checks=2
        ).ok

    def test_as_dict(self):
        o = ScenarioOutcome("s", requests=3, completed=2,
                            failures={"WorkerCrashError": 1})
        d = o.as_dict()
        assert d["scenario"] == "s" and d["ok"] is True
        assert d["failures"] == {"WorkerCrashError": 1}
        assert d["checks"] == 0 and d["counts"] == {}


@pytest.mark.parametrize("name", [s.name for s in SCENARIOS])
def test_scenario_smoke(name):
    """Every canonical scenario, scaled down, must hold its invariants."""
    outcome = run_scenario(scenario_by_name(name).scaled(0.3))
    assert outcome.ok, (
        f"{name}: untyped={outcome.untyped_failures} "
        f"mismatches={outcome.mismatches} leaked={outcome.leaked_segments} "
        f"strays={outcome.stray_processes} completed={outcome.completed}"
    )
    # Each requested operation ends exactly once: verified, typed or shed.
    assert (outcome.completed + outcome.failed + outcome.shed
            == outcome.requests), (
        f"{name}: {outcome.completed} verified + {outcome.failed} typed + "
        f"{outcome.shed} shed != {outcome.requests} requested"
    )


def test_segment_orphan_actually_reaps():
    """The orphan scenario's evidence: reaped names were real segments."""
    outcome = run_scenario(scenario_by_name("segment-orphan").scaled(0.5))
    assert outcome.ok
    assert len(outcome.reaped_segments) >= 1
    for name in outcome.reaped_segments:
        assert name.startswith("repro-")
        assert not glob.glob(f"/dev/shm/{name}")


def test_queue_flood_sheds_typed():
    outcome = run_scenario(scenario_by_name("queue-flood"))
    assert outcome.ok
    assert outcome.shed >= 1
    assert outcome.completed + outcome.shed + outcome.failed == outcome.requests


def _seeded_view(outcome):
    """What a seed fixes in a kill storm: the kill and outcome of every
    attempt, and the crash, restart and retry counts.  Worker ids depend
    on which worker is idle, and an attempt's engine on breaker state."""
    return (
        {k: outcome.counts[k] for k in ("crashes", "restarts", "retries")},
        [[(a["attempt"], a["chaos"], a["outcome"]) for a in log]
         for log in outcome.attempts],
    )


def test_kill_storm_replays_at_one_seed():
    s = scenario_by_name("worker-kill-pre")
    a = run_scenario(s)
    b = run_scenario(s)
    assert a.ok and b.ok
    assert a.counts["crashes"] > 0, "storm injected no kills"
    assert len(a.attempts) == s.requests
    assert _seeded_view(a) == _seeded_view(b)


def test_storm_counts_split_seeded_from_timing():
    outcome = run_scenario(scenario_by_name("service-storm").scaled(0.2))
    assert outcome.ok
    assert set(outcome.counts) == set(SEEDED_COUNTS + TIMING_COUNTS)
    assert outcome.counts["crashes"] > 0
    assert outcome.counts["faults_armed"] > 0
    assert outcome.counts["restarts"] == outcome.counts["crashes"]


def _soak_script():
    script = (pathlib.Path(__file__).resolve().parent.parent
              / "scripts" / "soak_resilience.py")
    spec = importlib.util.spec_from_file_location("soak_resilience", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_soak_report_counts_leaked_segments():
    """The verdict line reports the leaks the outcomes saw."""
    soak = _soak_script()
    args = types.SimpleNamespace(seed=0, scale=1.0, only=None)
    clean = ScenarioOutcome("baseline", requests=2, completed=2)
    leaky = ScenarioOutcome("baseline", requests=2, completed=2,
                            leaked_segments=["repro-x"])
    scenario = scenario_by_name("baseline")
    ok_report = soak.render_report([(scenario, clean)], args)
    assert "**SURVIVED**" in ok_report and "0 leaked segments" in ok_report
    bad_report = soak.render_report([(scenario, leaky)], args)
    verdict = bad_report.splitlines()[2]
    assert "**FAILED**" in verdict and "1 leaked segment," in verdict


def test_run_scenario_seed_offset_changes_stream():
    s = scenario_by_name("baseline").scaled(0.3)
    a = run_scenario(s, seed_offset=0)
    b = run_scenario(s, seed_offset=1)
    assert a.ok and b.ok
    assert a.requests == b.requests
