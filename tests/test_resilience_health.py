"""Health reports and the supervisor thread (repro.resilience).

One module-scoped service keeps subprocess spawning down; each test
reads a fresh :class:`HealthReport` snapshot.  Supervisor cadence logic
runs against an injectable clock, so nothing here sleeps to test
timing.
"""

import glob

import pytest

from repro.backends.ledger import SegmentLedger
from repro.resilience import (
    HealthReport,
    Supervisor,
    build_health_report,
    segment_inventory,
)
from repro.service import ServiceConfig, SolveRequest, SolverService
from repro.graphs.generators import uniform_random_graph

pytestmark = pytest.mark.service


def _segments():
    return set(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = _segments()
    yield
    leaked = _segments() - before
    assert not leaked, f"leaked shared segments: {sorted(leaked)}"


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(200, 600, seed=11)


@pytest.fixture(scope="module")
def service(graph):
    svc = SolverService(ServiceConfig(workers=2, tick=0.01))
    svc.start()
    svc.solve(SolveRequest("mis", graph, options={"seed": 1}), timeout=60)
    yield svc
    svc.shutdown()


class TestHealthReport:
    def test_running_service_reports_ok(self, service):
        report = service.health()
        assert isinstance(report, HealthReport)
        assert report.status == "ok"
        assert report.reasons == []
        assert report.workers_alive == 2
        assert report.workers_configured == 2
        assert len(report.workers) == 2
        assert all(w.alive for w in report.workers)
        assert all(w.state in ("idle", "busy") for w in report.workers)
        assert sum(w.jobs_done for w in report.workers) >= 1
        assert report.max_queue == 64
        assert report.latency_p95 > 0.0

    def test_as_dict_and_format_roundtrip(self, service):
        report = service.health()
        d = report.as_dict()
        assert d["status"] == "ok"
        assert len(d["workers"]) == 2
        assert isinstance(d["segments"], list)
        text = report.format()
        assert "status:" in text and "workers:" in text and "2/2 alive" in text

    def test_open_breaker_degrades(self, service):
        breaker = service.breaker("mis", "prefix")
        for _ in range(service.config.breaker_threshold):
            breaker.record_failure()
        try:
            report = service.health()
            assert report.status == "degraded"
            assert any("breaker" in r for r in report.reasons)
            assert report.breaker_states["mis/prefix"] == "open"
        finally:
            breaker.record_success()
        assert service.health().status == "ok"

    def test_stall_threshold_flags_busy_workers(self, service, graph):
        # With a sub-zero threshold any busy worker counts as stalled;
        # an idle pool stays ok regardless.
        report = service.health(stall_after_s=0.0)
        assert report.status == "ok"

    def test_stopped_service_is_critical(self):
        svc = SolverService(ServiceConfig(workers=1))
        report = svc.health()
        assert report.status == "critical"
        assert any("not running" in r for r in report.reasons)

    def test_segments_reflect_registered_graph(self, service, graph):
        registered = service.register_graph(graph)
        try:
            report = service.health()
            assert report.registered_graphs == 1
            names = [s.name for s in report.segments]
            assert registered.name in names
            seg = next(s for s in report.segments
                       if s.name == registered.name)
            assert seg.owner_alive and seg.exists and not seg.orphaned
        finally:
            service.release_graph(graph)
        assert service.health().registered_graphs == 0

    def test_build_health_report_matches_service_method(self, service):
        direct = build_health_report(service)
        via_service = service.health()
        assert direct.status == via_service.status
        assert direct.workers_configured == via_service.workers_configured


class TestSupervisor:
    def test_probe_records_report_and_reap(self, service, tmp_path):
        ledger = SegmentLedger(tmp_path / "ledger")
        sup = Supervisor(service, ledger=ledger)
        report = sup.probe()
        assert report is sup.last_report
        assert report.status == "ok"
        assert sup.probes == 1
        assert sup.last_reap is not None  # first probe always reaps
        assert list(sup.reports) == [report]

    def test_reap_cadence_with_injected_clock(self, service, tmp_path):
        ledger = SegmentLedger(tmp_path / "ledger")
        now = [0.0]
        sup = Supervisor(service, ledger=ledger, reap_interval_s=10.0,
                         clock=lambda: now[0])
        sup.probe()
        first = sup.last_reap
        now[0] = 5.0
        sup.probe()  # not due yet
        assert sup.last_reap is first
        now[0] = 10.0
        sup.probe()  # due
        assert sup.last_reap is not first
        assert sup.probes == 3

    def test_force_reap_overrides_cadence(self, service, tmp_path):
        ledger = SegmentLedger(tmp_path / "ledger")
        sup = Supervisor(service, ledger=ledger, reap_interval_s=3600.0)
        sup.probe()
        first = sup.last_reap
        sup.probe(force_reap=True)
        assert sup.last_reap is not first

    def test_reap_only_supervisor(self, tmp_path):
        sup = Supervisor(None, ledger=SegmentLedger(tmp_path / "ledger"))
        assert sup.probe() is None
        assert sup.last_report is None
        assert sup.last_reap is not None

    def test_on_report_callback_and_exception_swallowed(self, service):
        seen = []

        def observer(report):
            seen.append(report.status)
            raise RuntimeError("observer bug")

        sup = Supervisor(service, on_report=observer)
        sup.probe()  # must not raise despite the observer throwing
        assert seen == ["ok"]

    def test_thread_lifecycle(self, service):
        sup = Supervisor(service, interval_s=0.02, reap_interval_s=3600.0)
        with sup:
            assert sup.running
            import time
            deadline = time.monotonic() + 5.0
            while sup.probes < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not sup.running
        assert sup.probes >= 2

    def test_history_bound(self, service):
        sup = Supervisor(service, history=2)
        for _ in range(4):
            sup.probe()
        assert len(sup.reports) == 2
        assert sup.probes == 4

    @pytest.mark.http
    def test_config_wired_supervisor(self, tmp_path, monkeypatch):
        """``GatewayConfig.supervise_interval_s`` runs the gateway's
        supervisor: it probes while the gateway serves, its reports count
        a blocked event loop as a wedge that ``/v1/health`` reads as
        degraded, one event per stall however many probes see it, and it
        stops with the gateway."""
        import time

        from repro.service import http as http_mod
        from repro.service.http import GatewayConfig, HTTPGateway, request_json

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        monkeypatch.setattr(http_mod, "_HEARTBEAT_INTERVAL_S", 0.01)
        monkeypatch.setattr(http_mod, "_WEDGED_AFTER_S", 0.1)
        gw = HTTPGateway(
            config=GatewayConfig(port=0, supervise_interval_s=0.02), workers=1
        )

        def wait_for(condition):
            deadline = time.monotonic() + 5.0
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.01)
            return condition()

        with gw:
            sup = gw._supervisor
            assert sup is not None and sup.running
            assert wait_for(lambda: sup.probes >= 1)
            gw._loop.call_soon_threadsafe(time.sleep, 0.3)
            assert wait_for(lambda: gw.probe()["wedge_events"] >= 1)
            status, _, body = request_json(gw.address, "GET", "/v1/health")
            assert status == 207 and body["status"] == "degraded"
            assert any("event loop stalled 1 time(s)" in r
                       for r in body["reasons"])
            # Probed every 0.02 s, the 0.3 s stall is still one event.
            assert wait_for(lambda: not gw._wedged)
            assert gw.probe()["wedge_events"] == 1
            gw._loop.call_soon_threadsafe(time.sleep, 0.3)
            assert wait_for(lambda: gw.probe()["wedge_events"] >= 2)
            assert wait_for(lambda: not gw._wedged)
            assert gw.probe()["wedge_events"] == 2
        assert gw._supervisor is None and not sup.running

    def test_validation(self, service):
        with pytest.raises(ValueError):
            Supervisor(service, interval_s=0.0)
        with pytest.raises(ValueError):
            Supervisor(service, reap_interval_s=-1.0)
