"""QueryEngine and the HTTP front end of the DSE service."""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.flow.dse import explore_design_space
from repro.flow.taskgraph import demo_multimedia_soc
from repro.network.topology import mesh
from repro.serve import (
    CircuitBreaker,
    FarmUnavailable,
    QueryEngine,
    QueryError,
    QuerySpec,
    core_graph_from_name,
    parse_query,
    topology_from_name,
)
from repro.serve.http import QueryServer
from repro.store import ResultStore
from repro.telemetry.registry import MetricsRegistry

# Small enough to evaluate in milliseconds, deterministic.
FAST = dict(
    topologies=("mesh-2x2",),
    flit_widths=(16,),
    buffer_depths=(4,),
    anneal_iterations=50,
)


class TestNames:
    def test_grid_and_count_families(self):
        assert topology_from_name("mesh-3x2").name == "mesh3x2"
        assert topology_from_name("torus-3x3").name == "torus3x3"
        assert topology_from_name("ring-5").name == "ring5"
        assert topology_from_name("hypercube-3").name == "hcube3"

    @pytest.mark.parametrize(
        "bad", ["mesh", "mesh-", "mesh-ax2", "blob-4", "ring-x", "", 7]
    )
    def test_bad_topology_names_raise(self, bad):
        with pytest.raises(QueryError):
            topology_from_name(bad)

    def test_core_graphs(self):
        assert core_graph_from_name("multimedia").cores
        with pytest.raises(QueryError, match="telecom"):
            core_graph_from_name("dvb")

    def test_same_name_same_cache_token(self):
        a = topology_from_name("mesh-2x2")
        b = topology_from_name("mesh-2x2")
        assert a.cache_token() == b.cache_token()


class TestParseQuery:
    def test_defaults(self):
        spec = parse_query({})
        assert spec == QuerySpec()

    def test_scalars_promote_to_tuples(self):
        spec = parse_query(
            {"topologies": "mesh-2x2", "flit_widths": 32, "buffer_depths": [4]}
        )
        assert spec.topologies == ("mesh-2x2",)
        assert spec.flit_widths == (32,)

    def test_unknown_fields_rejected_by_name(self):
        with pytest.raises(QueryError, match="min_freq"):
            parse_query({"min_freq": 800})

    def test_non_object_rejected(self):
        with pytest.raises(QueryError, match="JSON object"):
            parse_query([1, 2])

    @pytest.mark.parametrize(
        "doc",
        [
            {"objective": "speed"},
            {"core_graph": "nope"},
            {"topologies": []},
            {"topologies": ["blob-2"]},
            {"flit_widths": []},
        ],
    )
    def test_invalid_specs_rejected(self, doc):
        with pytest.raises(QueryError):
            parse_query(doc)

    def test_constraint_filter(self):
        spec = parse_query({"min_freq_mhz": 800, "max_area_mm2": 1.0})
        p = _point(freq_mhz=900.0, area_mm2=0.5)
        assert spec.meets_constraints(p)
        assert not spec.meets_constraints(_point(freq_mhz=700.0))
        assert not spec.meets_constraints(_point(area_mm2=2.0))
        assert not spec.meets_constraints(_point(feasible=False))


class TestQueryEngine:
    def test_keys_match_explore_design_space(self, tmp_path):
        """The service's whole correctness story: a sweep's records
        answer the equivalent query with zero recomputation."""
        store = ResultStore(tmp_path / "store")
        from repro.flow.runner import ExperimentRunner

        runner = ExperimentRunner(store=store)
        cg = demo_multimedia_soc()[2]
        serial = explore_design_space(
            cg, [mesh(2, 2)], flit_widths=(16,), buffer_depths=(4,),
            anneal_iterations=50, runner=runner,
        )
        engine = QueryEngine(store, workers=1)
        result = engine.query(QuerySpec(**FAST))
        assert result.served_from == "store" and result.store_misses == 0
        assert result.points == serial

    def test_miss_is_computed_then_hits(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        spec = QuerySpec(seed=3, **FAST)
        with pytest.raises(QueryError, match="not in the store"):
            engine.query(spec, evaluate=False)
        first = engine.query(spec)
        assert first.served_from == "farm" and first.store_misses == 1
        second = engine.query(spec)
        assert second.served_from == "store" and second.store_hits == 1
        assert second.points == first.points

    def test_objective_and_constraints_pick_best(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        spec = QuerySpec(
            topologies=("mesh-2x2",), flit_widths=(16, 64),
            buffer_depths=(4,), anneal_iterations=50, objective="latency",
        )
        result = engine.query(spec)
        assert result.best is not None
        assert result.best.latency_ns == min(
            p.latency_ns for p in result.points if p.feasible
        )
        # Impossible constraint: points exist, none qualify.
        strict = QuerySpec(
            topologies=("mesh-2x2",), flit_widths=(16, 64),
            buffer_depths=(4,), anneal_iterations=50, min_freq_mhz=1e9,
        )
        assert engine.query(strict).best is None

    def test_result_serializes_and_renders(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        result = engine.query(QuerySpec(**FAST))
        doc = json.loads(json.dumps(result.as_dict()))
        assert doc["served_from"] == "farm"
        assert doc["best"]["topology_name"] == "mesh2x2"
        text = result.render()
        assert "best (area)" in text and "miss(es)" in text

    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_rejected(self, tmp_path, workers):
        with pytest.raises(ValueError, match="workers must be a positive"):
            QueryEngine(ResultStore(tmp_path / "store"), workers=workers)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_cli_rejects_non_positive_serve_workers(self, tmp_path, capsys,
                                                    workers):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--store", str(tmp_path / "store"),
                  "--serve-workers", workers])
        assert exc.value.code == 2
        assert "--serve-workers must be >= 1" in capsys.readouterr().err

    def test_metrics_mirrored(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=metrics)
        engine = QueryEngine(store, workers=1, metrics=metrics)
        engine.query(QuerySpec(**FAST))
        engine.query(QuerySpec(**FAST))
        prom = metrics.to_prometheus(prefix="repro")
        assert "repro_serve_queries 2" in prom
        assert "repro_serve_query_store_hits 1" in prom
        assert "repro_serve_farm_queries 1" in prom


@pytest.fixture()
def live_server(tmp_path):
    """The real asyncio server on a private loop thread, port 0."""
    metrics = MetricsRegistry()
    store = ResultStore(tmp_path / "store", metrics=metrics)
    engine = QueryEngine(store, workers=1, metrics=metrics)
    server = QueryServer(engine, port=0, max_inflight=1)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    host, port = asyncio.run_coroutine_threadsafe(
        server.start(), loop
    ).result(10)
    yield server, f"http://{host}:{port}"
    asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as r:
            return r.status, json.loads(r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode())


def _post(url, doc):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, json.loads(r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode())


def _req(url, data=None, method=None, raw=None):
    """Like _get/_post but also returns the response headers."""
    body = raw if raw is not None else (
        json.dumps(data).encode() if data is not None else None
    )
    req = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, dict(r.headers), json.loads(r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), json.loads(e.read().decode())


#: The one JSON shape every HTTP error answers with.
ERROR_KEYS = {"error", "detail", "retryable"}


class TestHttp:
    def test_healthz(self, live_server):
        _, base = live_server
        status, doc = _get(base + "/healthz")
        assert status == 200 and doc["status"] == "ok"
        assert doc["records"] == 0 and doc["inflight"] == 0

    def test_index_lists_endpoints(self, live_server):
        _, base = live_server
        status, doc = _get(base + "/")
        assert status == 200 and "POST /query" in doc["endpoints"]

    def test_unknown_route_404(self, live_server):
        _, base = live_server
        status, doc = _get(base + "/nope")
        assert status == 404 and doc["error"] == "not_found"
        assert "no route" in doc["detail"]

    def test_bad_query_400(self, live_server):
        _, base = live_server
        status, doc = _post(base + "/query", {"objective": "speed"})
        assert status == 400 and doc["error"] == "bad_request"
        assert "objective" in doc["detail"]

    def test_miss_then_hit_round_trip(self, live_server):
        server, base = live_server
        q = dict(FAST, topologies=["mesh-2x2"], flit_widths=[16],
                 buffer_depths=[4], wait=True)
        status, doc = _post(base + "/query", q)
        assert status == 200 and doc["served_from"] == "farm"
        q.pop("wait")
        status, doc = _post(base + "/query", q)
        assert status == 200 and doc["served_from"] == "store"
        assert doc["store_misses"] == 0
        assert len(server.engine.store) == 1

    def test_async_job_streams_events(self, live_server):
        server, base = live_server
        q = dict(FAST, topologies=["mesh-2x2"], flit_widths=[16],
                 buffer_depths=[4], seed=5)
        status, doc = _post(base + "/query", q)
        assert status == 202 and doc["status"] == "running"
        job = doc["job"]
        deadline = 60
        import time

        while deadline > 0:
            status, jd = _get(base + f"/jobs/{job}")
            if jd["status"] != "running":
                break
            time.sleep(0.1)
            deadline -= 0.1
        assert jd["status"] == "done"
        assert jd["result"]["served_from"] == "farm"
        status, ev = _get(base + f"/jobs/{job}/events?since=0")
        kinds = [e["event"] for e in ev["events"]]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "point_end" in kinds
        # Incremental tailing.
        status, tail = _get(base + f"/jobs/{job}/events?since={ev['next']}")
        assert tail["events"] == []

    def test_unknown_job_404(self, live_server):
        _, base = live_server
        status, doc = _get(base + "/jobs/job-9999")
        assert status == 404

    def test_admission_control_429(self, live_server):
        server, base = live_server
        server._gauge_inflight(+1)  # simulate a farm evaluation in flight
        try:
            q = dict(FAST, topologies=["mesh-2x2"], flit_widths=[16],
                     buffer_depths=[4], seed=9)
            status, headers, doc = _req(base + "/query", data=q)
            assert status == 429 and doc["error"] == "farm_full"
            assert "retry later" in doc["detail"]
            assert doc["retryable"] is True
            assert headers.get("Retry-After") == "1"
        finally:
            server._gauge_inflight(-1)

    def test_metrics_exposition(self, live_server):
        server, base = live_server
        _post(base + "/query", dict(FAST, wait=True))
        with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
            assert r.status == 200
            assert "text/plain" in r.headers["Content-Type"]
            text = r.read().decode()
        assert "repro_serve_queries 1" in text
        assert "repro_store_puts" in text
        assert "repro_serve_inflight 0" in text


class TestCircuitBreaker:
    def _breaker(self, **kw):
        clock = {"now": 0.0}
        kw.setdefault("failures", 2)
        kw.setdefault("cooldown", 10.0)
        return CircuitBreaker(clock=lambda: clock["now"], **kw), clock

    def test_validation(self):
        with pytest.raises(ValueError, match="failures"):
            CircuitBreaker(failures=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown=0)

    def test_full_state_machine(self):
        br, clock = self._breaker()
        assert br.state == "closed" and not br.blocking() and br.allow()
        br.record_failure()
        assert br.state == "closed"  # one short of the threshold
        br.record_failure()
        assert br.state == "open" and br.opens == 1
        assert br.blocking() and not br.allow()
        clock["now"] = 10.0  # cooldown elapsed
        assert not br.blocking()
        assert br.allow() and br.state == "half-open" and br.probes == 1
        # The single probe slot is consumed; everyone else is refused.
        assert br.blocking() and not br.allow()
        br.record_failure()  # failed probe: re-open for a full cooldown
        assert br.state == "open" and br.opens == 2
        clock["now"] = 20.0
        assert br.allow()
        br.record_success()
        assert br.state == "closed" and br.closes == 1
        assert not br.blocking() and br.allow()

    def test_success_resets_the_failure_streak(self):
        br, _ = self._breaker()
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"  # streak broken, not cumulative

    def test_transitions_emit_events(self):
        from repro.telemetry.events import (
            EventCollector, install_sink, remove_sink,
        )

        br, clock = self._breaker(failures=1)
        collector = install_sink(EventCollector())
        try:
            br.record_failure()
            clock["now"] = 10.0
            assert br.allow()
            br.record_success()
        finally:
            remove_sink(collector)
        kinds = [r["event"] for r in collector.records]
        assert kinds == ["circuit_open", "circuit_close"]
        assert collector.records[0]["failures"] == 1
        assert collector.records[0]["cooldown"] == 10.0
        assert collector.records[1]["probes"] == 1

    def test_gauge_mirrors_state(self):
        metrics = MetricsRegistry()
        br = CircuitBreaker(failures=1, metrics=metrics)
        assert "repro_serve_circuit_open 0" in metrics.to_prometheus("repro")
        br.record_failure()
        assert "repro_serve_circuit_open 1" in metrics.to_prometheus("repro")
        br.record_success()
        assert "repro_serve_circuit_open 0" in metrics.to_prometheus("repro")


class TestDegradedQueries:
    def _seeded_engine(self, tmp_path, **engine_kw):
        store = ResultStore(tmp_path / "store")
        engine = QueryEngine(store, workers=1, **engine_kw)
        engine.query(QuerySpec(**FAST))  # seed the 16-bit point
        return engine

    def _superset_spec(self):
        return QuerySpec(
            topologies=("mesh-2x2",), flit_widths=(16, 64),
            buffer_depths=(4,), anneal_iterations=50,
        )

    def test_open_circuit_serves_degraded_with_hints(self, tmp_path):
        metrics = MetricsRegistry()
        engine = self._seeded_engine(tmp_path, metrics=metrics)
        for _ in range(engine.breaker.failures):
            engine.breaker.record_failure()
        assert engine.breaker.state == "open"
        result = engine.query(self._superset_spec())
        assert result.degraded is True
        assert result.served_from == "store"
        assert result.store_misses == 1 and len(result.points) == 1
        [hint] = result.hints
        assert hint["missing"]["flit_width"] == 64
        assert hint["nearest"]["flit_width"] == 16
        assert hint["nearest"]["point"]["topology_name"] == "mesh2x2"
        doc = json.loads(json.dumps(result.as_dict()))
        assert doc["degraded"] is True and len(doc["hints"]) == 1
        assert "DEGRADED" in result.render()
        assert engine.degraded_queries == 1
        assert "repro_serve_degraded_queries 1" in metrics.to_prometheus("repro")

    def test_degrade_false_raises_farm_unavailable(self, tmp_path):
        engine = self._seeded_engine(tmp_path)
        for _ in range(engine.breaker.failures):
            engine.breaker.record_failure()
        with pytest.raises(FarmUnavailable, match="circuit is open"):
            engine.query(self._superset_spec(), degrade=False)

    def test_half_open_probe_recovers_the_farm(self, tmp_path):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failures=1, cooldown=5.0, clock=lambda: clock["now"]
        )
        store = ResultStore(tmp_path / "store")
        engine = QueryEngine(store, workers=1, breaker=breaker)
        engine.query(QuerySpec(**FAST))
        breaker.record_failure()
        assert breaker.state == "open"
        # Cooldown still running: degraded.
        degraded = engine.query(self._superset_spec())
        assert degraded.degraded is True
        # Cooldown over: the next query is the half-open probe, runs
        # the farm, and its success closes the circuit.
        clock["now"] = 6.0
        recovered = engine.query(self._superset_spec())
        assert recovered.degraded is False
        assert recovered.served_from == "farm"
        assert breaker.state == "closed" and breaker.closes == 1
        # Fully healthy again: a fresh miss goes straight to the farm.
        assert breaker.allow()

    def test_healthy_farm_path_untouched(self, tmp_path):
        engine = self._seeded_engine(tmp_path)
        result = engine.query(self._superset_spec())
        assert result.degraded is False and result.served_from == "farm"
        assert result.hints == []


class TestHttpErrorSchema:
    """Satellite: every HTTP error answers with one JSON shape."""

    def test_404_schema(self, live_server):
        _, base = live_server
        status, headers, doc = _req(base + "/nope")
        assert status == 404
        assert set(doc) == ERROR_KEYS
        assert doc["error"] == "not_found" and doc["retryable"] is False

    def test_405_schema_with_allow_header(self, live_server):
        _, base = live_server
        status, headers, doc = _req(
            base + "/healthz", raw=b"{}", method="POST"
        )
        assert status == 405
        assert set(doc) == ERROR_KEYS
        assert doc["error"] == "method_not_allowed"
        assert doc["retryable"] is False
        assert headers.get("Allow") == "GET"

    def test_bad_json_body_schema(self, live_server):
        _, base = live_server
        status, headers, doc = _req(base + "/query", raw=b"{not json")
        assert status == 400
        assert set(doc) == ERROR_KEYS
        assert doc["error"] == "bad_request"
        assert "bad JSON" in doc["detail"]

    def test_unknown_job_schema(self, live_server):
        _, base = live_server
        status, headers, doc = _req(base + "/jobs/job-9999")
        assert status == 404
        assert set(doc) == ERROR_KEYS
        assert doc["error"] == "not_found"

    def test_request_deadline_504(self, tmp_path):
        """A wedged handler answers 504 with the error schema and a
        Retry-After, instead of hanging the connection."""
        import time as _time

        store = ResultStore(tmp_path / "store")
        engine = QueryEngine(store, workers=1)
        engine.lookup = lambda spec: (_time.sleep(3), ([], []))[1]
        server = QueryServer(engine, port=0, request_timeout=0.4)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            host, port = asyncio.run_coroutine_threadsafe(
                server.start(), loop
            ).result(10)
            status, headers, doc = _req(
                f"http://{host}:{port}/query", data=dict(FAST)
            )
            assert status == 504
            assert set(doc) == ERROR_KEYS
            assert doc["error"] == "deadline" and doc["retryable"] is True
            assert "0.4" in doc["detail"]
            assert headers.get("Retry-After") == "1"
        finally:
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(5)

    def test_request_timeout_validation(self, tmp_path):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        with pytest.raises(ValueError, match="request_timeout"):
            QueryServer(engine, request_timeout=0)


class TestHttpDegraded:
    def test_open_circuit_gives_200_degraded_not_5xx(self, live_server):
        server, base = live_server
        q = dict(FAST, topologies=["mesh-2x2"], flit_widths=[16],
                 buffer_depths=[4], wait=True)
        status, doc = _post(base + "/query", q)
        assert status == 200  # seeded
        breaker = server.engine.breaker
        for _ in range(breaker.failures):
            breaker.record_failure()
        assert breaker.state == "open"
        try:
            superset = dict(FAST, topologies=["mesh-2x2"],
                            flit_widths=[16, 64], buffer_depths=[4])
            status, doc = _post(base + "/query", superset)
            assert status == 200
            assert doc["degraded"] is True
            assert doc["served_from"] == "store"
            assert len(doc["hints"]) == 1
            assert doc["hints"][0]["missing"]["flit_width"] == 64
            # healthz surfaces the breaker state.
            status, health = _get(base + "/healthz")
            assert health["circuit"] == "open"
        finally:
            breaker.record_success()
        status, health = _get(base + "/healthz")
        assert health["circuit"] == "closed"


def _point(**overrides):
    from repro.flow.dse import DesignPoint

    base = dict(
        topology_name="mesh2x2", flit_width=16, buffer_depth=4,
        latency_ns=20.0, area_mm2=0.6, power_mw=130.0,
        freq_mhz=1000.0, feasible=True,
    )
    base.update(overrides)
    return DesignPoint(**base)
