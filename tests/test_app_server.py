"""The multi-tenant HTTP serving layer, end to end and hermetic.

Every request here crosses a real socket — but only on loopback: the
network guard installed by ``conftest`` fails anything that tries to
leave the machine.  The load-bearing assertions are *byte* equality
between served responses and the in-process engine (the server must be
a transport, never a different computation) and the per-tenant
admission bounds verified against the server's own journal.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from fakes import (
    CountingLLM,
    FakeLLMServer,
    LatencyLLM,
    http_json,
    simulated_answer_fn,
)

from repro import Rage, RageConfig, SimulatedLLM
from repro.app import RageSession
from repro.app.server import (
    DEFAULT_ADMIT_BURST,
    RageServer,
    ask_payload,
    encode_json,
    report_payload,
)
from repro.datasets import load_use_case
from repro.errors import ConfigError
from repro.llm.remote import RemoteLLM
from repro.llm.transport import RetryPolicy


@pytest.fixture()
def server():
    with RageServer.for_use_case("big_three", tenants=["alice", "bob"]) as srv:
        yield srv


def _reference_session(name="big_three", query=None, **config_kwargs):
    """An in-process session answering exactly like the server should."""
    case = load_use_case(name)
    config = RageConfig(k=case.k, **config_kwargs)
    session = RageSession.for_use_case(case, config=config)
    if query is not None:
        session.pose(query)
    return session


# ---------------------------------------------------------------------------
# Plumbing: health, routing, request validation


def test_healthz(server):
    status, _, body = http_json.get(server.base_url + "/healthz")
    payload = http_json.body_json(body)
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["tenants"] == 2


def test_unknown_paths_404(server):
    status, _, _ = http_json.get(server.base_url + "/nope")
    assert status == 404
    status, _, _ = http_json.post_json(server.base_url + "/nope", {"tenant": "alice"})
    assert status == 404


def test_request_validation(server):
    status, _, body = http_json.post_json(server.base_url + "/ask", {})
    assert status == 400 and b"tenant" in body
    status, _, _ = http_json.post_json(
        server.base_url + "/ask", {"tenant": "mallory"}
    )
    assert status == 404
    status, _, _ = http_json.post_raw(server.base_url + "/ask", b"{not json")
    assert status == 400
    status, _, body = http_json.post_json(
        server.base_url + "/explain", {"tenant": "alice", "sample_size": "many"}
    )
    assert status == 400 and b"sample_size" in body


def test_explain_before_ask_is_a_client_error(server):
    status, _, body = http_json.post_json(
        server.base_url + "/explain", {"tenant": "alice"}
    )
    assert status == 400
    assert b"pose a question first" in body


def test_server_constructor_validation():
    case = load_use_case("big_three")
    rage = Rage.from_corpus(
        case.corpus,
        SimulatedLLM(knowledge=case.knowledge),
        config=RageConfig(k=case.k),
    )
    with pytest.raises(ConfigError):
        RageServer(rage, tenants=[])
    with pytest.raises(ConfigError):
        RageServer(rage, tenants=["a", "a"])
    with pytest.raises(ConfigError):
        RageServer(rage, tenants=["a"], admit_burst=3)  # burst without rate
    with pytest.raises(ConfigError):
        # An explicit 0 must be rejected, not coerced to the default.
        RageServer(rage, tenants=["a"], admit_rate=5.0, admit_burst=0)


# ---------------------------------------------------------------------------
# Byte-identity with the in-process engine


def test_ask_matches_in_process_session(server):
    status, _, body = http_json.post_json(
        server.base_url + "/ask", {"tenant": "alice"}
    )
    assert status == 200
    reference = _reference_session()
    query, context, answer = reference.state()
    assert body == encode_json(ask_payload("alice", query, context, answer))


def test_explain_matches_in_process_report_byte_for_byte(server):
    http_json.post_json(server.base_url + "/ask", {"tenant": "alice"})
    status, _, body = http_json.post_json(
        server.base_url + "/explain", {"tenant": "alice"}
    )
    assert status == 200
    reference = _reference_session()
    assert body == encode_json(report_payload(reference.report()))


def test_explain_honors_sample_size(server):
    http_json.post_json(server.base_url + "/ask", {"tenant": "bob"})
    status, _, body = http_json.post_json(
        server.base_url + "/explain", {"tenant": "bob", "sample_size": 10}
    )
    assert status == 200
    reference = _reference_session()
    expected = encode_json(report_payload(reference.report(sample_size=10)))
    assert body == expected


def test_concurrent_multi_tenant_requests_stay_byte_identical():
    """The acceptance shape: N tenants asking and explaining at once,
    every response byte-identical to a fresh in-process engine."""
    case = load_use_case("big_three")
    queries = {
        "alice": case.query,
        "bob": "Who is the best tennis player by head to head record?",
        "carol": "Who won the most weeks at number one?",
    }
    expected = {}
    for tenant, query in queries.items():
        reference = _reference_session(query=query)
        ref_query, ref_context, ref_answer = reference.state()
        expected[tenant] = {
            "ask": encode_json(
                ask_payload(tenant, ref_query, ref_context, ref_answer)
            ),
            "explain": encode_json(report_payload(reference.report())),
        }

    results = {}
    errors = []

    def drive(base_url, tenant, query):
        try:
            ask_status, _, ask_body = http_json.post_json(
                base_url + "/ask", {"tenant": tenant, "query": query}
            )
            explain_status, _, explain_body = http_json.post_json(
                base_url + "/explain", {"tenant": tenant}
            )
            results[tenant] = (ask_status, ask_body, explain_status, explain_body)
        except Exception as error:  # pragma: no cover - diagnostic aid
            errors.append((tenant, error))

    with RageServer.for_use_case(
        "big_three", tenants=list(queries)
    ) as server:
        threads = [
            threading.Thread(target=drive, args=(server.base_url, tenant, query))
            for tenant, query in queries.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert set(results) == set(queries)
        for tenant in queries:
            ask_status, ask_body, explain_status, explain_body = results[tenant]
            assert ask_status == 200 and explain_status == 200
            assert ask_body == expected[tenant]["ask"]
            assert explain_body == expected[tenant]["explain"]
        # All six requests really went through the one shared engine.
        assert server.request_count() == 6
        assert server.rage.backend.stats.batches > 0


def test_concurrent_asks_on_one_tenant_answer_their_own_query():
    """Regression: /ask must answer from its *own* pose, not from the
    session's latest state — two racing asks on one tenant each get
    the answer to the question they sent."""
    case = load_use_case("big_three")
    queries = [
        case.query,
        "Who is the best tennis player by head to head record?",
    ]
    expected = {}
    for query in queries:
        reference = _reference_session(query=query)
        _, context, answer = reference.state()
        expected[query] = encode_json(ask_payload("a", query, context, answer))

    with RageServer.for_use_case("big_three", tenants=["a"]) as server:
        for _ in range(5):  # a handful of racing rounds
            bodies = {}

            def drive(query):
                status, _, body = http_json.post_json(
                    server.base_url + "/ask", {"tenant": "a", "query": query}
                )
                bodies[query] = (status, body)

            threads = [
                threading.Thread(target=drive, args=(query,))
                for query in queries
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            for query in queries:
                status, body = bodies[query]
                assert status == 200
                assert body == expected[query]


def test_crashing_model_becomes_500_json_and_is_journaled(server):
    tenant = server.tenant("alice")

    def exploding_ask(query, context=None, evaluator=None):
        raise RuntimeError("model fell over")

    real_ask = server.rage.ask
    server.rage.ask = exploding_ask
    try:
        status, _, body = http_json.post_json(
            server.base_url + "/ask", {"tenant": "alice"}
        )
    finally:
        server.rage.ask = real_ask
    assert status == 500
    assert http_json.body_json(body) == {"error": "RuntimeError: model fell over"}
    assert server.statuses("alice") == [500]
    # The session survives the crash and serves the next request.
    status, _, _ = http_json.post_json(server.base_url + "/ask", {"tenant": "alice"})
    assert status == 200
    assert tenant.admitted == 2


def test_failing_metrics_render_becomes_500_json(server):
    real_metrics = server.metrics_payload
    server.metrics_payload = lambda: (_ for _ in ()).throw(
        OSError("store vanished")
    )
    try:
        status, _, body = http_json.get(server.base_url + "/metrics")
    finally:
        server.metrics_payload = real_metrics
    assert status == 500
    assert http_json.body_json(body) == {"error": "OSError: store vanished"}
    status, _, _ = http_json.get(server.base_url + "/metrics")
    assert status == 200  # the server survives


def test_journal_is_bounded_but_totals_are_not():
    with RageServer.for_use_case(
        "big_three", tenants=["a"], journal_limit=3
    ) as server:
        for _ in range(7):
            http_json.post_json(server.base_url + "/ask", {"tenant": "a"})
        assert len(server.journal) == 3  # retention window
        assert server.request_count() == 7  # lifetime total
        metrics = json.loads(
            http_json.get(server.base_url + "/metrics")[2].decode("utf-8")
        )
        assert metrics["server"]["requests"] == 7
    with pytest.raises(ConfigError):
        RageServer.for_use_case("big_three", tenants=["a"], journal_limit=0)


def test_tenants_share_one_engine_cache():
    """Two tenants asking the same question pay the LLM once."""
    case = load_use_case("big_three")
    counting = CountingLLM(SimulatedLLM(knowledge=case.knowledge))
    rage = Rage.from_corpus(case.corpus, counting, config=RageConfig(k=case.k))
    with RageServer(rage, tenants=["a", "b"], default_query=case.query) as server:
        http_json.post_json(server.base_url + "/ask", {"tenant": "a"})
        calls_after_first = counting.calls
        http_json.post_json(server.base_url + "/ask", {"tenant": "b"})
        assert counting.calls == calls_after_first  # served from cache


# ---------------------------------------------------------------------------
# Admission: per-tenant 429 + Retry-After, verified against the journal


def test_admission_429_with_retry_after_and_refund():
    with RageServer.for_use_case(
        "big_three", tenants=["a", "b"], admit_rate=0.5, admit_burst=2
    ) as server:
        statuses = []
        retry_afters = []
        for _ in range(5):
            status, headers, body = http_json.post_json(
                server.base_url + "/ask", {"tenant": "a"}
            )
            statuses.append(status)
            if status == 429:
                retry_afters.append(
                    (float(headers["retry-after"]), http_json.body_json(body))
                )
        assert statuses[:2] == [200, 200]
        assert statuses[2:] == [429, 429, 429]
        for header_value, payload in retry_afters:
            assert header_value >= 1  # integral delta-seconds, ceiled
            assert payload["error"] == "rate limited"
            assert 0.0 < payload["retry_after"] <= 4.0
        # Rejections refund their reservation: the advertised wait must
        # not grow with each rejected request (the leak's signature was
        # retry_after climbing by 1/rate per rejection).
        waits = [payload["retry_after"] for _, payload in retry_afters]
        assert max(waits) - min(waits) < 1 / 0.5
        # The other tenant's bucket is untouched.
        status, _, _ = http_json.post_json(
            server.base_url + "/ask", {"tenant": "b"}
        )
        assert status == 200
        # Journal agrees with what clients observed.
        assert server.statuses("a") == statuses
        assert server.tenant("a").admitted == 2
        assert server.tenant("a").rejected == 3
        assert server.tenant("b").rejected == 0


def test_admission_bounds_hold_in_every_window():
    """Token-bucket contract at the server: admitted requests in any
    window W never exceed burst + rate * W."""
    rate, burst = 50.0, 3
    with RageServer.for_use_case(
        "big_three", tenants=["a"], admit_rate=rate, admit_burst=burst
    ) as server:
        for _ in range(30):
            http_json.post_json(server.base_url + "/ask", {"tenant": "a"})
        window = 0.2
        observed = server.max_admitted_per_window("a", window=window)
        # Journal stamps are admission-decision times; the +1 covers
        # stamp-vs-decision reordering between racing handler threads.
        assert observed <= burst + rate * window + 1
        assert server.tenant("a").admitted + server.tenant("a").rejected == 30


def test_unlimited_admission_without_rate():
    with RageServer.for_use_case("big_three", tenants=["a"]) as server:
        statuses = [
            http_json.post_json(server.base_url + "/ask", {"tenant": "a"})[0]
            for _ in range(8)
        ]
        assert statuses == [200] * 8
        assert server.tenant("a").admitted == 8
        assert server.tenant("a").rejected == 0


# ---------------------------------------------------------------------------
# Metrics


def test_metrics_schema_and_counters(tmp_path):
    config = RageConfig(k=4, cache_dir=str(tmp_path / "store"))
    with RageServer.for_use_case(
        "big_three",
        tenants=["alice", "bob"],
        config=config,
        admit_rate=100.0,
    ) as server:
        http_json.post_json(server.base_url + "/ask", {"tenant": "alice"})
        http_json.post_json(server.base_url + "/explain", {"tenant": "alice"})
        status, _, body = http_json.get(server.base_url + "/metrics")
        assert status == 200
        metrics = json.loads(body.decode("utf-8"))

        assert set(metrics) == {
            "server", "admission", "backend", "cache", "coalescing",
            "retrieval", "store", "remote", "router",
        }
        retrieval = metrics["retrieval"]
        assert retrieval["backend"] == "memory"
        assert retrieval["mode"] == "bm25"
        assert retrieval["fusion"] is None
        assert retrieval["documents"] > 0
        assert retrieval["vocabulary"] > 0
        assert metrics["server"]["tenants"] == ["alice", "bob"]
        assert metrics["server"]["requests"] == 2
        admission = metrics["admission"]
        assert set(admission) == {"alice", "bob"}
        assert admission["alice"]["admitted"] == 2
        assert admission["alice"]["rejected"] == 0
        assert admission["alice"]["rate"] == 100.0
        assert admission["alice"]["burst"] == DEFAULT_ADMIT_BURST
        assert admission["bob"]["admitted"] == 0
        backend = metrics["backend"]
        assert backend["name"] == "serial"
        assert backend["batches"] > 0 and backend["prompts"] > 0
        assert backend["max_active"] >= 1
        cache = metrics["cache"]
        assert cache["hits"] + cache["misses"] > 0
        coalescing = metrics["coalescing"]
        single_flight = coalescing["single_flight"]
        assert single_flight["enabled"] is True
        assert single_flight["flights"] == cache["misses"]
        assert single_flight["inflight_keys"] == 0  # quiescent server
        assert single_flight["waiters_served"] == 0  # serial requests
        assert set(coalescing) == {"single_flight"}
        # With the cache on, the backend runs the cache's misses only.
        assert backend["prompts"] == cache["misses"]
        store = metrics["store"]
        assert store["root"].endswith("store")
        assert store["writes"] > 0 and store["entries"] > 0
        assert store["bytes"] > 0
        assert metrics["remote"] is None  # simulated model, no transport
        assert metrics["router"] is None  # single model, no pool


def test_metrics_surface_remote_usage_and_transport_stats():
    """A remote-backed server reports RemoteLLM usage + TransportStats."""
    case = load_use_case("big_three")
    with FakeLLMServer(answer_fn=simulated_answer_fn(case.knowledge)) as fake:
        llm = RemoteLLM(
            "openai",
            "fake-model",
            base_url=fake.base_url,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
        )
        rage = Rage.from_corpus(case.corpus, llm, config=RageConfig(k=case.k))
        with RageServer(
            rage, tenants=["a"], default_query=case.query
        ) as server:
            status, _, body = http_json.post_json(
                server.base_url + "/ask", {"tenant": "a"}
            )
            assert status == 200
            assert http_json.body_json(body)["answer"] == "Roger Federer"
            metrics = json.loads(
                http_json.get(server.base_url + "/metrics")[2].decode("utf-8")
            )
            remote = metrics["remote"]
            assert remote["model"] == "remote:openai/fake-model"
            assert remote["usage"]["calls"] == fake.request_count > 0
            assert remote["usage"]["total_tokens"] > 0
            assert remote["transport"]["requests"] == fake.request_count
            assert remote["transport"]["retries"] == 0


# ---------------------------------------------------------------------------
# Shared persistent store across server lifetimes


def test_second_server_answers_warm_from_shared_store(tmp_path):
    store_dir = str(tmp_path / "store")
    case = load_use_case("big_three")

    def build():
        counting = CountingLLM(SimulatedLLM(knowledge=case.knowledge))
        rage = Rage.from_corpus(
            case.corpus,
            counting,
            config=RageConfig(k=case.k, cache_dir=store_dir),
        )
        return counting, RageServer(rage, tenants=["a"], default_query=case.query)

    counting_cold, server_cold = build()
    with server_cold:
        http_json.post_json(server_cold.base_url + "/ask", {"tenant": "a"})
        cold_body = http_json.post_json(
            server_cold.base_url + "/explain", {"tenant": "a"}
        )[2]
    assert counting_cold.calls > 0

    counting_warm, server_warm = build()
    with server_warm:
        http_json.post_json(server_warm.base_url + "/ask", {"tenant": "a"})
        warm_body = http_json.post_json(
            server_warm.base_url + "/explain", {"tenant": "a"}
        )[2]
        metrics = json.loads(
            http_json.get(server_warm.base_url + "/metrics")[2].decode("utf-8")
        )
    assert counting_warm.calls == 0  # every generation came from disk
    assert warm_body == cold_body
    assert metrics["store"]["hits"] > 0

    # Both server lifetimes persisted their counters without clobbering
    # each other (the _meta lost-update bugfix, via RageServer.close).
    from repro.llm.store import PromptStore

    merged = PromptStore(store_dir).read_meta()
    assert merged["writes"] == counting_cold.calls
    assert merged["hits"] >= metrics["store"]["hits"]


# ---------------------------------------------------------------------------
# Readiness-aware /healthz, router metrics, graceful drain


def _dead_base_url():
    """A loopback URL nothing listens on (connections refused)."""
    with FakeLLMServer() as probe:
        url = probe.base_url
    return url


def _pool_server(providers, tenants=("a",), **config_kwargs):
    case = load_use_case("big_three")
    config = RageConfig(
        k=case.k, providers=providers, retries=0, **config_kwargs
    )
    return RageServer.for_use_case(case, list(tenants), config=config)


def test_healthz_reports_providers_for_a_router_pool():
    with _pool_server(("fallback:simulated",)) as server:
        status, _, body = http_json.get(server.base_url + "/healthz")
        payload = http_json.body_json(body)
        assert status == 200
        assert payload["status"] == "ok"
        providers = payload["providers"]
        assert len(providers) == 1
        assert set(providers[0]) == {"name", "state", "available"}
        assert providers[0]["state"] == "closed"
        assert providers[0]["available"] is True


def test_healthz_degraded_when_a_breaker_is_open():
    providers = (
        f"remote:openai:fake-a@{_dead_base_url()}",
        "fallback:simulated",
    )
    with _pool_server(providers, breaker_threshold=1) as server:
        # The request still answers (fallback serves) ...
        status, _, body = http_json.post_json(
            server.base_url + "/ask", {"tenant": "a"}
        )
        assert status == 200
        assert http_json.body_json(body)["answer"] == "Roger Federer"
        # ... but readiness now says the primary's breaker is open.
        status, _, body = http_json.get(server.base_url + "/healthz")
        payload = http_json.body_json(body)
        assert status == 200
        assert payload["status"] == "degraded"
        assert "remote:openai/fake-a" in payload["detail"]
        states = {p["name"]: p["state"] for p in payload["providers"]}
        assert states["remote:openai/fake-a"] == "open"


def test_healthz_unhealthy_when_no_provider_is_available():
    providers = (f"remote:openai:fake-a@{_dead_base_url()}",)
    with _pool_server(providers, breaker_threshold=1) as server:
        status, _, _ = http_json.post_json(
            server.base_url + "/ask", {"tenant": "a"}
        )
        assert status == 500  # the pool was exhausted
        status, _, body = http_json.get(server.base_url + "/healthz")
        payload = http_json.body_json(body)
        assert status == 503
        assert payload["status"] == "unhealthy"
        assert payload["detail"] == "no provider available"


def test_metrics_surface_router_breaker_state_and_attribution():
    providers = (
        f"remote:openai:fake-a@{_dead_base_url()}",
        "fallback:simulated",
    )
    with _pool_server(providers, breaker_threshold=1) as server:
        http_json.post_json(server.base_url + "/ask", {"tenant": "a"})
        metrics = json.loads(
            http_json.get(server.base_url + "/metrics")[2].decode("utf-8")
        )
        router = metrics["router"]
        assert router["requests"] >= 1
        assert router["failovers"] >= 1
        assert router["hedges_fired"] == 0
        by_name = {p["name"]: p for p in router["providers"]}
        primary = by_name["remote:openai/fake-a"]
        assert primary["state"] == "open"
        assert primary["trips"] == 1
        assert primary["failures"] >= 1
        fallback = next(
            p for name, p in by_name.items() if name.startswith("simulated")
        )
        assert fallback["state"] == "closed"
        assert fallback["calls"] >= 1
        # A router-backed server reports through "router", not "remote".
        assert metrics["remote"] is None


def test_draining_server_rejects_new_posts_but_finishes_inflight():
    case = load_use_case("big_three")
    slow = LatencyLLM(SimulatedLLM(knowledge=case.knowledge), latency=0.6)
    rage = Rage.from_corpus(case.corpus, slow, config=RageConfig(k=case.k))
    server = RageServer(
        rage, tenants=["a"], default_query=case.query, drain_window=10.0
    )
    server.start()
    results = {}

    def slow_ask():
        results["inflight"] = http_json.post_json(
            server.base_url + "/ask", {"tenant": "a"}
        )

    worker = threading.Thread(target=slow_ask)
    worker.start()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:  # wait until the POST is in flight
        with server._lock:
            if server._inflight > 0:
                break
        time.sleep(0.01)

    closer = threading.Thread(target=server.close)
    closer.start()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:  # wait until the drain has begun
        with server._lock:
            if server._draining:
                break
        time.sleep(0.01)

    # New work is refused with 503 + Retry-After while draining...
    status, headers, body = http_json.post_json(
        server.base_url + "/ask", {"tenant": "a"}
    )
    assert status == 503
    assert "draining" in http_json.body_json(body)["error"]
    assert int(headers["retry-after"]) >= 1
    # ...GETs stay readable and report the drain...
    status, _, body = http_json.get(server.base_url + "/healthz")
    assert status == 503
    assert http_json.body_json(body)["status"] == "draining"

    worker.join(timeout=10.0)
    closer.join(timeout=10.0)
    assert not closer.is_alive()
    # ...and the in-flight request finished normally during the drain.
    status, _, body = results["inflight"]
    assert status == 200
    assert http_json.body_json(body)["answer"] == "Roger Federer"


def test_drain_window_bounds_a_hung_handler():
    case = load_use_case("big_three")
    slow = LatencyLLM(SimulatedLLM(knowledge=case.knowledge), latency=3.0)
    rage = Rage.from_corpus(case.corpus, slow, config=RageConfig(k=case.k))
    server = RageServer(
        rage, tenants=["a"], default_query=case.query, drain_window=0.2
    )
    server.start()
    worker = threading.Thread(
        target=lambda: http_json.post_json(
            server.base_url + "/ask", {"tenant": "a"}, timeout=10.0
        )
    )
    worker.start()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with server._lock:
            if server._inflight > 0:
                break
        time.sleep(0.01)
    started = time.monotonic()
    assert server.drain() is False  # the bound expired, not the handler
    assert time.monotonic() - started < 1.0
    server.close()  # still shuts down despite the straggler
    worker.join(timeout=10.0)


def test_drain_window_validation():
    case = load_use_case("big_three")
    rage = Rage.from_corpus(
        case.corpus, SimulatedLLM(knowledge=case.knowledge),
        config=RageConfig(k=case.k),
    )
    with pytest.raises(ConfigError):
        RageServer(rage, tenants=["a"], drain_window=0.0)


# ---------------------------------------------------------------------------
# Retrieval: per-source scores in payloads, per-request k, sqlite metrics


def test_ask_payload_carries_retrieval_scores(server):
    status, _, body = http_json.post_json(
        server.base_url + "/ask", {"tenant": "alice"}
    )
    assert status == 200
    payload = http_json.body_json(body)
    retrieval = payload["retrieval"]
    assert retrieval, "ask payload must carry the retrieval ranking"
    assert [entry["rank"] for entry in retrieval] == list(
        range(1, len(retrieval) + 1)
    )
    # Ranks follow the scores the engine actually assigned.
    scores = [entry["score"] for entry in retrieval]
    assert scores == sorted(scores, reverse=True)
    reference = _reference_session(query=None)
    context = reference.rage.retrieve(payload["query"])
    assert [entry["doc_id"] for entry in retrieval] == [
        source.document.doc_id for source in context.sources
    ]


def test_explain_payload_carries_retrieval_scores(server):
    http_json.post_json(server.base_url + "/ask", {"tenant": "alice"})
    status, _, body = http_json.post_json(
        server.base_url + "/explain", {"tenant": "alice"}
    )
    assert status == 200
    payload = http_json.body_json(body)
    assert payload["retrieval"]
    assert {"doc_id", "rank", "score"} == set(payload["retrieval"][0])


def test_ask_honors_per_request_k(server):
    status, _, body = http_json.post_json(
        server.base_url + "/ask", {"tenant": "alice", "k": 2}
    )
    assert status == 200
    payload = http_json.body_json(body)
    assert len(payload["retrieval"]) == 2
    # Byte-identity against the in-process engine at the same depth.
    reference = _reference_session()
    query = payload["query"]
    context = reference.rage.retrieve(query, k=2)
    answer = reference.rage.ask(query, context=context).answer
    assert body == encode_json(ask_payload("alice", query, context, answer))


@pytest.mark.parametrize("bad_k", [0, -3, True, "2", 1.5])
def test_ask_rejects_bad_k(server, bad_k):
    status, _, body = http_json.post_json(
        server.base_url + "/ask", {"tenant": "alice", "k": bad_k}
    )
    assert status == 400
    assert b"k must be a positive integer" in body


def test_metrics_retrieval_block_for_sqlite_backend(tmp_path):
    case = load_use_case("big_three")
    config = RageConfig(
        k=case.k,
        index_dir=str(tmp_path / "ix"),
        retrieval_mode="hybrid",
        fusion="rrf",
    )
    rage = Rage.from_corpus(
        case.corpus, SimulatedLLM(knowledge=case.knowledge), config=config
    )
    with RageServer(rage, tenants=["alice"], default_query=case.query) as srv:
        http_json.post_json(srv.base_url + "/ask", {"tenant": "alice"})
        status, _, body = http_json.get(srv.base_url + "/metrics")
    assert status == 200
    retrieval = http_json.body_json(body)["retrieval"]
    assert retrieval["backend"] == "sqlite"
    assert retrieval["mode"] == "hybrid"
    assert retrieval["fusion"] == "rrf"
    assert retrieval["documents"] == len(case.corpus)
    assert retrieval["path"].endswith("ix/index.db")
    assert retrieval["bytes"] > 0
    counters = retrieval["counters"]
    assert counters["added"] == len(case.corpus)
    assert counters["searches"] >= 1


def test_sqlite_server_answers_match_memory_backend(tmp_path):
    """The persistent index is a storage change, not a ranking change:
    BM25 answers served from SQLite must be byte-identical to the
    in-memory engine's."""
    case = load_use_case("big_three")
    config = RageConfig(k=case.k, index_dir=str(tmp_path / "ix"))
    rage = Rage.from_corpus(
        case.corpus, SimulatedLLM(knowledge=case.knowledge), config=config
    )
    with RageServer(rage, tenants=["alice"], default_query=case.query) as srv:
        status, _, body = http_json.post_json(
            srv.base_url + "/ask", {"tenant": "alice"}
        )
    assert status == 200
    reference = _reference_session()
    query, context, answer = reference.state()
    assert body == encode_json(ask_payload("alice", query, context, answer))


def test_served_requests_do_not_accumulate_index_connections(tmp_path):
    """Each request runs on its own short-lived thread; the persistent
    index must lend those threads pooled connections, not keep one per
    thread until close()."""
    from repro.retrieval.sqlindex import MAX_IDLE_CONNECTIONS

    case = load_use_case("big_three")
    config = RageConfig(k=case.k, index_dir=str(tmp_path / "ix"))
    rage = Rage.from_corpus(
        case.corpus, SimulatedLLM(knowledge=case.knowledge), config=config
    )
    with RageServer(rage, tenants=["alice"], default_query=case.query) as srv:
        for _ in range(20):
            status, _, _ = http_json.post_json(
                srv.base_url + "/ask", {"tenant": "alice"}
            )
            assert status == 200
        assert len(rage.index._connections) <= MAX_IDLE_CONNECTIONS


def test_metrics_backend_prompts_equal_cache_misses_under_concurrency():
    """Concurrent tenants share one cache; its misses are the only
    prompts the backend ever runs."""
    tenants = ["t0", "t1", "t2"]
    statuses = []

    def ask_then_explain(base_url, tenant):
        for path in ("/ask", "/explain"):
            status, _, _ = http_json.post_json(base_url + path, {"tenant": tenant})
            statuses.append(status)

    with RageServer.for_use_case("big_three", tenants=tenants) as server:
        threads = [
            threading.Thread(target=ask_then_explain, args=(server.base_url, tenant))
            for tenant in tenants
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        status, _, body = http_json.get(server.base_url + "/metrics")
    assert status == 200 and statuses == [200] * 6
    metrics = http_json.body_json(body)
    assert metrics["cache"]["misses"] > 0
    assert metrics["backend"]["prompts"] == metrics["cache"]["misses"]
