"""Execution-backend tests: strategies, factory, and the wiring through
ContextEvaluator and the engine."""

import asyncio
import threading

import pytest

from repro import Rage, RageConfig, SimulatedLLM
from repro.app.server import encode_json, report_payload
from repro.core.evaluate import ContextEvaluator
from repro.errors import ConfigError
from repro.exec import (
    DEFAULT_THREAD_WORKERS,
    AsyncioBackend,
    ExecutionBackend,
    SerialBackend,
    ThreadedBackend,
    make_backend,
)
from repro.llm import CachingLLM, GenerationResult, PromptBuilder

BUILDER = PromptBuilder()


def _prompts(n):
    return [
        BUILDER.build("Who won the race?", [f"Runner {i} won the race in 201{i}."])
        for i in range(n)
    ]


class Instrumented:
    """Sync+async per-prompt model recording threads and concurrency."""

    name = "instrumented"

    def __init__(self):
        self.calls = 0
        self.threads = set()
        self.inflight = 0
        self.max_inflight = 0
        self._lock = threading.Lock()

    def _answer(self, prompt):
        return GenerationResult(answer=f"len-{len(prompt) % 5}", prompt=prompt)

    def generate(self, prompt):
        with self._lock:
            self.calls += 1
            self.threads.add(threading.get_ident())
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            return self._answer(prompt)
        finally:
            with self._lock:
                self.inflight -= 1

    async def agenerate(self, prompt):
        with self._lock:
            self.calls += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        await asyncio.sleep(0.002)
        with self._lock:
            self.inflight -= 1
        return self._answer(prompt)


class NativeBatch(Instrumented):
    name = "native-batch"

    def __init__(self):
        super().__init__()
        self.batches = 0

    def generate_batch(self, prompts):
        self.batches += 1
        self.calls += len(prompts)
        return [self._answer(p) for p in prompts]


# -- the factory -------------------------------------------------------------


def test_make_backend_specs():
    assert isinstance(make_backend("serial"), SerialBackend)
    threaded = make_backend("threaded:5")
    assert isinstance(threaded, ThreadedBackend) and threaded.max_workers == 5
    assert make_backend("threaded").max_workers == DEFAULT_THREAD_WORKERS
    unbounded = make_backend("asyncio")
    assert isinstance(unbounded, AsyncioBackend) and unbounded.max_inflight is None
    assert make_backend("asyncio:16").max_inflight == 16
    assert make_backend(" serial ").name == "serial"


def test_make_backend_default_resolution():
    assert isinstance(make_backend(None), SerialBackend)
    assert make_backend(None).name == "serial"
    assert make_backend(None, timeout=2.0).timeout == 2.0


@pytest.mark.parametrize(
    "spec", ["", "gpu", "serial:2", "threaded:x", "asyncio:", "asyncio:0", "threaded:0"]
)
def test_make_backend_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        make_backend(spec)


def test_backend_names_and_capacity():
    assert SerialBackend().name == "serial" and SerialBackend().capacity == 1
    assert ThreadedBackend(6).name == "threaded:6" and ThreadedBackend(6).capacity == 6
    assert AsyncioBackend().name == "asyncio" and AsyncioBackend().capacity is None
    assert AsyncioBackend(9).name == "asyncio:9" and AsyncioBackend(9).capacity == 9


# -- strategy behavior -------------------------------------------------------


def test_serial_backend_is_strictly_sequential():
    model = Instrumented()
    results = SerialBackend().run(model, _prompts(5))
    assert len(results) == 5
    assert model.max_inflight == 1
    assert model.threads == {threading.get_ident()}


def test_serial_backend_uses_native_batch():
    model = NativeBatch()
    SerialBackend().run(model, _prompts(5))
    assert model.batches == 1


def test_threaded_backend_spreads_over_pool():
    barrier = threading.Barrier(4, timeout=10)

    class Rendezvous(Instrumented):
        """Only passes if 4 generate() calls are truly concurrent."""

        def generate(self, prompt):
            barrier.wait()
            return super().generate(prompt)

    model = Rendezvous()
    results = ThreadedBackend(4).run(model, _prompts(8))
    assert len(results) == 8
    assert model.calls == 8
    assert len(model.threads) == 4


def test_threaded_backend_prefers_native_batch():
    model = NativeBatch()
    ThreadedBackend(4).run(model, _prompts(8))
    assert model.batches == 1
    assert not model.threads  # no per-prompt generate() calls at all


def test_asyncio_backend_overlaps_and_bounds_inflight():
    model = Instrumented()
    results = AsyncioBackend().run(model, _prompts(6))
    assert len(results) == 6
    assert model.max_inflight == 6
    bounded = Instrumented()
    AsyncioBackend(max_inflight=2).run(bounded, _prompts(6))
    assert 1 <= bounded.max_inflight <= 2


def test_base_backend_run_is_abstract():
    with pytest.raises(NotImplementedError):
        ExecutionBackend().run(Instrumented(), _prompts(1))


def test_backends_produce_identical_results():
    prompts = _prompts(7)
    outputs = []
    for backend in (SerialBackend(), ThreadedBackend(3), AsyncioBackend(4)):
        outputs.append([r.answer for r in backend.run(Instrumented(), prompts)])
    assert outputs[0] == outputs[1] == outputs[2]


# -- evaluator and engine wiring ---------------------------------------------


def test_evaluator_submits_through_backend(big_three_engine, big_three):
    context = big_three_engine.retrieve(big_three.query)
    model = NativeBatch()
    backend_used = []

    class Spy(SerialBackend):
        def run(self, llm, prompts):
            backend_used.append(len(prompts))
            return super().run(llm, prompts)

    evaluator = ContextEvaluator(model, context, backend=Spy())
    ids = context.doc_ids()
    evaluator.evaluate_many([ids, ids[:2], ids[:1]])
    assert backend_used == [3]
    # Memo hits never reach the backend.
    evaluator.evaluate_many([ids, ids[:2]])
    assert backend_used == [3]


def test_evaluator_default_backend_is_serial(big_three_engine, big_three):
    context = big_three_engine.retrieve(big_three.query)
    plain = ContextEvaluator(NativeBatch(), context)
    assert isinstance(plain.backend, SerialBackend)
    pooled = ContextEvaluator(NativeBatch(), context, backend=ThreadedBackend(4))
    assert isinstance(pooled.backend, ThreadedBackend)
    assert pooled.backend.max_workers == 4


def test_engine_builds_backend_from_config(big_three):
    rage = Rage.from_corpus(
        big_three.corpus,
        SimulatedLLM(knowledge=big_three.knowledge),
        config=RageConfig(k=big_three.k, backend="asyncio:7"),
    )
    assert isinstance(rage.backend, AsyncioBackend)
    assert rage.backend.max_inflight == 7
    assert isinstance(rage.llm, CachingLLM)
    assert rage.llm.backend is rage.backend  # the cache's misses run there


def test_engine_threaded_backend_reaches_cache_workers(big_three):
    barrier = threading.Barrier(5, timeout=10)

    class Rendezvous(Instrumented):
        def generate(self, prompt):
            barrier.wait()  # passes only with five calls in flight at once
            return super().generate(prompt)

    inner = Rendezvous()
    rage = Rage.from_corpus(
        big_three.corpus, inner, config=RageConfig(k=big_three.k, backend="threaded:5")
    )
    results = rage.llm.generate_batch(_prompts(10))
    assert len(results) == 10
    assert len(inner.threads) == 5
    assert threading.get_ident() not in inner.threads


def test_config_rejects_bad_backend_spec():
    with pytest.raises(ConfigError):
        RageConfig(backend="warp-drive")


def test_config_cache_dir_requires_cache():
    with pytest.raises(ConfigError):
        RageConfig(cache=False, cache_dir="/tmp/x")
    with pytest.raises(ConfigError):
        RageConfig(cache_max_bytes=0)


def test_explain_identical_across_backends(big_three):
    reports = {}
    for spec in ("serial", "threaded:4", "asyncio:8"):
        rage = Rage.from_corpus(
            big_three.corpus,
            SimulatedLLM(knowledge=big_three.knowledge),
            config=RageConfig(k=big_three.k, backend=spec),
        )
        report = rage.explain(big_three.query)
        reports[spec] = (
            report.answer,
            report.top_down.counterfactual,
            report.bottom_up.counterfactual,
            report.llm_calls,
            [(s.answer, s.count) for s in report.combination_insights.pie()],
            encode_json(report_payload(report)),
        )
    assert reports["serial"] == reports["threaded:4"] == reports["asyncio:8"]


def test_engine_disk_store_warm_run_hits(big_three, tmp_path):
    config = RageConfig(k=big_three.k, cache_dir=str(tmp_path / "store"))
    cold = Rage.from_corpus(
        big_three.corpus, SimulatedLLM(knowledge=big_three.knowledge), config=config
    )
    answer = cold.ask(big_three.query).answer
    assert cold.store.stats.writes > 0

    class Exploding(SimulatedLLM):
        def generate(self, prompt):  # pragma: no cover - must not be reached
            raise AssertionError("warm run must not touch the model")

        def generate_batch(self, prompts):  # pragma: no cover
            raise AssertionError("warm run must not touch the model")

    warm = Rage.from_corpus(
        big_three.corpus, Exploding(knowledge=big_three.knowledge), config=config
    )
    assert warm.ask(big_three.query).answer == answer
    assert warm.llm.stats.disk_hits > 0


def test_serial_backend_stays_serial_through_cache(big_three):
    """SerialBackend's capacity=1 bounds an async-capable *inner* model
    behind the engine's cache, not just the outer dispatch."""
    inner = Instrumented()
    rage = Rage.from_corpus(
        big_three.corpus, inner, config=RageConfig(k=big_three.k, backend="serial")
    )
    results = rage.llm.generate_batch(_prompts(6))
    assert len(results) == 6
    assert inner.calls == 6
    assert inner.max_inflight == 1
    assert inner.threads == {threading.get_ident()}


def test_asyncio_capacity_survives_cache_boundary(big_three):
    inner = Instrumented()
    rage = Rage.from_corpus(
        big_three.corpus, inner, config=RageConfig(k=big_three.k, backend="asyncio:3")
    )
    rage.llm.generate_batch(_prompts(9))
    assert inner.calls == 9
    assert 1 <= inner.max_inflight <= 3


def test_backend_sees_only_cache_misses(big_three, tmp_path):
    """With the cache on, the backend runs misses only: a warm engine
    over a filled store submits nothing at all."""
    config = RageConfig(k=big_three.k, cache_dir=str(tmp_path / "store"))
    cold = Rage.from_corpus(
        big_three.corpus, SimulatedLLM(knowledge=big_three.knowledge), config=config
    )
    expected = cold.explain(big_three.query)
    assert cold.backend.stats.prompts == cold.llm.stats.misses > 0
    warm = Rage.from_corpus(
        big_three.corpus, SimulatedLLM(knowledge=big_three.knowledge), config=config
    )
    report = warm.explain(big_three.query)
    assert warm.backend.stats.prompts == 0
    assert warm.backend.stats.batches == 0
    assert warm.llm.stats.misses == 0 and warm.llm.stats.disk_hits > 0
    assert report.llm_calls == expected.llm_calls
    assert report.top_down.counterfactual == expected.top_down.counterfactual


def test_asyncio_backend_threads_sync_only_models():
    """asyncio:N on a model with only generate() must still deliver
    N-way concurrency (thread pool), not a silent sequential loop."""
    barrier = threading.Barrier(4, timeout=10)

    class SyncOnly:
        name = "sync-only"

        def __init__(self):
            self.threads = set()
            self._lock = threading.Lock()

        def generate(self, prompt):
            barrier.wait()
            with self._lock:
                self.threads.add(threading.get_ident())
            return GenerationResult(answer="s", prompt=prompt)

    model = SyncOnly()
    results = AsyncioBackend(max_inflight=4).run(model, _prompts(8))
    assert len(results) == 8
    assert len(model.threads) == 4


# ---------------------------------------------------------------------------
# BackendStats: submission accounting for the serving layer's /metrics


def test_backend_stats_count_batches_and_prompts():
    backend = SerialBackend()
    model = Instrumented()
    backend.run(model, _prompts(4))
    backend.run(model, _prompts(2))
    assert backend.stats.batches == 2
    assert backend.stats.prompts == 6
    assert backend.stats.active == 0
    assert backend.stats.max_active == 1


def test_backend_stats_track_overlapping_submitters():
    """max_active > 1 exactly when concurrent callers (server request
    threads) overlap on one shared backend."""
    import time

    backend = ThreadedBackend(2)

    class Slow:
        name = "slow"

        def generate(self, prompt):
            time.sleep(0.05)
            return GenerationResult(answer="ok", prompt=prompt)

    barrier = threading.Barrier(2)

    def submit():
        barrier.wait(timeout=5.0)
        backend.run(Slow(), _prompts(2))

    threads = [threading.Thread(target=submit) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert backend.stats.batches == 2
    assert backend.stats.max_active == 2
    assert backend.stats.active == 0
