"""Async LLM contract tests: the dispatch resolver, abatched_generate,
and the async entry points of the concrete backends.

Async tests run through ``asyncio.run`` inside plain sync test
functions, so they need no pytest plugin; CI additionally installs
pytest-asyncio for downstream suites that prefer native async tests.
"""

import asyncio

import pytest

from repro.exec import AsyncioBackend
from repro.llm import (
    CachingLLM,
    DispatchPath,
    GenerationResult,
    PromptBuilder,
    ScriptedLLM,
    SimulatedLLM,
    abatched_generate,
    batched_generate,
    resolve_dispatch,
    run_coroutine,
)

BUILDER = PromptBuilder()


def _prompts(n):
    return [
        BUILDER.build("Who won the race?", [f"Runner {i} won the race in 201{i}."])
        for i in range(n)
    ]


class SyncOnly:
    name = "sync-only"

    def generate(self, prompt):
        return GenerationResult(answer="s", prompt=prompt)


class SyncBatch(SyncOnly):
    name = "sync-batch"

    def generate_batch(self, prompts):
        return [self.generate(p) for p in prompts]


class AsyncSingle(SyncOnly):
    """Per-prompt async model that records observed concurrency."""

    name = "async-single"

    def __init__(self, delay=0.0):
        self.delay = delay
        self.inflight = 0
        self.max_inflight = 0
        self.calls = 0

    async def agenerate(self, prompt):
        self.calls += 1
        self.inflight += 1
        self.max_inflight = max(self.max_inflight, self.inflight)
        await asyncio.sleep(self.delay)
        self.inflight -= 1
        return GenerationResult(answer="a", prompt=prompt)


class AsyncBatch(AsyncSingle):
    name = "async-batch"

    async def agenerate_batch(self, prompts):
        self.calls += len(prompts)
        return [GenerationResult(answer="ab", prompt=p) for p in prompts]


class MisalignedAsyncBatch(SyncOnly):
    name = "misaligned-async"

    async def agenerate_batch(self, prompts):
        return []


# -- resolver ----------------------------------------------------------------


def test_resolver_canonical_order_is_async_first():
    assert resolve_dispatch(AsyncBatch()) is DispatchPath.ASYNC_BATCH
    assert resolve_dispatch(AsyncSingle()) is DispatchPath.ASYNC_SINGLE
    assert resolve_dispatch(SyncBatch()) is DispatchPath.SYNC_BATCH
    assert resolve_dispatch(SyncOnly()) is DispatchPath.SEQUENTIAL
    assert resolve_dispatch(SyncOnly(), max_workers=4) is DispatchPath.THREAD_POOL
    assert resolve_dispatch(SyncOnly(), max_workers=1) is DispatchPath.SEQUENTIAL


def test_resolver_async_batch_beats_sync_batch():
    class Both(SyncBatch, AsyncBatch):
        name = "both"

    assert resolve_dispatch(Both()) is DispatchPath.ASYNC_BATCH
    assert resolve_dispatch(Both(), prefer_sync=True) is DispatchPath.SYNC_BATCH


def test_resolver_async_single_beats_thread_pool():
    assert resolve_dispatch(AsyncSingle(), max_workers=8) is DispatchPath.ASYNC_SINGLE


def test_resolver_on_shipped_models():
    assert resolve_dispatch(SimulatedLLM()) is DispatchPath.ASYNC_BATCH
    assert (
        resolve_dispatch(SimulatedLLM(), prefer_sync=True) is DispatchPath.SYNC_BATCH
    )
    assert resolve_dispatch(ScriptedLLM()) is DispatchPath.ASYNC_BATCH
    # The prompt cache is a sync stage: its backend owns async dispatch.
    cached = CachingLLM(SimulatedLLM(), AsyncioBackend())
    assert resolve_dispatch(cached) is DispatchPath.SYNC_BATCH


# -- abatched_generate -------------------------------------------------------


def test_abatched_generate_empty_is_free():
    model = AsyncSingle()
    assert asyncio.run(abatched_generate(model, [])) == []
    assert model.calls == 0


def test_abatched_generate_async_batch_path():
    model = AsyncBatch()
    prompts = _prompts(4)
    results = asyncio.run(abatched_generate(model, prompts))
    assert [r.prompt for r in results] == prompts
    assert [r.answer for r in results] == ["ab"] * 4


def test_abatched_generate_task_group_overlaps_calls():
    model = AsyncSingle(delay=0.01)
    results = asyncio.run(abatched_generate(model, _prompts(6)))
    assert len(results) == 6
    assert model.max_inflight == 6  # within the default cap: all in flight


def test_abatched_generate_max_inflight_bounds_concurrency():
    model = AsyncSingle(delay=0.01)
    asyncio.run(abatched_generate(model, _prompts(6), max_inflight=2))
    assert 1 <= model.max_inflight <= 2


def test_abatched_generate_sync_batch_off_loop():
    model = SyncBatch()
    results = asyncio.run(abatched_generate(model, _prompts(3)))
    assert [r.answer for r in results] == ["s"] * 3


def test_abatched_generate_thread_pool_and_sequential():
    results = asyncio.run(abatched_generate(SyncOnly(), _prompts(3), max_workers=2))
    assert len(results) == 3
    results = asyncio.run(abatched_generate(SyncOnly(), _prompts(3)))
    assert len(results) == 3


def test_abatched_generate_misaligned_batch_raises():
    with pytest.raises(RuntimeError, match="misaligned-async"):
        asyncio.run(abatched_generate(MisalignedAsyncBatch(), _prompts(2)))


def test_sync_batched_generate_drives_async_only_models():
    model = AsyncSingle()
    results = batched_generate(model, _prompts(3))
    assert [r.answer for r in results] == ["a"] * 3
    assert model.calls == 3


def test_run_coroutine_inside_running_loop():
    async def inner():
        return 41

    async def outer():
        # A sync helper invoked from async code must not deadlock.
        return run_coroutine(inner()) + 1

    assert asyncio.run(outer()) == 42


# -- async parity on the shipped models --------------------------------------


def test_simulated_async_entry_points_match_sync():
    llm = SimulatedLLM()
    prompts = _prompts(3)
    sync_answers = [llm.generate(p).answer for p in prompts]
    async_one = [asyncio.run(llm.agenerate(p)).answer for p in prompts]
    async_batch = [
        r.answer for r in asyncio.run(llm.agenerate_batch(prompts))
    ]
    assert sync_answers == async_one == async_batch


def test_scripted_async_counts_calls_identically():
    llm = ScriptedLLM(default="d")
    asyncio.run(llm.agenerate_batch(_prompts(3)))
    assert llm.calls == 3


def test_caching_llm_async_batch_partitions_hits_and_misses():
    inner = AsyncBatch()
    cached = CachingLLM(inner, AsyncioBackend())
    prompts = _prompts(4)
    first = cached.generate_batch(prompts + prompts[:2])
    assert len(first) == 6
    assert [r.answer for r in first] == ["ab"] * 6  # the native async batch ran
    assert inner.calls == 4  # distinct misses only
    assert cached.stats.hits == 2 and cached.stats.misses == 4
    second = cached.generate_batch(prompts)
    assert [r.answer for r in second] == [r.answer for r in first[:4]]
    assert inner.calls == 4  # all hits

    single = cached.generate(prompts[0])
    assert single.answer == first[0].answer
    assert inner.calls == 4


def test_caching_llm_forwards_max_inflight_to_inner_async_dispatch():
    inner = AsyncSingle(delay=0.01)
    cached = CachingLLM(inner, AsyncioBackend(max_inflight=2))
    cached.generate_batch(_prompts(6))
    assert inner.calls == 6
    assert 1 <= inner.max_inflight <= 2


def test_default_inflight_cap_applies_when_unspecified(monkeypatch):
    """No caller-chosen bound never means unbounded fan-out."""
    import repro.llm.base as base

    monkeypatch.setattr(base, "DEFAULT_MAX_INFLIGHT", 3)
    model = AsyncSingle(delay=0.01)
    asyncio.run(abatched_generate(model, _prompts(9)))
    assert 1 <= model.max_inflight <= 3


def test_nonsensical_max_inflight_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        asyncio.run(abatched_generate(AsyncSingle(), _prompts(2), max_inflight=0))
