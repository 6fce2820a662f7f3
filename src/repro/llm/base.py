"""Language-model interface: what RAGE requires of an LLM.

The paper runs Llama-2-7B-chat but notes the software "is fully
compatible with any similar transformer-based LLM".  We keep that
property: everything above this layer sees only :class:`LanguageModel`
— a name plus ``generate(prompt) -> GenerationResult``.  The simulated
model (:mod:`repro.llm.simulated`) and the caching wrapper
(:mod:`repro.llm.cache`) both implement it; a Hugging Face client could
be slotted in without touching the explanation code.

The batching contract
---------------------
Every RAGE explanation reduces to evaluating *many* prompts against the
same model, so backends may additionally implement any of::

    generate_batch(prompts: Sequence[str]) -> List[GenerationResult]
    agenerate(prompt: str) -> Awaitable[GenerationResult]
    agenerate_batch(prompts: Sequence[str]) -> Awaitable[List[GenerationResult]]

with these guarantees, which all callers rely on:

* **Alignment** — exactly one result per input prompt, in input order.
* **Equivalence** — ``generate_batch(ps)[i].answer`` equals
  ``generate(ps[i]).answer`` for deterministic models, and the async
  entry points answer exactly as their sync counterparts (usage and
  diagnostics are populated on every path).
* **No partial failure** — a backend either answers every prompt or
  raises; callers never receive a short list.

All four non-``generate`` entry points are *optional*:
:func:`resolve_dispatch` is the single resolver that inspects a model
and picks the best execution strategy, in this canonical order:

1. ``agenerate_batch`` — native async batch (remote APIs with their own
   batching endpoint).
2. ``generate_batch`` — native sync batch (vectorized simulation,
   padded transformer batches).
3. ``agenerate`` — an asyncio task group of per-prompt calls, bounded
   by ``max_inflight``.
4. A thread pool of concurrent ``generate`` calls — only useful for
   backends that release the GIL or wait on I/O.
5. A plain sequential loop.

:func:`batched_generate` (sync callers) and :func:`abatched_generate`
(async callers) both execute whatever the resolver picks; sync callers
prefer a native sync batch over spinning an event loop when both exist
(``prefer_sync=True``), which changes nothing observable — answers are
identical either way.  Callers never probe for these methods
themselves: the :mod:`repro.exec` backends call these helpers, and own
every execution-policy decision beyond per-call dispatch (width,
in-flight bound, deadline).

Attention on request
--------------------
A model that exposes its attention additionally implements::

    attention(prompt: str) -> List[float]

returning, for each source in the prompt and in prompt order, the
attention the answer position pays to that source's tokens, summed
over all layers, heads and tokens (0.0 for a source with no tokens).
It is the only input to the paper's attention-based relevance method
(:class:`repro.core.scoring.AttentionRelevance`), which calls it once
per explanation on the model itself: attention is never part of a
:class:`GenerationResult`, so it is never cached, stored or batched.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Coroutine,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..errors import BatchContractError, ConfigError, GenerationTimeoutError


@dataclass(frozen=True)
class TokenUsage:
    """Token accounting for one generation call."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        """Prompt plus completion tokens."""
        return self.prompt_tokens + self.completion_tokens


@dataclass
class GenerationResult:
    """Everything one LLM call returns.

    Attributes
    ----------
    answer:
        The raw answer string (pre-normalization).
    prompt:
        The exact prompt that produced it.
    usage:
        Token accounting.
    diagnostics:
        Model-specific extras; the simulated model reports the candidate
        vote tally and the detected question intent here.  Purely
        informational — the explanation algorithms never read it.
    """

    answer: str
    prompt: str
    usage: TokenUsage = field(default_factory=TokenUsage)
    diagnostics: Dict[str, object] = field(default_factory=dict)


@runtime_checkable
class LanguageModel(Protocol):
    """The minimal LLM contract the explanation layer depends on."""

    @property
    def name(self) -> str:
        """Human-readable model identifier (reports, cache keys)."""
        ...

    def generate(self, prompt: str) -> GenerationResult:
        """Produce an answer for a fully-rendered prompt."""
        ...


#: Concurrency cap applied to the per-prompt async task group when the
#: caller does not pick its own ``max_inflight``.  Unbounded fan-out is
#: never the default: a 4000-prompt plan batch against a remote API
#: must not open 4000 simultaneous requests because nobody chose a
#: bound.  Pick a larger (or smaller) bound explicitly where it
#: matters — e.g. ``asyncio:1000``.
DEFAULT_MAX_INFLIGHT = 64


class DispatchPath(Enum):
    """How a batch of prompts will be executed against a model.

    Values order from most to least capable; :func:`resolve_dispatch`
    picks the first one the model supports.
    """

    ASYNC_BATCH = "async-batch"
    SYNC_BATCH = "sync-batch"
    ASYNC_SINGLE = "async-single"
    THREAD_POOL = "thread-pool"
    SEQUENTIAL = "sequential"


def resolve_dispatch(
    model: LanguageModel,
    max_workers: Optional[int] = None,
    *,
    prefer_sync: bool = False,
) -> DispatchPath:
    """Pick the execution strategy for batches against ``model``.

    The canonical order is async-first (see the module docstring):
    native async batch, native sync batch, per-prompt async task group,
    thread pool (when ``max_workers > 1``), sequential loop.

    ``prefer_sync=True`` — used by :func:`batched_generate`, whose
    caller is synchronous anyway — swaps the first two rungs so a model
    offering both batch entry points is driven without the overhead of
    standing up an event loop.  Answers are identical on every path;
    only the execution vehicle changes.
    """
    has_async_batch = callable(getattr(model, "agenerate_batch", None))
    has_sync_batch = callable(getattr(model, "generate_batch", None))
    if prefer_sync and has_sync_batch:
        return DispatchPath.SYNC_BATCH
    if has_async_batch:
        return DispatchPath.ASYNC_BATCH
    if has_sync_batch:
        return DispatchPath.SYNC_BATCH
    if callable(getattr(model, "agenerate", None)):
        return DispatchPath.ASYNC_SINGLE
    if max_workers is not None and max_workers > 1:
        return DispatchPath.THREAD_POOL
    return DispatchPath.SEQUENTIAL


def run_coroutine(coroutine: Coroutine) -> object:
    """Run a coroutine to completion from synchronous code.

    ``asyncio.run`` refuses to nest inside a running event loop, so when
    one is already running in this thread (a sync call made from inside
    an async backend's worker) the coroutine is executed on a fresh loop
    in a short-lived helper thread instead.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coroutine)
    box: Dict[str, object] = {}

    def runner() -> None:
        try:
            box["result"] = asyncio.run(coroutine)
        except BaseException as error:  # propagate to the caller's thread
            box["error"] = error

    thread = threading.Thread(target=runner, name="repro-run-coroutine")
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]


def _check_alignment(
    model: LanguageModel, prompts: Sequence[str], results: List[GenerationResult]
) -> List[GenerationResult]:
    if len(results) != len(prompts):
        raise BatchContractError(
            f"{model.name}: batch returned {len(results)} "
            f"results for {len(prompts)} prompts"
        )
    return results


def _run_with_deadline(thunk, prompts: Sequence[str], timeout: float):
    """Run a blocking ``thunk`` with a hard deadline.

    Python cannot kill a thread, so the call runs in a *daemon* helper
    joined for ``timeout`` seconds: on expiry the caller gets
    :class:`~repro.errors.GenerationTimeoutError` (naming ``prompts``)
    immediately and the hung call is abandoned — being a daemon, it can
    no longer block anything the caller waits on, including event-loop
    shutdown.  This is the sync-model safety net; async models get
    real cancellation via ``asyncio.wait_for`` instead.
    """
    box: Dict[str, object] = {}

    def runner() -> None:
        try:
            box["result"] = thunk()
        except BaseException as error:  # surfaced in the caller's thread
            box["error"] = error

    thread = threading.Thread(target=runner, name="repro-deadline", daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise GenerationTimeoutError(prompts, timeout)
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]


def _timed_generate(
    model: LanguageModel, prompt: str, timeout: float
) -> GenerationResult:
    """One ``generate`` call under a per-call deadline."""
    return _run_with_deadline(lambda: model.generate(prompt), [prompt], timeout)


def sequential_generate(
    model: LanguageModel,
    prompts: Sequence[str],
    timeout: Optional[float] = None,
) -> List[GenerationResult]:
    """Strictly sequential ``generate`` loop, optionally deadlined.

    With a ``timeout``, each call gets its own deadline; a hung prompt
    is recorded and the loop *keeps going*, so one stuck call fails
    that prompt — raised as one
    :class:`~repro.errors.GenerationTimeoutError` naming every expired
    prompt after the rest of the batch completed — never the siblings.
    """
    if timeout is None:
        return [model.generate(prompt) for prompt in prompts]
    results: List[GenerationResult] = []
    hung: List[str] = []
    for prompt in prompts:
        try:
            results.append(_timed_generate(model, prompt, timeout))
        except GenerationTimeoutError:
            hung.append(prompt)
    if hung:
        raise GenerationTimeoutError(hung, timeout)
    return results


def pooled_generate(
    model: LanguageModel,
    prompts: Sequence[str],
    max_workers: int,
    timeout: Optional[float] = None,
) -> List[GenerationResult]:
    """Thread-pool map of ``generate`` over ``prompts``.

    The one implementation of the thread-pool rung (the dispatch
    ladder and :class:`repro.exec.ThreadedBackend` both call it): the
    pool is clamped to ``min(max_workers, len(prompts))`` so small
    batches stop spawning idle threads, and a single prompt (or width
    1) never builds a pool at all.

    With a ``timeout``, each call gets its own deadline (measured from
    its start, not from batch submission): expired prompts are
    collected while their siblings run to completion, then raised as
    one :class:`~repro.errors.GenerationTimeoutError`.
    """
    workers = min(max_workers, len(prompts))
    if workers <= 1:
        return sequential_generate(model, prompts, timeout=timeout)
    if timeout is None:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(model.generate, prompts))
    hung: List[str] = []
    lock = threading.Lock()

    def guarded(prompt: str) -> Optional[GenerationResult]:
        try:
            return _timed_generate(model, prompt, timeout)
        except GenerationTimeoutError:
            with lock:
                hung.append(prompt)
            return None

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(guarded, prompts))
    if hung:
        raise GenerationTimeoutError(hung, timeout)
    return [result for result in results if result is not None]


def _check_inflight(max_inflight: Optional[int]) -> int:
    """Resolve the caller's bound: ``None`` = the safety cap, and a
    nonsensical bound is an error — never silent unbounded fan-out."""
    if max_inflight is None:
        return DEFAULT_MAX_INFLIGHT
    if max_inflight < 1:
        raise ConfigError(
            f"max_inflight must be >= 1 (or None for the default cap), "
            f"got {max_inflight}"
        )
    return max_inflight


async def abatched_generate(
    model: LanguageModel,
    prompts: Sequence[str],
    max_workers: Optional[int] = None,
    max_inflight: Optional[int] = None,
    timeout: Optional[float] = None,
) -> List[GenerationResult]:
    """Async twin of :func:`batched_generate`.

    Executes whatever :func:`resolve_dispatch` picks (async-first):
    a native async batch is awaited directly; a native sync batch or a
    sequential loop runs in a worker thread so the event loop stays
    responsive; per-prompt ``agenerate`` calls run as one task group
    bounded by ``max_inflight`` concurrent awaits (``None`` = the
    :data:`DEFAULT_MAX_INFLIGHT` safety cap); the thread-pool rung
    spreads ``generate`` calls over ``max_workers`` threads.  Results
    are always aligned with ``prompts``.

    ``timeout`` is a **per-call** deadline (seconds): on the per-prompt
    rungs a hung prompt is cancelled (async) or abandoned (sync) while
    its siblings run to completion, then surfaced as one
    :class:`~repro.errors.GenerationTimeoutError` naming exactly the
    expired prompts.  A native batch entry point is a single call and
    gets the deadline as a whole-batch bound — per-prompt enforcement
    requires per-prompt dispatch.
    """
    if not prompts:
        return []
    max_inflight = _check_inflight(max_inflight)
    path = resolve_dispatch(model, max_workers)
    if path is DispatchPath.ASYNC_BATCH:
        call = model.agenerate_batch(prompts)  # type: ignore[attr-defined]
        if timeout is not None:
            try:
                results = list(await asyncio.wait_for(call, timeout))
            except asyncio.TimeoutError:
                raise GenerationTimeoutError(prompts, timeout) from None
        else:
            results = list(await call)
        return _check_alignment(model, prompts, results)
    if path is DispatchPath.SYNC_BATCH:
        if timeout is not None:
            # Not wait_for(to_thread(...)): abandoning a to_thread call
            # leaves its worker blocked in the loop's default executor,
            # and loop shutdown joins those workers — the "timed out"
            # caller would hang on exit anyway.  _timed_batch parks the
            # hung call on a disposable daemon thread instead, so the
            # executor worker is released within the deadline.
            results = list(
                await asyncio.to_thread(_timed_batch, model, prompts, timeout)
            )
        else:
            results = list(
                await asyncio.to_thread(model.generate_batch, prompts)  # type: ignore[attr-defined]
            )
        return _check_alignment(model, prompts, results)
    if path is DispatchPath.ASYNC_SINGLE:
        gate = asyncio.Semaphore(max_inflight)

        async def bounded(prompt: str) -> GenerationResult:
            async with gate:
                call = model.agenerate(prompt)  # type: ignore[attr-defined]
                if timeout is None:
                    return await call
                return await asyncio.wait_for(call, timeout)

        if timeout is None:
            return list(await asyncio.gather(*(bounded(p) for p in prompts)))
        # Siblings always finish: gather with exceptions captured, then
        # fold the timeouts into one error naming the hung prompts.
        outcomes = await asyncio.gather(
            *(bounded(p) for p in prompts), return_exceptions=True
        )
        hung: List[str] = []
        results = []
        for prompt, outcome in zip(prompts, outcomes):
            if isinstance(outcome, asyncio.TimeoutError):
                hung.append(prompt)
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                results.append(outcome)
        if hung:
            raise GenerationTimeoutError(hung, timeout)
        return results
    if path is DispatchPath.THREAD_POOL:
        assert max_workers is not None
        return await asyncio.to_thread(
            pooled_generate, model, prompts, max_workers, timeout
        )
    return await asyncio.to_thread(sequential_generate, model, prompts, timeout)


def batched_generate(
    model: LanguageModel,
    prompts: Sequence[str],
    max_workers: Optional[int] = None,
    max_inflight: Optional[int] = None,
    timeout: Optional[float] = None,
) -> List[GenerationResult]:
    """Evaluate ``prompts`` against ``model``, batching when possible.

    Synchronous entry point over the :func:`resolve_dispatch` ladder
    (``prefer_sync=True``: a native sync batch wins over standing up an
    event loop).  Async-only models are driven through
    :func:`run_coroutine` with at most ``max_inflight`` concurrent
    calls; the thread pool is clamped to ``min(max_workers,
    len(prompts))`` so small batches stop spawning idle threads.

    Results are always aligned with ``prompts`` (one per prompt, input
    order), whatever the dispatch path.  ``timeout`` deadlines each
    call (see :func:`abatched_generate` for the exact per-rung
    semantics; a native sync batch is one call and gets it as a
    whole-batch bound).
    """
    if not prompts:
        return []
    path = resolve_dispatch(model, max_workers, prefer_sync=True)
    if path is DispatchPath.SYNC_BATCH:
        if timeout is not None:
            batch = _timed_batch(model, prompts, timeout)
        else:
            batch = list(model.generate_batch(prompts))  # type: ignore[attr-defined]
        return _check_alignment(model, prompts, batch)
    if path in (DispatchPath.ASYNC_BATCH, DispatchPath.ASYNC_SINGLE):
        results = run_coroutine(
            abatched_generate(
                model,
                prompts,
                max_workers=max_workers,
                max_inflight=max_inflight,
                timeout=timeout,
            )
        )
        return _check_alignment(model, prompts, list(results))  # type: ignore[arg-type]
    if path is DispatchPath.THREAD_POOL:
        assert max_workers is not None
        return pooled_generate(model, prompts, max_workers, timeout=timeout)
    return sequential_generate(model, prompts, timeout=timeout)


def _timed_batch(
    model: LanguageModel, prompts: Sequence[str], timeout: float
) -> List[GenerationResult]:
    """One native sync-batch call under a whole-batch deadline."""
    return _run_with_deadline(
        lambda: list(model.generate_batch(prompts)),  # type: ignore[attr-defined]
        prompts,
        timeout,
    )
