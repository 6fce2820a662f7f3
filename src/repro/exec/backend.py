"""Execution backends: the one owner of *how* LLM calls run.

:func:`repro.llm.base.batched_generate` answers the per-call question —
which entry point of one model to use.  An :class:`ExecutionBackend`
answers the policy question one level up, and is the only layer that
does: given one batch of prompts that must reach the model, run them
serially, across a thread pool, or on an asyncio event loop, with an
explicit width, in-flight bound and per-call deadline.  With the
prompt cache on (the default), every real model call an engine makes
passes through its one backend, because
:class:`~repro.llm.cache.CachingLLM` submits its misses there; with it
off, :meth:`~repro.core.evaluate.ContextEvaluator.evaluate_many`
submits its batches directly.  Every explanation algorithm — evaluation plans, lattice probe
rounds, candidate scans, both counterfactual searches — therefore
inherits the chosen execution strategy without knowing it exists.

Backends never change *what* is computed: answers are byte-identical
across all of them (the models are deterministic and results realign
with the input order); only wall-clock and resource usage differ.

Choosing a backend
------------------
``serial``
    One dispatch, no added concurrency.  The right default for
    compute-bound in-process models (the simulated LLM, a local
    transformer) whose native ``generate_batch`` already is the fastest
    path.
``threaded[:N]``
    Up to ``N`` (default 8) concurrent ``generate`` calls on a thread
    pool.  Wins only when the model
    releases the GIL or waits on I/O (remote HTTP APIs); a native batch
    entry point still takes precedence because it cannot be beaten by
    re-slicing the same compute.
``asyncio[:N]``
    Drives the model's async contract (``agenerate_batch`` /
    ``agenerate``) on an event loop, at most ``N`` calls in flight
    (the :data:`~repro.llm.base.DEFAULT_MAX_INFLIGHT` safety cap when
    omitted).  The scalable choice for async remote backends —
    in-flight calls cost coroutines, not threads.

:func:`make_backend` parses exactly those specs (CLI ``--backend`` and
:class:`~repro.core.engine.RageConfig.backend` use it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigError
from ..llm.base import (
    GenerationResult,
    LanguageModel,
    abatched_generate,
    batched_generate,
    pooled_generate,
    run_coroutine,
)

#: Thread-pool width when ``threaded`` is requested without a count.
DEFAULT_THREAD_WORKERS = 8


def _has_native_batch(model: LanguageModel) -> bool:
    return callable(getattr(model, "generate_batch", None)) or callable(
        getattr(model, "agenerate_batch", None)
    )


@dataclass
class BackendStats:
    """Submission counters for one :class:`ExecutionBackend` instance.

    One backend is shared by every consumer of one engine — all
    evaluators, and all request threads of a serving process — so these
    counters describe the engine's whole evaluation traffic.
    ``batches``/``prompts`` count submissions through
    :meth:`ExecutionBackend.run` (with the prompt cache on, misses
    only);
    ``active`` the batches executing right now and ``max_active`` their
    high-water mark, which exceeds 1 exactly when concurrent callers
    (server request handlers) actually overlapped on the backend.
    """

    batches: int = 0
    prompts: int = 0
    active: int = 0
    max_active: int = 0


class ExecutionBackend:
    """Strategy for executing one batch of prompts against one model.

    Subclasses implement :meth:`_dispatch`; :meth:`run` wraps it in the
    shared :class:`BackendStats` accounting.

    Attributes
    ----------
    name:
        Spec-style identifier (``serial``, ``threaded:8``, ...).
    capacity:
        Maximum concurrent in-flight LLM calls this backend adds on top
        of the model's own dispatch; ``None`` defers to the dispatch
        layer's :data:`~repro.llm.base.DEFAULT_MAX_INFLIGHT` cap (and
        is model-defined for native batches).
    timeout:
        Optional per-call deadline (seconds) applied to every dispatch
        this backend runs; a hung prompt fails *that prompt* (raised as
        :class:`~repro.errors.GenerationTimeoutError` after its
        siblings complete), never silently stalls the batch.  A model
        exposing only a native batch entry point is one call, so the
        bound covers its whole batch.  ``None`` (the default) waits
        forever.
    """

    name: str = "abstract"
    capacity: Optional[int] = 1

    def __init__(self, timeout: Optional[float] = None) -> None:
        if timeout is not None and timeout <= 0:
            raise ConfigError(
                f"timeout must be > 0 seconds (or None for no deadline), got {timeout}"
            )
        self.timeout = timeout
        self.stats = BackendStats()
        self._stats_lock = threading.Lock()

    def run(
        self, model: LanguageModel, prompts: Sequence[str]
    ) -> List[GenerationResult]:
        """Execute ``prompts`` against ``model``; aligned results."""
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.prompts += len(prompts)
            self.stats.active += 1
            self.stats.max_active = max(self.stats.max_active, self.stats.active)
        try:
            return self._dispatch(model, prompts)
        finally:
            with self._stats_lock:
                self.stats.active -= 1

    def _dispatch(
        self, model: LanguageModel, prompts: Sequence[str]
    ) -> List[GenerationResult]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class ThreadedBackend(ExecutionBackend):
    """A thread pool of concurrent ``generate`` calls.

    A native batch entry point still takes precedence (re-slicing the
    same compute across threads cannot beat it, and for padded
    transformer batches would regress);
    the pool engages exactly when the model exposes only per-prompt
    calls, and is clamped to the batch size so small batches stop
    spawning idle threads.
    """

    def __init__(
        self,
        max_workers: int = DEFAULT_THREAD_WORKERS,
        timeout: Optional[float] = None,
    ) -> None:
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        super().__init__(timeout)
        self.max_workers = max_workers
        self.name = f"threaded:{max_workers}"
        self.capacity = max_workers

    def _dispatch(
        self, model: LanguageModel, prompts: Sequence[str]
    ) -> List[GenerationResult]:
        if _has_native_batch(model):
            return batched_generate(model, prompts, timeout=self.timeout)
        return pooled_generate(model, prompts, self.max_workers, timeout=self.timeout)


class SerialBackend(ThreadedBackend):
    """One dispatch, no added concurrency — the library's default.

    A pool of width one: a native (sync or async) batch entry point
    counts as the one dispatch; otherwise prompts run strictly one
    ``generate`` at a time.  Unlike bare
    :func:`~repro.llm.base.batched_generate` — whose ladder happily
    fans per-prompt ``agenerate`` calls out on an event loop — this
    backend *pins* capacity to 1, which is what makes it the honest
    baseline the E16 benchmark compares against.
    """

    def __init__(self, timeout: Optional[float] = None) -> None:
        super().__init__(1, timeout)
        self.name = "serial"


class AsyncioBackend(ExecutionBackend):
    """Event-loop execution of the model's async contract.

    Runs :func:`repro.llm.base.abatched_generate` (async-first dispatch:
    native async batch, then sync batch off-loop, then an ``agenerate``
    task group) with at most ``max_inflight`` calls in flight —
    ``None`` applies the library's
    :data:`~repro.llm.base.DEFAULT_MAX_INFLIGHT` safety cap rather
    than unbounded fan-out.  A model exposing only sync ``generate``
    still gets its concurrency: the bound doubles as the thread-pool
    width, so ``asyncio:8`` never silently degrades to a sequential
    loop.  Each batch runs on a private event loop via
    :func:`repro.llm.base.run_coroutine`; a one-prompt batch of a
    per-prompt model (a remote client, a router) takes ``agenerate``
    too, so its deadline cancels the call instead of abandoning a
    thread.
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1 (or None for the default cap), "
                f"got {max_inflight}"
            )
        super().__init__(timeout)
        self.max_inflight = max_inflight
        self.name = "asyncio" if max_inflight is None else f"asyncio:{max_inflight}"
        self.capacity = max_inflight

    def _dispatch(
        self, model: LanguageModel, prompts: Sequence[str]
    ) -> List[GenerationResult]:
        return list(
            run_coroutine(
                abatched_generate(
                    model,
                    prompts,
                    max_workers=self.max_inflight or DEFAULT_THREAD_WORKERS,
                    max_inflight=self.max_inflight,
                    timeout=self.timeout,
                )
            )
        )


def make_backend(
    spec: Optional[str], timeout: Optional[float] = None
) -> ExecutionBackend:
    """Build a backend from a spec string.

    Specs: ``serial``, ``threaded``, ``threaded:N``, ``asyncio``,
    ``asyncio:N``; ``None`` means ``serial``.  ``timeout`` is the
    per-call deadline applied to whichever backend results.
    """
    if spec is None:
        return SerialBackend(timeout=timeout)
    head, sep, tail = spec.strip().partition(":")
    count: Optional[int] = None
    if sep and not tail:
        raise ConfigError(f"invalid backend spec {spec!r}: empty count after ':'")
    if tail:
        try:
            count = int(tail)
        except ValueError:
            raise ConfigError(f"invalid backend spec {spec!r}: {tail!r} is not an int")
    if head == "serial":
        if tail:
            raise ConfigError(f"backend 'serial' takes no count, got {spec!r}")
        return SerialBackend(timeout=timeout)
    if head == "threaded":
        return ThreadedBackend(
            count if count is not None else DEFAULT_THREAD_WORKERS, timeout=timeout
        )
    if head == "asyncio":
        return AsyncioBackend(max_inflight=count, timeout=timeout)
    raise ConfigError(
        f"unknown backend {spec!r} (expected serial, threaded[:N] or asyncio[:N])"
    )
