"""Prompt-level memoization for perturbation searches.

A counterfactual search may evaluate hundreds of perturbations, and the
insight analyses re-evaluate many of the same combinations; caching on
the exact prompt string makes repeated evaluations free while keeping
the wrapped model a pure prompt -> answer function.

:class:`CachingLLM` is a lookup -> single-flight -> store stage, never
an execution policy: it partitions a request into hits and distinct
misses, sends *only the misses* through its
:class:`~repro.exec.ExecutionBackend` (which alone decides width,
in-flight bound and deadline), and reassembles the results in prompt
order.  ``generate`` and ``generate_batch`` share that one core.
:class:`CacheStats` counts the per-prompt hit/miss totals and the
batch-level traffic, so benchmarks can report how much batching
actually reached the model.

Two tiers
---------
The in-memory dict is tier one.  Pass a
:class:`~repro.llm.store.PromptStore` and it becomes the write-through
second tier: every generated result is persisted, and a memory miss
consults the disk before paying a real LLM call (a disk hit is promoted
into memory and counted in ``stats.disk_hits`` as well as ``hits``).
The store is keyed by the *inner* model's name, its optional
``cache_params`` mapping (generation settings and other behavioural
knobs the name does not encode — see
:func:`repro.llm.store.store_key`), and the prompt, so any process
pointed at the same directory shares the cache — repeated reports and
benchmark reruns answer warm with zero real calls, while
differently-configured models never serve each other's entries.

Single-flight
-------------
The tiers only deduplicate *completed* work.  Concurrent misses on the
same key are deduplicated too: the first requester leads the real call,
every simultaneous requester follows its flight (see
:mod:`repro.llm.coalesce`), and the winner writes through to memory +
disk exactly once.  Followers are counted as ``hits`` (they paid no
real call) and tallied in ``flights.stats.coalesced``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .base import GenerationResult, LanguageModel
from .coalesce import Latch, SingleFlight
from .store import PromptStore, store_key

if TYPE_CHECKING:  # pragma: no cover - typing only; exec imports llm
    from ..exec import ExecutionBackend


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`CachingLLM` instance.

    ``hits``/``misses`` count individual prompts whichever entry point
    served them; ``disk_hits`` the subset of hits answered by the
    persistent store rather than memory; ``batches`` and
    ``batched_prompts`` additionally track
    :meth:`CachingLLM.generate_batch` traffic, and ``batched_misses``
    the prompts within those batches that actually reached the wrapped
    model (after deduplication).
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    batches: int = 0
    batched_prompts: int = 0
    batched_misses: int = 0

    @property
    def calls(self) -> int:
        """Total generate() invocations observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from cache (0.0 when unused)."""
        if self.calls == 0:
            return 0.0
        return self.hits / self.calls


class CachingLLM:
    """Memoizing wrapper around any :class:`LanguageModel`.

    The wrapped model must be deterministic (the simulated model is);
    caching a sampling model would freeze one sample per prompt.

    Parameters
    ----------
    model:
        The wrapped model.
    backend:
        The :class:`~repro.exec.ExecutionBackend` that runs the misses.
        It is read as ``self.backend`` on every dispatch, so wrapping
        the backend object's ``run`` after construction (tracing,
        spying) sees every miss batch.
    store:
        Optional persistent second tier (see the module docstring).
    max_entries:
        In-memory entry cap (FIFO eviction); ``None`` = unbounded.

    ``flights`` holds the :class:`~repro.llm.coalesce.SingleFlight`
    registry and its stats.
    """

    def __init__(
        self,
        model: LanguageModel,
        backend: "ExecutionBackend",
        store: Optional[PromptStore] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigError(
                f"max_entries must be >= 1 (or None for unbounded), got {max_entries}"
            )
        self._model = model
        self.backend = backend
        self.store = store
        self._max_entries = max_entries
        self.flights = SingleFlight()
        self._cache: Dict[str, GenerationResult] = {}
        self.stats = CacheStats()
        # Counter updates and the eviction-then-insert pair happen
        # under this lock: the serving layer shares one wrapper across
        # request threads, where bare `+=` loses increments and two
        # racing evictions can pick the same victim.  Model calls
        # themselves never run under it.
        self._stats_lock = threading.Lock()

    @property
    def name(self) -> str:
        """Wrapped model's name with a cache marker."""
        return f"cached({self._model.name})"

    @property
    def inner(self) -> LanguageModel:
        """The wrapped model."""
        return self._model

    def generate(self, prompt: str) -> GenerationResult:
        """Serve from memory, disk, or a flight in progress; else delegate
        the miss to the backend as a one-prompt batch."""
        results, _ = self._resolve([prompt])
        return results[0]

    def generate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        """Serve hits from the tiers, delegate distinct misses as one batch.

        Duplicate prompts within the batch reach the model once; the
        repeats are served from the freshly-filled cache and counted as
        hits, exactly as a second sequential call would be.  Misses
        another request is already computing are not dispatched either
        — this batch awaits those flights after dispatching its own
        leads (leads always dispatch before any follower wait, so two
        batches following each other's flights can never deadlock).
        """
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.batched_prompts += len(prompts)
        results, dispatched = self._resolve(prompts)
        with self._stats_lock:
            self.stats.batched_misses += dispatched
        return results

    def _resolve(
        self, prompts: Sequence[str]
    ) -> Tuple[List[GenerationResult], int]:
        """Lookup -> single-flight -> backend -> store; aligned results
        and the number of prompts sent to the backend."""
        params = self._store_params()
        resolved, misses, miss_order = self._partition(prompts, params)
        leads, followers, miss_order = self._coalesce_misses(
            resolved, misses, miss_order, params
        )
        if miss_order:
            try:
                generated = self.backend.run(self._model, miss_order)
                for prompt, result in zip(miss_order, generated):
                    self._store(prompt, result, params=params)
                    resolved[prompt] = result
            except BaseException as error:
                for _prompt, key, latch in leads:
                    self.flights.reject(key, latch, error)
                raise
            for prompt, key, latch in leads:
                self.flights.resolve(key, latch, resolved[prompt])
        for prompt, latch in followers:
            resolved[prompt] = latch.wait()
        return self._assemble(prompts, resolved, misses), len(miss_order)

    def _partition(
        self, prompts: Sequence[str], params: Optional[Dict[str, object]]
    ) -> Tuple[Dict[str, GenerationResult], set, List[str]]:
        """Split a batch into resolved hits and ordered distinct misses."""
        # Resolve eagerly: under a bounded cache the miss inserts below
        # may evict entries this very batch still needs.
        resolved: Dict[str, GenerationResult] = {}
        misses: set = set()
        miss_order: List[str] = []
        for prompt in prompts:
            if prompt in resolved or prompt in misses:
                continue
            cached = self._lookup(prompt, params)
            if cached is not None:
                resolved[prompt] = cached
            else:
                misses.add(prompt)
                miss_order.append(prompt)
        return resolved, misses, miss_order

    def _coalesce_misses(
        self,
        resolved: Dict[str, GenerationResult],
        misses: set,
        miss_order: List[str],
        params: Optional[Dict[str, object]],
    ) -> Tuple[
        List[Tuple[str, str, Latch]], List[Tuple[str, Latch]], List[str]
    ]:
        """Split distinct misses into flights this batch leads vs follows.

        Returns ``(leads, followers, still_missing)``: ``leads`` are the
        flights this batch owns and must settle after dispatching
        ``still_missing`` as one batch; ``followers`` are prompts
        another request is already computing (removed from ``misses`` so
        they are charged as hits — no real call was paid here).  A miss
        whose flight resolved between partition and join is adopted from
        the freshly-filled cache and charged as a hit too: re-checking
        memory after winning a flight is what makes the dedup exact (one
        real call per key).  Memory suffices, since every flight writes
        memory before it resolves.
        """
        leads: List[Tuple[str, str, Latch]] = []
        followers: List[Tuple[str, Latch]] = []
        still_missing: List[str] = []
        for prompt in miss_order:
            key = store_key(self._model.name, prompt, params)
            leader, latch = self.flights.join(key)
            if not leader:
                followers.append((prompt, latch))
                misses.discard(prompt)
                continue
            cached = self._cache.get(prompt)
            if cached is not None:
                self.flights.resolve(key, latch, cached)
                resolved[prompt] = cached
                misses.discard(prompt)
                continue
            leads.append((prompt, key, latch))
            still_missing.append(prompt)
        return leads, followers, still_missing

    def _assemble(
        self,
        prompts: Sequence[str],
        resolved: Dict[str, GenerationResult],
        misses: set,
    ) -> List[GenerationResult]:
        charged: set = set()
        results: List[GenerationResult] = []
        new_misses = 0
        new_hits = 0
        for prompt in prompts:
            if prompt in misses and prompt not in charged:
                charged.add(prompt)
                new_misses += 1
            else:
                new_hits += 1
            results.append(resolved[prompt])
        with self._stats_lock:
            self.stats.misses += new_misses
            self.stats.hits += new_hits
        return results

    # -- tiers -------------------------------------------------------------

    def _store_params(self) -> Optional[Dict[str, object]]:
        """The inner model's persistent-cache identity, if it has one.

        Re-read once per entry-point call (not per prompt): a model's
        ``cache_params`` may legitimately change *between* calls (e.g.
        :meth:`repro.llm.scripted.ScriptedLLM.record` grows the
        script) and a stale identity would serve stale answers, but
        within one batch it is frozen.
        """
        if self.store is None:
            return None
        raw = getattr(self._model, "cache_params", None)
        return dict(raw) if raw else None

    def _lookup(
        self, prompt: str, params: Optional[Dict[str, object]]
    ) -> Optional[GenerationResult]:
        """Memory first, then the persistent tier (promoting its hits)."""
        cached = self._cache.get(prompt)
        if cached is not None:
            return cached
        if self.store is None:
            return None
        persisted = self.store.get(self._model.name, prompt, params)
        if persisted is None:
            return None
        return self._install(prompt, persisted, promotion=True)

    def _store(
        self,
        prompt: str,
        result: GenerationResult,
        params: Optional[Dict[str, object]] = None,
    ) -> None:
        self._install(prompt, result, promotion=False)
        if self.store is not None:
            self.store.put(self._model.name, prompt, result, params)

    def _install(
        self, prompt: str, result: GenerationResult, promotion: bool
    ) -> GenerationResult:
        """Insert into the memory tier under the lock; return the entry.

        ``promotion`` marks a disk hit being lifted into memory: two
        concurrent disk hits on one key both decode, but only the first
        installs and is counted in ``disk_hits`` — the loser adopts the
        winner's entry and is charged as a plain memory hit, so neither
        the counter nor the FIFO order records a promotion twice.
        """
        with self._stats_lock:
            if promotion:
                current = self._cache.get(prompt)
                if current is not None:
                    return current
                self.stats.disk_hits += 1
            if (
                self._max_entries is not None
                and len(self._cache) >= self._max_entries
                and self._cache
            ):
                # FIFO eviction: drop the oldest inserted entry.  The
                # emptiness guard keeps a cleared (or externally
                # drained) cache from raising StopIteration on the next
                # insert; the lock keeps two racing inserts from
                # deleting the same victim.
                oldest = next(iter(self._cache))
                del self._cache[oldest]
            self._cache[prompt] = result
        return result

    def clear(self) -> None:
        """Empty the in-memory tier (stats and the disk tier are kept).

        Runs under the stats lock: a bare ``dict.clear`` racing a
        concurrent insert's eviction could delete the same victim twice
        and raise ``KeyError`` from inside :meth:`_install`.
        """
        with self._stats_lock:
            self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
