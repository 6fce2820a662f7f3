"""Perturbation evaluation: one place where prompts meet the LLM.

Every explanation algorithm reduces to "render this ordered subset of
sources into a prompt, ask the LLM, normalize the answer".  The
:class:`ContextEvaluator` centralizes that step, counts LLM calls (the
unit the pruning benchmarks measure), and memoizes by ordered id tuple
so re-visited perturbations are free.

:meth:`ContextEvaluator.evaluate_many` is the batched entry point: it
deduplicates the requested orderings, consults the memo, and submits
only the misses as a single batch.  A prompt cache
(:class:`~repro.llm.cache.CachingLLM`) takes the batch itself and sends
its own misses through its :class:`~repro.exec.ExecutionBackend`; any
other model gets the batch through the evaluator's backend.  Either way
execution policy (native batching, thread pools, asyncio, deadlines) is
decided in one place, and every caller — evaluation plans, lattice
probe rounds, candidate scans, counterfactual searches — inherits it
without knowing.  ``llm_calls`` counts *misses only*, whichever entry
point triggered them, making it the paper's LLM-call metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigError
from ..exec import ExecutionBackend, SerialBackend
from ..llm.base import GenerationResult, LanguageModel
from ..llm.cache import CachingLLM
from ..llm.prompts import DEFAULT_PROMPT_BUILDER, PromptBuilder
from ..textproc import normalize_answer
from .context import Context


@dataclass(frozen=True)
class Evaluation:
    """One evaluated perturbation."""

    ordered_doc_ids: Tuple[str, ...]
    answer: str
    normalized_answer: str


class ContextEvaluator:
    """Evaluate orderings of (subsets of) a context against an LLM.

    Parameters
    ----------
    llm:
        The language model (or caching wrapper) to evaluate against.
    context:
        The retrieved context whose perturbations are evaluated.
    prompt_builder:
        Prompt renderer; defaults to the paper's template.
    backend:
        The :class:`~repro.exec.ExecutionBackend` every miss batch is
        submitted through; ``None`` means serial.  A prompt cache
        dispatches its misses through its own backend, so with one
        ``None`` means the cache's backend and any other backend is a
        :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self,
        llm: LanguageModel,
        context: Context,
        prompt_builder: Optional[PromptBuilder] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.llm = llm
        self.context = context
        self.prompt_builder = prompt_builder or DEFAULT_PROMPT_BUILDER
        if isinstance(llm, CachingLLM):
            if backend is not None and backend is not llm.backend:
                raise ConfigError(
                    "a CachingLLM dispatches its misses through its own "
                    "backend; pass backend=None or the cache's backend"
                )
            backend = llm.backend
        self.backend = backend if backend is not None else SerialBackend()
        self._memo: Dict[Tuple[str, ...], Evaluation] = {}
        self._llm_calls = 0

    @property
    def llm_calls(self) -> int:
        """Number of distinct LLM invocations made so far."""
        return self._llm_calls

    @property
    def memo_size(self) -> int:
        """Number of distinct orderings memoized so far."""
        return len(self._memo)

    def is_memoized(self, ordered_doc_ids: Sequence[str]) -> bool:
        """True when evaluating this ordering would be free (memo hit)."""
        return tuple(ordered_doc_ids) in self._memo

    def evaluate(self, ordered_doc_ids: Sequence[str]) -> Evaluation:
        """Answer for the given ordered source ids (memoized)."""
        key = tuple(ordered_doc_ids)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._generate(key)
        return self._memoize(key, result)

    def evaluate_many(
        self, orderings: Sequence[Sequence[str]]
    ) -> List[Evaluation]:
        """Evaluate many orderings, batching the memo misses.

        Duplicate orderings and memo hits cost nothing; the distinct
        misses are rendered into prompts and submitted as one batch
        to the prompt cache or the execution backend.  Results align with
        ``orderings`` (one evaluation per entry, in input order), and
        every result is memoized for later single :meth:`evaluate`
        calls.
        """
        keys = [tuple(ordering) for ordering in orderings]
        miss_order: List[Tuple[str, ...]] = []
        seen: set = set()
        for key in keys:
            if key not in self._memo and key not in seen:
                seen.add(key)
                miss_order.append(key)
        if miss_order:
            prompts = [
                self.prompt_builder.build(
                    self.context.query, self.context.texts_for(key)
                )
                for key in miss_order
            ]
            self._llm_calls += len(miss_order)
            if isinstance(self.llm, CachingLLM):
                results = self.llm.generate_batch(prompts)
            else:
                results = self.backend.run(self.llm, prompts)
            for key, result in zip(miss_order, results):
                self._memoize(key, result)
        return [self._memo[key] for key in keys]

    def generation(self, ordered_doc_ids: Sequence[str]) -> GenerationResult:
        """Full generation result (fresh call, bypassing the memo)."""
        return self._generate(tuple(ordered_doc_ids))

    def prime(
        self, ordered_doc_ids: Sequence[str], result: GenerationResult
    ) -> Evaluation:
        """Memoize an externally produced generation for an ordering.

        Lets a caller that already paid for a full generation (e.g. the
        engine's ``ask``, which returns the full result) seed the memo
        so later ``evaluate`` calls on the same ordering are free.
        """
        return self._memoize(tuple(ordered_doc_ids), result)

    def _generate(self, ordered_doc_ids: Tuple[str, ...]) -> GenerationResult:
        texts = self.context.texts_for(ordered_doc_ids)
        prompt = self.prompt_builder.build(self.context.query, texts)
        self._llm_calls += 1
        return self.llm.generate(prompt)

    def _memoize(
        self, key: Tuple[str, ...], result: GenerationResult
    ) -> Evaluation:
        evaluation = Evaluation(
            ordered_doc_ids=key,
            answer=result.answer,
            normalized_answer=normalize_answer(result.answer),
        )
        self._memo[key] = evaluation
        return evaluation

    # -- canonical evaluations -------------------------------------------

    def original(self) -> Evaluation:
        """The unperturbed full-context evaluation."""
        return self.evaluate(self.context.doc_ids())

    def empty(self) -> Evaluation:
        """The empty-context (parametric knowledge only) evaluation."""
        return self.evaluate(())


#: Ceiling for the adaptive chunk policy (see :func:`scan_candidates`).
MAX_ADAPTIVE_BATCH = 64


def scan_candidates(
    evaluator: ContextEvaluator,
    candidates: Iterable[Tuple[Tuple[str, ...], Any]],
    match: Callable[[Any, Evaluation], Optional[Any]],
    max_evaluations: int,
    batch_size: int = 1,
    *,
    lattice: Optional["AnswerLattice"] = None,
    flips: Optional[Callable[[str], bool]] = None,
    near: Optional[Callable[[Evaluation], bool]] = None,
    adaptive: bool = False,
) -> Tuple[Optional[Any], int, bool]:
    """Budgeted, batched, in-order scan over evaluation candidates.

    The shared engine of both sequential counterfactual searches:
    ``candidates`` yields ``(ordering, payload)`` pairs in priority
    order; ``match(payload, evaluation)`` is invoked once per evaluated
    candidate *in candidate order* (record trails there) and the first
    non-``None`` return stops the scan.

    Budget semantics: ``max_evaluations`` bounds *real* LLM calls —
    memo hits are free.  Un-memoized candidates accumulate into chunks
    of ``batch_size`` and are dispatched through
    :meth:`ContextEvaluator.evaluate_many`; ``batch_size=1`` reproduces
    strictly sequential evaluation (memoized candidates additionally
    resolve immediately while nothing fresh is pending, preserving
    exact sequential stopping).  With larger chunks, members evaluated
    after an in-chunk hit are still charged.

    Lattice pruning: with an active
    :class:`~repro.core.lattice.AnswerLattice` and a ``flips``
    predicate over normalized answers, un-memoized combination
    candidates whose known (implied) answer cannot flip are skipped for
    free, and an *implied flip* is never trusted — the candidate is
    evaluated for real (verify-on-hit), so a found counterfactual is
    always backed by a genuine LLM answer and stays exactly minimal
    wherever implication is sound.  Full-context candidates additionally
    feed the lattice's order-stability evidence.

    Adaptive chunking (``adaptive=True``): the chunk grows
    geometrically from ``batch_size`` up to :data:`MAX_ADAPTIVE_BATCH`
    while flushes stay cold, and resets to ``batch_size`` on a
    *near-hit* — a failed implied-flip verification, or any evaluation
    the optional ``near`` predicate flags (e.g. an answer change that
    missed the target) — so batched backends see few large batches far
    from the flip and precise small ones close to it.

    Returns ``(hit, real_llm_calls, budget_exhausted)`` where
    ``budget_exhausted`` is only set when a fresh candidate was left
    unevaluated and nothing pending matched.
    """
    start_calls = evaluator.llm_calls

    def spent() -> int:
        return evaluator.llm_calls - start_calls

    pending: List[Tuple[Tuple[str, ...], Any]] = []
    pending_fresh = 0
    hit: Optional[Any] = None
    budget_exhausted = False
    chunk_size = batch_size
    verifying: set = set()

    def flush() -> Optional[Any]:
        nonlocal pending, pending_fresh, chunk_size
        batch, pending, pending_fresh = pending, [], 0
        if not batch:
            return None
        evaluations = evaluator.evaluate_many([ordering for ordering, _ in batch])
        near_hit = False
        found: Optional[Any] = None
        for (ordering, payload), evaluation in zip(batch, evaluations):
            if lattice is not None:
                lattice.record(ordering, evaluation.answer, evaluation.normalized_answer)
                if ordering in verifying:
                    if flips is not None and flips(evaluation.normalized_answer):
                        lattice.stats.verified += 1
                    else:
                        near_hit = True  # implication promised a flip; it lied
            if found is None:
                found = match(payload, evaluation)
            if near is not None and near(evaluation):
                near_hit = True
        if adaptive:
            chunk_size = (
                batch_size
                if near_hit
                else min(max(chunk_size * 2, batch_size), MAX_ADAPTIVE_BATCH)
            )
        return found

    for ordering, payload in candidates:
        fresh = not evaluator.is_memoized(ordering)
        verify_now = False
        if fresh and lattice is not None and flips is not None:
            mask = lattice.mask_for(ordering)
            entry = lattice.lookup(mask) if mask is not None else None
            if entry is not None:
                if not flips(entry.normalized_answer):
                    # Implied (or lattice-recorded) answer cannot flip:
                    # skip without spending budget.
                    lattice.stats.skipped_candidates += 1
                    continue
                if entry.inferred:
                    verifying.add(tuple(ordering))  # verify-on-hit
                    verify_now = True
        if fresh and spent() + pending_fresh >= max_evaluations:
            hit = flush()
            if hit is None:
                budget_exhausted = True
            break
        pending.append((ordering, payload))
        if fresh:
            pending_fresh += 1
        # Flush when the chunk is full — or for free when everything
        # pending is memoized, preserving exact sequential stopping —
        # or immediately on an implied flip, so verify-on-hit costs the
        # one real call it promises instead of waiting out a grown
        # adaptive chunk.
        if (
            pending_fresh >= chunk_size
            or (not fresh and pending_fresh == 0)
            or verify_now
        ):
            hit = flush()
            if hit is not None:
                break
    else:
        hit = flush()
    return hit, spent(), budget_exhausted
