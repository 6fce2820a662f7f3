"""ContextEvaluator tests (memoization, call counting, batching)."""

import pytest

from repro.core import ContextEvaluator
from repro.core.context import Context
from repro.llm import ScriptedLLM
from repro.retrieval import Document


def _scripted_world(k=3):
    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(k)]
    context = Context.from_documents("q?", docs)
    llm = ScriptedLLM(answer_fn=lambda q, texts: f"{len(texts)} sources")
    return context, llm


def test_original_and_empty(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    assert evaluator.original().answer == "Roger Federer"
    assert evaluator.empty().answer == "Novak Djokovic"


def test_memoization(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    first = evaluator.evaluate(big_three_context.doc_ids())
    calls = evaluator.llm_calls
    second = evaluator.evaluate(big_three_context.doc_ids())
    assert evaluator.llm_calls == calls  # served from memo
    assert first is second


def test_order_is_part_of_the_key(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    ids = big_three_context.doc_ids()
    a = evaluator.evaluate(ids)
    b = evaluator.evaluate((ids[1], ids[0]) + ids[2:])
    assert evaluator.llm_calls == 2
    assert a.normalized_answer != b.normalized_answer  # UC1 flip


def test_normalized_answer(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    evaluation = evaluator.original()
    assert evaluation.normalized_answer == "roger federer"


def test_subset_evaluation(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    only_h2h = evaluator.evaluate(("bigthree-4-head-to-head",))
    assert only_h2h.answer == "Rafael Nadal"


def test_generation_bypasses_memo(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    evaluator.generation(big_three_context.doc_ids())
    evaluator.generation(big_three_context.doc_ids())
    assert evaluator.llm_calls == 2


def test_generation_returns_attention(big_three_engine, big_three_context):
    evaluator = ContextEvaluator(big_three_engine.llm, big_three_context)
    result = evaluator.generation(big_three_context.doc_ids())
    assert result.attention is not None
    assert len(result.attention.source_totals) == big_three_context.k


def test_evaluate_many_deduplicates_and_aligns():
    context, llm = _scripted_world()
    evaluator = ContextEvaluator(llm, context)
    orderings = [("d0",), ("d0", "d1"), ("d0",), (), ("d0", "d1")]
    evaluations = evaluator.evaluate_many(orderings)
    assert [e.ordered_doc_ids for e in evaluations] == [
        ("d0",), ("d0", "d1"), ("d0",), (), ("d0", "d1"),
    ]
    assert [e.answer for e in evaluations] == [
        "1 sources", "2 sources", "1 sources", "0 sources", "2 sources",
    ]
    # three distinct orderings -> three real calls, duplicates free
    assert evaluator.llm_calls == 3
    assert llm.calls == 3


def test_evaluate_many_consults_and_fills_memo():
    context, llm = _scripted_world()
    evaluator = ContextEvaluator(llm, context)
    evaluator.evaluate(("d0",))
    evaluator.evaluate_many([("d0",), ("d1",)])
    assert evaluator.llm_calls == 2  # only ("d1",) was a miss
    calls = evaluator.llm_calls
    # single-path evaluation now hits the batch-filled memo
    assert evaluator.evaluate(("d1",)).answer == "1 sources"
    assert evaluator.llm_calls == calls


def test_is_memoized_and_memo_size():
    context, llm = _scripted_world()
    evaluator = ContextEvaluator(llm, context)
    assert not evaluator.is_memoized(("d0",))
    evaluator.evaluate(("d0",))
    assert evaluator.is_memoized(("d0",))
    assert evaluator.is_memoized(["d0"])  # any sequence form
    assert evaluator.memo_size == 1


def test_prime_seeds_memo_from_external_generation():
    context, llm = _scripted_world()
    evaluator = ContextEvaluator(llm, context)
    generation = evaluator.generation(context.doc_ids())  # fresh, 1 call
    evaluator.prime(context.doc_ids(), generation)
    calls = evaluator.llm_calls
    evaluation = evaluator.original()
    assert evaluator.llm_calls == calls  # memo hit, no new call
    assert evaluation.answer == generation.answer


def test_evaluate_many_hands_a_prompt_cache_the_batch():
    """A cache dispatches its own misses; the evaluator's backend is
    never a second dispatch layer in front of it."""
    from repro.exec import SerialBackend
    from repro.llm import CachingLLM

    context, llm = _scripted_world()
    cache_backend = SerialBackend()
    cached = CachingLLM(llm, cache_backend)
    cached.generate_batch([])  # counted batch, nothing dispatched
    evaluator = ContextEvaluator(cached, context)
    assert evaluator.backend is cache_backend
    evaluator.evaluate_many([("d0",), ("d0", "d1")])
    fresh = ContextEvaluator(cached, context, backend=cache_backend)
    fresh.evaluate_many([("d0",), ("d1",)])  # ("d0",) is a cache hit
    assert cache_backend.stats.prompts == 3
    assert llm.calls == 3
    assert cached.stats.batches == 3


def test_a_prompt_cache_rejects_a_second_backend():
    """The cache owns dispatch: a different evaluator backend would be
    silently ignored, so it is refused instead."""
    from repro.errors import ConfigError
    from repro.exec import SerialBackend, ThreadedBackend
    from repro.llm import CachingLLM

    context, llm = _scripted_world()
    cached = CachingLLM(llm, SerialBackend())
    with pytest.raises(ConfigError, match="own backend"):
        ContextEvaluator(cached, context, backend=ThreadedBackend(8))


def test_evaluate_many_empty_is_free():
    context, llm = _scripted_world()
    evaluator = ContextEvaluator(llm, context)
    assert evaluator.evaluate_many([]) == []
    assert evaluator.llm_calls == 0


# -- lattice-aware, adaptive scan_candidates ---------------------------------


def _monotone_world(k=4):
    """Answer depends monotonically on whether 'text 0' is kept."""
    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(k)]
    context = Context.from_documents("q?", docs)
    llm = ScriptedLLM(
        answer_fn=lambda q, texts: "with-d0" if "text 0" in texts else "without-d0"
    )
    return context, llm


def _lattice_for(context):
    from repro.core import AnswerLattice

    return AnswerLattice(context, assume_order_insensitive=True)


def test_scan_skips_candidates_whose_implied_answer_cannot_flip():
    from repro.core.evaluate import scan_candidates

    context, llm = _monotone_world(4)
    evaluator = ContextEvaluator(llm, context)
    lattice = _lattice_for(context)
    # Witnesses: everything containing d0 answers "with-d0".
    baseline = None
    for kept in (("d0",), context.doc_ids()):
        evaluation = evaluator.evaluate(kept)
        baseline = evaluation.normalized_answer
        lattice.record(kept, evaluation.answer, evaluation.normalized_answer)
    calls_before = evaluator.llm_calls
    candidates = [(("d0", "d1"), 1), (("d0", "d2"), 2), (("d1", "d2"), 3)]
    hit, calls, exhausted = scan_candidates(
        evaluator,
        iter(candidates),
        lambda payload, ev: payload if ev.normalized_answer != baseline else None,
        max_evaluations=10,
        lattice=lattice,
        flips=lambda norm: norm != baseline,
    )
    # The two d0-supersets are implied non-flips and skipped for free;
    # only the genuine flip candidate is evaluated.
    assert hit == 3
    assert calls == 1
    assert evaluator.llm_calls - calls_before == 1
    assert lattice.stats.skipped_candidates == 2


def test_scan_verifies_implied_flips_before_returning():
    from repro.core import AnswerLattice
    from repro.core.evaluate import scan_candidates

    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(4)]
    context = Context.from_documents("q?", docs)
    # Non-monotone reality: pairs answer "flip" only for (d1, d2).
    llm = ScriptedLLM(
        answer_fn=lambda q, texts: "flip" if texts == ("text 1", "text 2") else "base"
    )
    evaluator = ContextEvaluator(llm, context)
    lattice = AnswerLattice(context, assume_order_insensitive=True)
    # Fabricate witnesses claiming everything containing d1 flips.
    lattice.record(("d1",), "flip", "flip")
    lattice.record(("d1", "d2", "d3"), "flip", "flip")
    candidates = [(("d1", "d3"), "a"), (("d1", "d2"), "b")]
    hit, calls, _ = scan_candidates(
        evaluator,
        iter(candidates),
        lambda payload, ev: payload if ev.normalized_answer == "flip" else None,
        max_evaluations=10,
        lattice=lattice,
        flips=lambda norm: norm == "flip",
    )
    # The first candidate is an implied flip; verify-on-hit evaluates it
    # for real and rejects it (the implication lied), which both counts
    # a conflict and shuts implication down — the second candidate is
    # then evaluated normally and genuinely flips.  Nothing is ever
    # returned on implication alone.
    assert hit == "b"
    assert calls == 2
    assert lattice.stats.conflicts >= 1  # the lie was caught
    assert not lattice.inference_active


def test_scan_verify_on_hit_confirms_genuine_implied_flip():
    from repro.core import AnswerLattice
    from repro.core.evaluate import scan_candidates

    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(4)]
    context = Context.from_documents("q?", docs)
    llm = ScriptedLLM(
        answer_fn=lambda q, texts: "flip" if "text 1" in texts else "base"
    )
    evaluator = ContextEvaluator(llm, context)
    lattice = AnswerLattice(context, assume_order_insensitive=True)
    lattice.record(("d1",), "flip", "flip")
    lattice.record(("d1", "d2", "d3"), "flip", "flip")
    hit, calls, _ = scan_candidates(
        evaluator,
        iter([(("d1", "d2"), "cf")]),
        lambda payload, ev: payload if ev.normalized_answer == "flip" else None,
        max_evaluations=10,
        lattice=lattice,
        flips=lambda norm: norm == "flip",
    )
    assert hit == "cf"
    assert calls == 1  # the implied flip cost exactly one real call
    assert lattice.stats.verified == 1


class _BatchSizes:
    """Records the size of every batch (or single call) reaching the model."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes = []

    @property
    def name(self):
        return "batch-sizes"

    def generate(self, prompt):
        self.sizes.append(1)
        return self.inner.generate(prompt)

    def generate_batch(self, prompts):
        self.sizes.append(len(prompts))
        return self.inner.generate_batch(prompts)


def test_scan_adaptive_chunk_grows_and_caps():
    from repro.core.evaluate import MAX_ADAPTIVE_BATCH, scan_candidates

    context, llm = _scripted_world(3)

    recorder = _BatchSizes(llm)
    evaluator = ContextEvaluator(recorder, context)
    # 40 distinct orderings, none of which match.
    orderings = [("d0",), ("d1",), ("d2",), ("d0", "d1"), ("d0", "d2"),
                 ("d1", "d2"), ("d0", "d1", "d2")]
    import itertools

    perms = [tuple(p) for p in itertools.permutations(("d0", "d1", "d2"))]
    candidates = [(o, i) for i, o in enumerate(orderings + perms)]
    hit, calls, exhausted = scan_candidates(
        evaluator,
        iter(candidates),
        lambda payload, ev: None,
        max_evaluations=100,
        batch_size=1,
        adaptive=True,
    )
    assert hit is None
    # Chunks grow geometrically from 1 while no hit appears.
    assert recorder.sizes[:3] == [1, 2, 4]
    assert max(recorder.sizes) <= MAX_ADAPTIVE_BATCH


def test_scan_adaptive_resets_on_near_hit():
    from repro.core.evaluate import scan_candidates

    context, llm = _scripted_world(3)

    recorder = _BatchSizes(llm)
    evaluator = ContextEvaluator(recorder, context)
    orderings = [("d0",), ("d1",), ("d2",), ("d0", "d1"), ("d0", "d2"),
                 ("d1", "d2"), ("d0", "d1", "d2"), ("d1", "d0"), ("d2", "d0"),
                 ("d2", "d1"), ("d1", "d0", "d2"), ("d2", "d0", "d1")]
    candidates = [(o, i) for i, o in enumerate(orderings)]
    hit, calls, _ = scan_candidates(
        evaluator,
        iter(candidates),
        lambda payload, ev: None,
        max_evaluations=100,
        batch_size=1,
        adaptive=True,
        near=lambda ev: ev.normalized_answer == "1 sources",  # singletons
    )
    assert hit is None
    # Each singleton flush is a near-hit, pinning the chunk at 1; once
    # the near-hits stop, the chunk grows geometrically again.
    assert recorder.sizes == [1, 1, 1, 1, 2, 4, 2]
