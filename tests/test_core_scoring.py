"""Relevance scoring (S(q, d, Dq)) tests."""

import pytest

from repro.core import (
    AttentionRelevance,
    RelevanceMethod,
    RetrievalRelevance,
    make_scorer,
)
from repro import Rage, RageConfig, SimulatedLLM
from repro.core.context import Context
from repro.datasets import load_use_case, make_superlative_world, make_timeline_world
from repro.errors import ConfigError, GenerationError
from repro.llm import GenerationResult
from repro.retrieval import Document


def test_retrieval_relevance_returns_bm25_scores(big_three_engine, big_three):
    context = big_three_engine.retrieve(big_three.query)
    scores = RetrievalRelevance().scores(context)
    assert scores == context.retrieval_scores()
    assert scores["bigthree-1-match-wins"] == max(scores.values())


def test_attention_relevance_normalized(big_three_engine, big_three):
    context = big_three_engine.retrieve(big_three.query)
    scorer = AttentionRelevance(big_three_engine.model)
    scores = scorer.scores(context)
    assert set(scores) == set(context.doc_ids())
    assert sum(scores.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in scores.values())


def test_attention_relevance_unnormalized(big_three_engine, big_three):
    context = big_three_engine.retrieve(big_three.query)
    raw = AttentionRelevance(big_three_engine.model, normalize=False).scores(context)
    assert sum(raw.values()) > 1.0  # raw sums over layers/heads/tokens


def test_attention_relevance_reflects_position_bias(big_three_engine, big_three):
    """End sources aggregate more attention than middle ones for
    comparable texts."""
    context = big_three_engine.retrieve(big_three.query)
    scores = AttentionRelevance(big_three_engine.model).scores(context)
    ids = context.doc_ids()
    assert scores[ids[0]] > scores[ids[2]] or scores[ids[-1]] > scores[ids[1]]


def test_attention_relevance_requires_attention():
    class NoAttention:
        name = "no-attn"

        def generate(self, prompt):
            return GenerationResult(answer="x", prompt=prompt)

    context = Context.from_documents("q", [Document(doc_id="d", text="t")])
    with pytest.raises(ConfigError):
        AttentionRelevance(NoAttention()).scores(context)


def test_attention_relevance_is_asked_of_the_model_not_the_cache(big_three_engine, big_three):
    """The prompt cache has no attention to give: the engine scores
    with the model it was given."""
    context = big_three_engine.retrieve(big_three.query)
    with pytest.raises(ConfigError):
        AttentionRelevance(big_three_engine.llm).scores(context)
    assert big_three_engine.model is big_three_engine.llm.inner


def test_attention_relevance_rejects_misaligned_totals():
    class ShortAttention:
        name = "short"

        def generate(self, prompt):
            return GenerationResult(answer="x", prompt=prompt)

        def attention(self, prompt):
            return [1.0]

    docs = [Document(doc_id=f"d{i}", text=f"text {i}") for i in range(2)]
    context = Context.from_documents("q", docs)
    with pytest.raises(GenerationError):
        AttentionRelevance(ShortAttention()).scores(context)


# -- golden attention-relevance scores ---------------------------------------

#: ``relevance_scores()`` under attention relevance, as ``float.hex``,
#: recorded from the per-token layer x head implementation these
#: per-source totals must match bit for bit.
GOLDEN_ATTENTION = {
    'big_three': {
        'bigthree-1-match-wins': '0x1.87b2d9bd9f7a5p-2',
        'bigthree-2-grand-slams': '0x1.c8871b67f4257p-4',
        'bigthree-3-weeks-no1': '0x1.c5de71d3f8c46p-4',
        'bigthree-4-head-to-head': '0x1.94b3c2f3654b5p-2',
    },
    'us_open': {
        'usopen-2019': '0x1.549b398530f44p-2',
        'usopen-2020': '0x1.11003149a21adp-3',
        'usopen-2021': '0x1.12bd84f1f4b5fp-4',
        'usopen-2022': '0x1.1caa26ac75608p-3',
        'usopen-2023': '0x1.4fe0394346207p-2',
    },
    'superlative-7-s3': {
        'synth-3-000': '0x1.04319657bbc78p-2',
        'synth-3-001': '0x1.21b0f3c321801p-3',
        'synth-3-002': '0x1.2fe969b01b772p-4',
        'synth-3-003': '0x1.b1115face60dfp-5',
        'synth-3-004': '0x1.2a55d70e17c4bp-4',
        'synth-3-005': '0x1.26c6843afdee5p-3',
        'synth-3-006': '0x1.0ae0b1840af0bp-2',
    },
    'timeline-8-s11': {
        'timeline-11-2000': '0x1.d46aa933a9c73p-3',
        'timeline-11-2007': '0x1.1e38c6044e70fp-3',
        'timeline-11-2005': '0x1.4b0d63bebbb17p-4',
        'timeline-11-2006': '0x1.afb05265cfd3ep-5',
        'timeline-11-2001': '0x1.922883b915789p-5',
        'timeline-11-2002': '0x1.4999672ed60d8p-4',
        'timeline-11-2003': '0x1.253c6b5ccb78cp-3',
        'timeline-11-2004': '0x1.cd568a6cba1c9p-3',
    },
}


def _golden_world(label):
    if label in ("big_three", "us_open"):
        case = load_use_case(label)
        return case.corpus, case.knowledge, case.query, case.k
    if label == "superlative-7-s3":
        world = make_superlative_world(7, seed=3)
        return world.corpus, world.knowledge, world.query, 7
    world = make_timeline_world(8, seed=11)
    return world.corpus, world.knowledge, world.query, 8


@pytest.mark.parametrize("mode", ["cache", "no-cache", "warm-store"])
@pytest.mark.parametrize("label", sorted(GOLDEN_ATTENTION))
def test_attention_relevance_golden(label, mode, tmp_path):
    corpus, knowledge, query, k = _golden_world(label)
    options = dict(k=k, relevance_method=RelevanceMethod.ATTENTION)
    if mode == "no-cache":
        options["cache"] = False
    if mode == "warm-store":
        options["cache_dir"] = str(tmp_path / "store")
        Rage.from_corpus(
            corpus, SimulatedLLM(knowledge=knowledge), config=RageConfig(**options)
        ).combination_insights(query)
    rage = Rage.from_corpus(
        corpus, SimulatedLLM(knowledge=knowledge), config=RageConfig(**options)
    )
    context = rage.ask(query).context
    scores = rage.relevance_scores(context)
    assert {doc_id: value.hex() for doc_id, value in scores.items()} == GOLDEN_ATTENTION[label]
    if mode == "warm-store":
        assert rage.store.stats.hits > 0


def test_make_scorer_retrieval():
    scorer = make_scorer(RelevanceMethod.RETRIEVAL)
    assert isinstance(scorer, RetrievalRelevance)
    assert isinstance(make_scorer("retrieval"), RetrievalRelevance)


def test_make_scorer_attention_needs_llm():
    with pytest.raises(ConfigError):
        make_scorer(RelevanceMethod.ATTENTION)


def test_make_scorer_attention(big_three_engine):
    scorer = make_scorer("attention", llm=big_three_engine.model)
    assert isinstance(scorer, AttentionRelevance)
