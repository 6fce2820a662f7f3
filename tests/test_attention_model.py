"""Synthetic attention model tests."""

import math

import pytest

from repro.attention import (
    AttentionModel,
    PositionPrior,
    combination_score,
    normalize_scores,
    position_weights,
    rank_sources,
)
from repro.attention.model import NUM_HEADS, NUM_LAYERS
from repro.core import AttentionRelevance, Context
from repro.llm import PromptBuilder, SimulatedLLM
from repro.retrieval import Document

QUERY = "who won the championship"
SOURCES = [
    "Alpha won the championship in 2020 with a great season.",
    "Some completely unrelated text about gardening and soil.",
    "Beta won the championship in 2021 after a strong run.",
]


@pytest.fixture(scope="module")
def model():
    return AttentionModel(seed=1, depth=0.8)


def test_trace_shape(model):
    """One per-source total for each source, in prompt order."""
    totals = model.trace(QUERY, SOURCES)
    assert len(totals) == len(SOURCES)
    assert all(value > 0 for value in totals)


def test_trace_deterministic(model):
    assert model.trace(QUERY, SOURCES) == model.trace(QUERY, SOURCES)


def test_different_seed_different_values():
    a = AttentionModel(seed=1).trace(QUERY, SOURCES)
    b = AttentionModel(seed=2).trace(QUERY, SOURCES)
    assert a != b


def test_empty_context(model):
    assert model.trace(QUERY, []) == []


def test_aggregate_missing_sources(model):
    """Every source gets a total, including one with no tokens — even
    in last position."""
    totals = model.trace(QUERY, SOURCES + ["  ...  "])
    assert len(totals) == 4
    assert totals[3] == 0.0
    assert all(value > 0 for value in totals[:3])


def test_positional_bias_visible(model):
    """With a V prior, identical texts at the ends out-attend the middle."""
    same = ["identical text about the championship"] * 5
    totals = model.trace(QUERY, same)
    assert totals[0] > totals[2]
    assert totals[4] > totals[2]


def test_totals_follow_the_position_prior(model):
    """Salience only moves attention between a source's own tokens, and
    the hash noise scales each value by (0.5, 1.5): so a source's total
    is its prior weight times the layer x head count, within that band."""
    totals = model.trace(QUERY, SOURCES)
    weights = position_weights(model.prior, len(SOURCES), depth=model.depth)
    cells = NUM_LAYERS * NUM_HEADS
    for total, weight in zip(totals, weights):
        assert 0.5 * cells * weight < total < 1.5 * cells * weight


def test_source_share_sums_to_one(model):
    share = normalize_scores(dict(enumerate(model.trace(QUERY, SOURCES))))
    assert math.isclose(sum(share.values()), 1.0, rel_tol=1e-9)


def test_aggregate_by_source():
    """Attention relevance keys the model's per-source totals by the
    context's document ids, in context order."""
    docs = [Document(doc_id=f"doc-{i}", text=text) for i, text in enumerate(SOURCES)]
    context = Context.from_documents(QUERY, docs)
    llm = SimulatedLLM()
    prompt = PromptBuilder().build(QUERY, SOURCES)
    raw = AttentionRelevance(llm, normalize=False).scores(context)
    assert raw == dict(zip(context.doc_ids(), llm.attention(prompt)))


def test_combination_score_is_sum():
    scores = {"a": 1.0, "b": 2.0, "c": 4.0}
    assert combination_score(scores, ["a", "c"]) == 5.0
    assert combination_score(scores, []) == 0.0
    assert combination_score(scores, ["missing"]) == 0.0


def test_normalize_scores():
    normalized = normalize_scores({"a": 1.0, "b": 3.0})
    assert normalized == {"a": 0.25, "b": 0.75}
    assert normalize_scores({"a": 0.0}) == {"a": 0.0}


def test_rank_sources():
    assert rank_sources({"a": 1.0, "b": 3.0, "c": 2.0}) == ["b", "c", "a"]
    assert rank_sources({"b": 1.0, "a": 1.0}) == ["a", "b"]  # id tiebreak


def test_uniform_prior_no_position_bias():
    model = AttentionModel(prior=PositionPrior.UNIFORM, seed=3)
    same = ["identical words here"] * 4
    totals = model.trace(QUERY, same)
    # Hash noise varies per (source, token) but stays within (0.5, 1.5)x
    # of the base, so no position can dominate by more than 3x.
    assert max(totals) / min(totals) < 3.0
