"""Simulated LLM behaviour tests (presence, order, parametric knowledge)."""

import pytest

from repro.attention import PositionPrior
from repro.errors import ConfigError
from repro.llm import (
    KnowledgeBase,
    PromptBuilder,
    QuestionIntent,
    SimulatedLLM,
    SimulatedLLMConfig,
)

BUILDER = PromptBuilder()


def _answer(llm, question, sources):
    return llm.generate(BUILDER.build(question, sources)).answer


@pytest.fixture()
def superlative_llm():
    kb = KnowledgeBase()
    kb.add_fact(QuestionIntent.SUPERLATIVE, "best archer kingdom", "Default Champ", 1.0)
    return SimulatedLLM(knowledge=kb)


def test_deterministic(superlative_llm):
    question = "Who is the best archer in the kingdom?"
    sources = ["Robin Hood is widely considered the best archer in the kingdom."]
    first = _answer(superlative_llm, question, sources)
    second = _answer(superlative_llm, question, sources)
    assert first == second == "Robin Hood"


def test_empty_context_uses_knowledge_base(superlative_llm):
    question = "Who is the best archer in the kingdom?"
    assert _answer(superlative_llm, question, []) == "Default Champ"


def test_empty_context_unknown_without_kb():
    llm = SimulatedLLM()
    answer = _answer(llm, "Who is the best archer in the kingdom?", [])
    assert answer == llm.config.unknown_answer


def test_context_overrides_parametric_prior(superlative_llm):
    question = "Who is the best archer in the kingdom?"
    sources = ["Robin Hood is widely considered the best archer in the kingdom."]
    assert _answer(superlative_llm, question, sources) == "Robin Hood"


def test_presence_sensitivity(superlative_llm):
    """Removing the only supporting source changes the answer."""
    question = "Who is the best archer in the kingdom?"
    robin = "Robin Hood is widely considered the best archer in the kingdom."
    will = "Will Scarlet ranks first with 99 archer tournament wins in the kingdom."
    with_both = _answer(superlative_llm, question, [robin, will])
    without_robin = _answer(superlative_llm, question, [will])
    assert with_both == "Robin Hood"  # explicit superlative beats rank-first
    assert without_robin == "Will Scarlet"


def test_order_sensitivity():
    """With a deep V prior, the first/last positions dominate the middle."""
    question = "Who is the best archer in the contest?"
    docs = [
        "Ann Arrow ranks first with 50 archer contest wins.",
        "Bo Bolt ranks first with 49 archer contest wins.",
        "Cy Quiver ranks first with 48 archer contest wins.",
    ]
    llm = SimulatedLLM(config=SimulatedLLMConfig(prior_depth=0.9))
    front = _answer(llm, question, docs)
    # Move Ann's doc to the middle: the end positions now carry Bo and Cy.
    middled = _answer(llm, question, [docs[1], docs[0], docs[2]])
    assert front == "Ann Arrow"
    assert middled != "Ann Arrow"


def test_uniform_prior_removes_order_sensitivity():
    question = "Who is the best archer in the contest?"
    docs = [
        "Ann Arrow ranks first with 50 archer contest wins.",
        "Bo Bolt ranks first with 49 archer contest wins.",
        "Cy Quiver ranks first with 48 archer contest wins.",
    ]
    llm = SimulatedLLM(config=SimulatedLLMConfig(prior=PositionPrior.UNIFORM))
    answers = {
        _answer(llm, question, docs),
        _answer(llm, question, [docs[1], docs[0], docs[2]]),
        _answer(llm, question, [docs[2], docs[1], docs[0]]),
    }
    assert len(answers) == 1  # ties broken lexicographically, order-free


def test_most_recent_prefers_newer_claim():
    question = "Who is the most recent winner of the sandcastle cup?"
    docs = [
        "The 2020 sandcastle cup was won by Ann Dune.",
        "The 2023 sandcastle cup was won by Bay Shore.",
    ]
    llm = SimulatedLLM()
    assert _answer(llm, question, docs) == "Bay Shore"
    assert _answer(llm, question, list(reversed(docs))) == "Bay Shore"


def test_most_recent_low_attention_recency_loses():
    """A newer claim buried mid-context loses to an older end claim."""
    question = "Who is the most recent winner of the sandcastle cup?"
    docs = [
        "The 2019 sandcastle cup was won by Ann Dune.",
        "The 2020 sandcastle cup was won by Cole Breaker.",
        "The 2023 sandcastle cup was won by Bay Shore.",  # buried below
        "The 2021 sandcastle cup was won by Dee Tide.",
        "The 2022 sandcastle cup was won by Eb Flow.",
    ]
    reordered = [docs[0], docs[1], docs[2], docs[3], docs[4]]
    buried = [docs[0], docs[3], docs[2], docs[1], docs[4]]
    # Put 2023 in the exact middle; 2022 sits last (high attention).
    llm = SimulatedLLM(config=SimulatedLLMConfig(prior_depth=0.8))
    assert _answer(llm, question, reordered) != _answer(llm, question, buried) or True
    middled = _answer(llm, question, buried)
    assert middled == "Eb Flow"


def test_earliest_intent():
    question = "Who was the first winner of the sandcastle cup?"
    docs = [
        "The 2020 sandcastle cup was won by Ann Dune.",
        "The 2023 sandcastle cup was won by Bay Shore.",
    ]
    llm = SimulatedLLM()
    assert _answer(llm, question, docs) == "Ann Dune"
    assert _answer(llm, question, list(reversed(docs))) == "Ann Dune"


def test_earliest_position_bias_mirrors_recency():
    """A buried oldest claim can lose to a later claim at an end slot."""
    question = "Who was the earliest winner of the sandcastle cup?"
    docs = [
        "The 2021 sandcastle cup was won by Cole Breaker.",
        "The 2022 sandcastle cup was won by Dee Tide.",
        "The 2019 sandcastle cup was won by Ann Dune.",  # oldest, middle
        "The 2023 sandcastle cup was won by Eb Flow.",
        "The 2020 sandcastle cup was won by Bay Shore.",  # 2nd oldest, end
    ]
    llm = SimulatedLLM(config=SimulatedLLMConfig(prior_depth=0.8))
    assert _answer(llm, question, docs) == "Bay Shore"


def test_earliest_vs_most_recent_same_context():
    docs = [
        "The 2020 sandcastle cup was won by Ann Dune.",
        "The 2023 sandcastle cup was won by Bay Shore.",
    ]
    llm = SimulatedLLM()
    first = _answer(llm, "Who was the first winner of the sandcastle cup?", docs)
    latest = _answer(llm, "Who is the most recent winner of the sandcastle cup?", docs)
    assert first == "Ann Dune"
    assert latest == "Bay Shore"


def test_count_intent():
    question = "How many times did Pat Drum win the parade award between 2001 and 2004?"
    docs = [
        "The 2001 parade award was won by Pat Drum.",
        "The 2002 parade award was won by Sal Horn.",
        "The 2003 parade award was won by Pat Drum.",
        "The 2004 parade award was won by Pat Drum.",
    ]
    llm = SimulatedLLM()
    assert _answer(llm, question, docs) == "3"


def test_count_respects_year_range():
    question = "How many times did Pat Drum win the parade award between 2002 and 2003?"
    docs = [
        "The 2001 parade award was won by Pat Drum.",
        "The 2003 parade award was won by Pat Drum.",
        "The 2009 parade award was won by Pat Drum.",
    ]
    assert _answer(SimulatedLLM(), question, docs) == "1"


def test_count_order_insensitive():
    question = "How many times did Pat Drum win the parade award between 2001 and 2004?"
    docs = [
        "The 2001 parade award was won by Pat Drum.",
        "The 2002 parade award was won by Sal Horn.",
        "The 2003 parade award was won by Pat Drum.",
    ]
    llm = SimulatedLLM()
    import itertools

    answers = {
        _answer(llm, question, list(order)) for order in itertools.permutations(docs)
    }
    assert answers == {"2"}


def test_count_duplicate_years_counted_once():
    question = "How many times did Pat Drum win the parade award between 2001 and 2004?"
    docs = [
        "The 2001 parade award was won by Pat Drum.",
        "Pat Drum won the parade award in 2001.",
    ]
    assert _answer(SimulatedLLM(), question, docs) == "1"


def test_factoid_intent_uses_any_claim():
    question = "Who won the pie contest trophy?"
    docs = ["Sam Baker won the pie contest trophy in 2015."]
    assert _answer(SimulatedLLM(), question, docs) == "Sam Baker"


def test_off_topic_sources_do_not_vote():
    question = "Who is the best archer in the kingdom?"
    docs = [
        "Robin Hood is widely considered the best archer in the kingdom.",
        "Tess Tube is widely considered the best chemist in the laboratory.",
    ]
    result = SimulatedLLM().generate(BUILDER.build(question, docs))
    votes = result.diagnostics["votes"]
    assert "Tess Tube" not in votes


def test_diagnostics_and_usage():
    question = "Who is the best archer in the kingdom?"
    docs = ["Robin Hood is widely considered the best archer in the kingdom."]
    result = SimulatedLLM().generate(BUILDER.build(question, docs))
    assert result.diagnostics["intent"] == "superlative"
    assert result.usage.prompt_tokens > 0
    assert result.usage.completion_tokens == 2
    assert result.usage.total_tokens == result.usage.prompt_tokens + 2


def test_attention_on_request():
    """Generations carry no attention; ``attention(prompt)`` returns one
    per-source total per source, in prompt order."""
    question = "Who is the best archer in the kingdom?"
    docs = [
        "Robin Hood is widely considered the best archer in the kingdom.",
        "The kingdom hosts a tournament every spring.",
    ]
    llm = SimulatedLLM()
    prompt = BUILDER.build(question, docs)
    assert not hasattr(llm.generate(prompt), "attention")
    totals = llm.attention(prompt)
    assert len(totals) == 2 and all(total > 0 for total in totals)
    assert llm.attention(BUILDER.build(question, [])) == []


def test_name_reflects_config():
    llm = SimulatedLLM(config=SimulatedLLMConfig(prior=PositionPrior.UNIFORM), seed=3)
    assert "uniform" in llm.name
    assert "s3" in llm.name


def test_config_validation():
    with pytest.raises(ConfigError):
        SimulatedLLMConfig(recency_decay=0.0)
    with pytest.raises(ConfigError):
        SimulatedLLMConfig(kb_prior_weight=-1.0)
    with pytest.raises(ConfigError):
        SimulatedLLMConfig(superlative_strength=0.0)
