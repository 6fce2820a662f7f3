"""Seeded questions for the workloads, and the audit of finished reports.

Every world seed is drawn from the workload seed over the whole of
:data:`WORLD_SEED_SPACE`; none is excluded, so a world on which the
engine is wrong (such as the pruning defect on
``make_superlative_world(6, seed=209)``) shows up in the audit whenever
it is drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.engine import RageReport
from repro.core.evaluate import ContextEvaluator
from repro.datasets.synthetic import make_superlative_world, make_timeline_world
from repro.llm.knowledge import KnowledgeBase
from repro.llm.simulated import SimulatedLLM
from repro.retrieval.document import Corpus
from repro.textproc import normalize_answer

FAMILIES = ("timeline", "superlative")

#: Context sizes of the ``explain_cold`` questions.
EXPLAIN_KS = (6, 8, 10)

#: World seeds are drawn uniformly from ``range(WORLD_SEED_SPACE)``.
WORLD_SEED_SPACE = 1000

#: Combinations re-asked per report when the report holds a sample
#: rather than every combination (all are re-asked otherwise).
AUDIT_SAMPLE = 16


@dataclass(frozen=True)
class Question:
    """One seeded world: its question, sources and model knowledge."""

    family: str
    k: int
    world_seed: int
    query: str
    corpus: Corpus
    knowledge: KnowledgeBase

    @property
    def label(self) -> str:
        return f"{self.family}-k{self.k}-s{self.world_seed}"


def make_question(family: str, k: int, world_seed: int) -> Question:
    """Build the timeline or superlative world with ``k`` sources."""
    if family == "timeline":
        world = make_timeline_world(k, seed=world_seed)
    elif family == "superlative":
        world = make_superlative_world(k, seed=world_seed)
    else:
        raise ValueError(f"unknown world family {family!r}")
    return Question(family, k, world_seed, world.query, world.corpus, world.knowledge)


def explain_questions(seed: int, per_stratum: int = 1) -> List[Question]:
    """``per_stratum`` worlds per (k, family), interleaved across strata.

    The order cycles k and family so every prefix of the list holds a
    balanced mix of small and large contexts.
    """
    rng = random.Random(f"explain:{seed}")
    questions = []
    for _ in range(per_stratum):
        for k in EXPLAIN_KS:
            for family in FAMILIES:
                questions.append(make_question(family, k, rng.randrange(WORLD_SEED_SPACE)))
    return questions


def pooled_questions(seed: int, per_family: int, ks: Sequence[int]) -> List[Question]:
    """Distinct worlds of both families, context sizes cycling through ``ks``."""
    rng = random.Random(f"pool:{seed}")
    questions = []
    for family in FAMILIES:
        for index, world_seed in enumerate(rng.sample(range(100 * WORLD_SEED_SPACE), per_family)):
            questions.append(make_question(family, ks[index % len(ks)], world_seed))
    return questions


def merged_knowledge(questions: Sequence[Question]) -> KnowledgeBase:
    """One knowledge base holding every world's facts."""
    return KnowledgeBase(fact for question in questions for fact in question.knowledge)


def audit_report(
    report: RageReport, knowledge: KnowledgeBase, rng: random.Random
) -> Tuple[int, List[str]]:
    """Re-ask a fresh model what the report claims; return (checked, mismatches).

    Checked are the found counterfactuals and the report's combination
    answers — all of them when the report covers every combination of
    its context, else a seeded sample of :data:`AUDIT_SAMPLE`.
    """
    context = report.context
    fresh = ContextEvaluator(SimulatedLLM(knowledge=knowledge), context)
    claims: List[Tuple[str, Tuple[str, ...], str]] = []
    for search in (report.top_down, report.bottom_up, report.permutation_counterfactual):
        if search is not None and search.counterfactual is not None:
            found = search.counterfactual
            claims.append(("counterfactual", found.perturbation.apply(context), found.new_answer))
    insights = report.combination_insights
    combos = [
        (insights.display_answers[key], combo)
        for key in sorted(insights.groups)
        for combo in insights.groups[key]
    ]
    if len(combos) < 2 ** context.k - 1:
        combos = rng.sample(combos, min(AUDIT_SAMPLE, len(combos)))
    claims.extend(("combination", combo.apply(context), answer) for answer, combo in combos)
    mismatches = []
    for kind, ordering, claimed in claims:
        direct = fresh.evaluate(ordering).normalized_answer
        if direct != normalize_answer(claimed):
            mismatches.append(f"{kind} {list(ordering)}: report says {claimed!r}, model says {direct!r}")
    return len(claims), mismatches
