"""Relative relevance scores ``S(q, d, Dq)`` — the paper's two methods.

    "To estimate the relative relevance of a source d in Dq, the user
    can select from two scoring methods S. In the first method, we
    aggregate the LLM's attention values ... In the second method, we
    sum the relevance scores produced by the retrieval model."

Scores order equal-size combinations in the counterfactual search and
weight sources in the optimal-permutation assignment.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Protocol

from ..attention.aggregate import normalize_scores
from ..errors import ConfigError, GenerationError
from ..llm.base import LanguageModel
from ..llm.prompts import PromptBuilder
from .context import Context


class RelevanceMethod(str, Enum):
    """Which signal estimates source relevance."""

    ATTENTION = "attention"
    RETRIEVAL = "retrieval"


class RelevanceScorer(Protocol):
    """Produces per-source relevance estimates for a context."""

    def scores(self, context: Context) -> Dict[str, float]:
        """doc_id -> relative relevance."""
        ...


class RetrievalRelevance:
    """Relevance = the retrieval model's scores (BM25 by default)."""

    def scores(self, context: Context) -> Dict[str, float]:
        return context.retrieval_scores()


class AttentionRelevance:
    """Relevance = LLM attention summed over layers, heads and tokens.

    Asks the model for its per-source attention on the full-context
    prompt — the optional ``attention(prompt)`` capability described in
    :mod:`repro.llm.base` — once per call.  Pass the model itself, not
    a caching wrapper: attention is never cached.  Models that expose
    no attention are a configuration error — fall back to
    :class:`RetrievalRelevance` for those.
    """

    def __init__(
        self,
        llm: LanguageModel,
        prompt_builder: Optional[PromptBuilder] = None,
        normalize: bool = True,
    ) -> None:
        self.llm = llm
        self.prompt_builder = prompt_builder or PromptBuilder()
        self.normalize = normalize

    def scores(self, context: Context) -> Dict[str, float]:
        attention = getattr(self.llm, "attention", None)
        if not callable(attention):
            raise ConfigError(
                f"model {self.llm.name!r} exposes no attention; "
                "use RelevanceMethod.RETRIEVAL"
            )
        doc_ids = context.doc_ids()
        prompt = self.prompt_builder.build(context.query, context.texts_for(doc_ids))
        totals = list(attention(prompt))
        if len(totals) != len(doc_ids):
            raise GenerationError(
                f"model {self.llm.name!r} returned {len(totals)} attention "
                f"totals for {len(doc_ids)} sources"
            )
        scores = dict(zip(doc_ids, totals))
        return normalize_scores(scores) if self.normalize else scores


def make_scorer(
    method: RelevanceMethod | str,
    llm: Optional[LanguageModel] = None,
    prompt_builder: Optional[PromptBuilder] = None,
) -> RelevanceScorer:
    """Factory for the paper's two scoring methods."""
    method = RelevanceMethod(method)
    if method is RelevanceMethod.RETRIEVAL:
        return RetrievalRelevance()
    if llm is None:
        raise ConfigError("attention-based relevance needs the LLM")
    return AttentionRelevance(llm, prompt_builder)
