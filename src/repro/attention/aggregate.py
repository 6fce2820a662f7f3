"""Relevance estimates from per-source attention.

The paper's first relevance method ``S``

    "we aggregate the LLM's attention values, summing them over all
    internal layers, attention heads, and tokens corresponding to a
    combination's constituent sources."

arrives here already summed per source: a model's ``attention(prompt)``
does the summing (see :mod:`repro.llm.base`).  This module normalizes
those totals and provides the combination-level estimate used to order
equal-size subsets:

    "the sum of the relative relevance scores of all sources within the
    combination".
"""

from __future__ import annotations

from typing import Dict, Iterable, List


def combination_score(source_scores: Dict[str, float], combination: Iterable[str]) -> float:
    """Estimated relevance of a combination: sum of member source scores.

    Per the paper, combinations are only compared at equal size, so no
    size normalization is applied.
    """
    return sum(source_scores.get(doc_id, 0.0) for doc_id in combination)


def normalize_scores(scores: Dict[str, float]) -> Dict[str, float]:
    """Scale scores to sum to 1 (all-zero input is returned unchanged)."""
    mass = sum(scores.values())
    if mass <= 0:
        return dict(scores)
    return {doc_id: value / mass for doc_id, value in scores.items()}


def rank_sources(scores: Dict[str, float]) -> List[str]:
    """Document ids sorted by descending score, ties broken by id."""
    return [
        doc_id
        for doc_id, _ in sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    ]
