"""Attention substrate: positional priors and synthetic per-source attention.

Substitutes for the paper's Hugging Face attention tensors (see
DESIGN.md section 3.2): the aggregate per-source attention preserves the
position + query-salience structure the explanations depend on.
"""

from .aggregate import (
    combination_score,
    normalize_scores,
    rank_sources,
)
from .model import AttentionModel
from .positional import (
    PositionPrior,
    inverted_v_weights,
    position_weights,
    primacy_weights,
    recency_weights,
    uniform_weights,
    v_shaped_weights,
)

__all__ = [
    "combination_score",
    "normalize_scores",
    "rank_sources",
    "AttentionModel",
    "PositionPrior",
    "inverted_v_weights",
    "position_weights",
    "primacy_weights",
    "recency_weights",
    "uniform_weights",
    "v_shaped_weights",
]
