"""Synthetic per-source attention totals.

The real RAGE sums Llama-2 attention values "over all internal layers,
attention heads, and tokens corresponding to a combination's constituent
sources".  Without the real model we synthesize attention values whose
structure preserves the two signals that drive that aggregate:

* **position** — each source's share of attention follows the simulated
  LLM's positional prior (V-shaped by default), and
* **query salience** — within a source, tokens overlapping the query's
  content terms receive proportionally more attention.

On top of that deterministic backbone, per-(layer, head, token) values
are modulated by a hash-seeded pseudo-random factor, so totals carry
real head-to-head variation while remaining exactly reproducible.  Only
the per-source sums leave this module: they are all the paper's
aggregate consumes.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence

from ..textproc import Tokenizer, word_spans
from .positional import PositionPrior, position_weights

#: Simulated transformer shape.  The aggregation is linear, so the shape
#: does not change relative source ordering; small keeps it cheap.
NUM_LAYERS = 4
NUM_HEADS = 4


def _hash_unit(*parts: object) -> float:
    """Deterministic pseudo-random float in (0, 1) from the parts' hash."""
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (int.from_bytes(digest, "big") + 1) / (2**64 + 2)


class AttentionModel:
    """Deterministic synthetic attention for a (query, sources) prompt.

    Parameters
    ----------
    prior:
        Position prior governing the across-source attention split.
    seed:
        Extra entropy folded into the per-token hash so different model
        instances produce different (but individually stable) totals.
    depth:
        Shape of the V-shaped / inverted-V prior.
    """

    def __init__(
        self,
        prior: PositionPrior | str = PositionPrior.V_SHAPED,
        seed: int = 0,
        depth: float = 0.5,
    ) -> None:
        self.prior = PositionPrior(prior)
        self.seed = seed
        self.depth = depth
        self._tokenizer = Tokenizer(remove_stopwords=True, stem=True)

    def trace(self, query: str, source_texts: Sequence[str]) -> List[float]:
        """Attention summed over layers, heads and tokens, per source.

        One total per source, in prompt order (0.0 for a source with no
        tokens).  Each token's values are summed over heads within a
        layer, then over layers, then added into its source in token
        order — a fixed order, so totals are bit-stable.
        """
        k = len(source_texts)
        if k == 0:
            return []
        pos_weights = position_weights(self.prior, k, depth=self.depth)
        query_terms = set(self._tokenizer.tokenize(query))
        totals = [0.0] * k
        for source_index, text in enumerate(source_texts):
            spans = word_spans(text)
            if not spans:
                continue
            saliences = [
                2.0 if self._analyzed(span.text) & query_terms else 1.0
                for span in spans
            ]
            salience_mass = sum(saliences)
            for token_index, salience in enumerate(saliences):
                base = pos_weights[source_index] * salience / salience_mass
                totals[source_index] += sum(
                    sum(
                        base
                        * (0.5 + _hash_unit(self.seed, source_index, token_index, layer, head))
                        for head in range(NUM_HEADS)
                    )
                    for layer in range(NUM_LAYERS)
                )
        return totals

    def _analyzed(self, token: str) -> set:
        return set(self._tokenizer.tokenize(token))
