"""Count real model calls at the model boundary.

``RageReport.llm_calls`` counts evaluator lookups, prompt-cache and
store hits included, so it cannot tell a warm report from a cold one.
:class:`CountingLLM` sits *inside* the prompt cache, where only misses
arrive, and counts every prompt the wrapped model is asked to answer.

It forwards ``name`` and ``cache_params`` unchanged, so the prompt
store's content keys — and therefore which entries a warm run finds —
are exactly those of the bare model.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.llm.base import GenerationResult, LanguageModel

_ENTRY_POINTS = ("generate", "generate_batch", "agenerate", "agenerate_batch")


class CountingLLM:
    """Forwarding wrapper that counts prompts reaching ``inner``.

    The wrapped model must offer all four entry points (the simulated
    model does): exposing one it lacks would change which dispatch path
    the caller picks, and with it the work measured.
    """

    def __init__(self, inner: LanguageModel) -> None:
        missing = [name for name in _ENTRY_POINTS if not callable(getattr(inner, name, None))]
        if missing:
            raise TypeError(f"{type(inner).__name__} lacks {', '.join(missing)}")
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def cache_params(self) -> Optional[Dict[str, object]]:
        return getattr(self.inner, "cache_params", None)

    def _count(self, prompts: int) -> None:
        with self._lock:
            self.calls += prompts

    def generate(self, prompt: str) -> GenerationResult:
        self._count(1)
        return self.inner.generate(prompt)

    def generate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        self._count(len(prompts))
        return self.inner.generate_batch(prompts)  # type: ignore[attr-defined]

    async def agenerate(self, prompt: str) -> GenerationResult:
        self._count(1)
        return await self.inner.agenerate(prompt)  # type: ignore[attr-defined]

    async def agenerate_batch(self, prompts: Sequence[str]) -> List[GenerationResult]:
        self._count(len(prompts))
        return await self.inner.agenerate_batch(prompts)  # type: ignore[attr-defined]
