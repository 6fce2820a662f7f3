"""The RAGE engine — the library's front door.

Wires together retrieval (index + BM25), the LLM (wrapped in a cache),
relevance scoring, and every explanation primitive behind one object,
mirroring the architecture of Figure 1: users pose a question, the
retrieval model builds the context, the LLM answers, and the
perturbation/counterfactual searches explain.

Typical use::

    from repro import Rage, RageConfig, SimulatedLLM
    from repro.datasets import load_use_case

    uc = load_use_case("big_three")
    rage = Rage.from_corpus(uc.corpus, SimulatedLLM(knowledge=uc.knowledge),
                            config=RageConfig(k=4))
    answered = rage.ask(uc.query)
    insights = rage.combination_insights(uc.query)
    flip = rage.combination_counterfactual(uc.query)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..attention.positional import PositionPrior
from ..errors import ConfigError
from ..exec import ExecutionBackend, make_backend
from ..llm.base import GenerationResult, LanguageModel
from ..llm.cache import CachingLLM
from ..llm.remote import RemoteLLM, parse_model_spec
from ..llm.router import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    RouterLLM,
)
from ..llm.simulated import SimulatedLLM
from ..llm.store import PromptStore
from ..llm.prompts import DEFAULT_PROMPT_BUILDER, PromptBuilder
from ..llm.transport import DEFAULT_TIMEOUT, RetryPolicy
from ..retrieval.bm25 import Scorer
from ..retrieval.document import Corpus, Document
from ..retrieval.index import InvertedIndex
from ..retrieval.searcher import Searcher
from ..retrieval.sqlindex import (
    FUSION_STRATEGIES,
    RETRIEVAL_MODES,
    SqliteIndex,
    SqliteSearcher,
    make_retrieval_scorer,
    open_index,
)
from .context import Context
from .counterfactual import (
    CombinationSearchResult,
    SearchDirection,
    search_combination_counterfactual,
)
from .evaluate import ContextEvaluator
from .insights import (
    CombinationInsights,
    PermutationInsights,
    analyze_combinations,
    analyze_permutations,
)
from .optimal import OptimalPermutation, optimal_permutations
from .lattice import AnswerLattice
from .permutation_cf import PermutationSearchResult, search_permutation_counterfactual
from .plan import EvaluationPlan, PlanStats
from .sampling import select_combinations, select_permutations
from .scoring import RelevanceMethod, make_scorer
from .stability import OrderStability, order_stability as compute_order_stability


@dataclass(frozen=True)
class RageConfig:
    """Engine configuration.

    Attributes
    ----------
    k:
        Retrieval depth (size of the context ``Dq``).
    relevance_method:
        Which ``S(q, d, Dq)`` orders combinations and weights optimal
        permutations: RETRIEVAL (BM25 scores) or ATTENTION (aggregated
        LLM attention).
    max_evaluations:
        LLM-call budget per counterfactual search.
    sample_size:
        Default perturbation sample size for the insight analyses;
        ``None`` analyzes all combinations / permutations.
    seed:
        Seed for perturbation sampling.
    expected_prior, expected_depth:
        The user-calibrated expected position-attention distribution
        used by optimal permutations.
    cache:
        Wrap the LLM in a prompt cache (recommended).
    backend:
        Execution-backend spec: ``serial`` (default), ``threaded[:N]``
        (thread pool) or ``asyncio[:N]`` (event loop driving the LLM's
        async contract, at most ``N`` calls in flight).  With
        ``cache=True`` it runs the prompt cache's misses; otherwise the
        evaluator's batches.  See :mod:`repro.exec`.
    cache_dir:
        Directory for the content-addressed persistent generation
        store (:class:`~repro.llm.store.PromptStore`).  The prompt
        cache gains a write-through disk tier shared across processes:
        a re-run report answers warm with zero real LLM calls.
        Requires ``cache=True``.
    cache_max_bytes:
        LRU size cap for the persistent store; ``None`` = unbounded.
    search_batch_size:
        Un-memoized candidates per LLM batch inside the sequential
        counterfactual searches.  1 (default) is the paper's strictly
        serial search; larger values trade a few evaluations past the
        flip for batched-backend throughput.
    plan_pruning:
        Let ``explain()`` attach an
        :class:`~repro.core.lattice.AnswerLattice` to its evaluation
        plan: combination answers that are implied by already-evaluated
        combinations (monotone sandwich bounds between confirmed
        answer-rule intervals) are pruned from the batch instead of
        paying an LLM call, and the counterfactual searches skip
        candidates whose implied answer cannot flip (implied flips are
        verified by one real evaluation).  Implication self-gates on
        observed order stability and rolls back on any conflict, so
        position-sensitive contexts degrade to the unpruned plan;
        ``rage report --no-prune`` and ``plan_pruning=False`` disable
        it outright.
    adaptive_search_batching:
        Grow the counterfactual searches' evaluation chunk
        geometrically (from ``search_batch_size``, reset on near-hits)
        while no flip appears — fewer, larger batches for real
        transformer backends.  Off by default: the paper's search is
        strictly sequential and adaptive chunks may charge a few extra
        evaluations past the flip.
    model:
        Optional model spec for engine-built models.  ``None`` (the
        default) means the caller hands :class:`Rage` an LLM instance;
        ``"remote:<provider>:<model>"`` (e.g.
        ``remote:openai:gpt-4o-mini``) makes the engine construct a
        :class:`~repro.llm.remote.RemoteLLM` from the transport fields
        below when no LLM is passed.
    base_url:
        Endpoint root for the remote model; ``None`` = the provider's
        public API.  Point it at a local gateway or fake server for
        hermetic runs.
    api_key_env:
        *Name* of the environment variable holding the API key (the
        key itself never lives in a config); unset variable =
        :class:`ConfigError` at engine construction.
    request_timeout:
        Per-call deadline in seconds.  For an engine-built remote model
        it is the per-HTTP-request timeout, enforced by the transport —
        each retry attempt gets its own deadline, so the retry policy
        stays reachable and total time is bounded by roughly
        ``(retries + 1) * request_timeout + retry_budget``.  For a model
        handed to the engine the execution backend deadlines each call
        it runs; a model exposing only a native batch entry point is
        one call, so the bound covers its whole miss batch.  ``None``
        waits forever for local models; remote models then use the
        transport default.
    rate_limit / rate_burst:
        Token-bucket throttle for the remote model (requests/second and
        burst), shared across all concurrent calls; ``None`` =
        unthrottled.
    retries:
        Additional attempts after a failed remote request (429,
        transient 5xx, timeout, malformed body); 0 = fail on first
        fault.
    retry_budget:
        Cap on cumulative backoff sleep per request, seconds.
    providers:
        Ordered provider-pool specs for a
        :class:`~repro.llm.router.RouterLLM` — each entry is
        ``remote:<provider>:<model>`` (optionally
        ``remote:<provider>:<model>@<base_url>`` to pin a
        per-provider endpoint) or ``fallback:simulated`` (the local
        deterministic model as a last resort).  Mutually exclusive
        with ``model``: the pool *is* the model.  Remote members share
        the transport fields above (``base_url`` is the default for
        specs without ``@``); every member must answer identically so
        failover changes who served, never the bytes.
    breaker_threshold / breaker_cooldown:
        Per-provider circuit breaker: consecutive transport faults
        before a breaker opens, and seconds before an open breaker
        allows its half-open probe.  ``None`` = the router defaults
        (5 failures, 30 s).  Require ``providers``.
    hedge:
        Fire a backup request on the next healthy provider once the
        primary exceeds the hedge delay, on every backend; first
        response wins, the loser is cancelled and its rate-limit
        reservation refunded.  Requires ``providers``.
    hedge_delay:
        Seconds before the backup fires; ``None`` = the primary's
        observed p95 latency.  Requires ``hedge=True``.
    index_dir:
        Directory for the persistent SQLite retrieval index
        (:class:`~repro.retrieval.sqlindex.SqliteIndex`).
        :meth:`Rage.from_corpus` then opens (or creates) the index
        there and syncs the corpus incrementally — unchanged documents
        are never re-analyzed, so a warm restart serves the first query
        without rebuilding.  ``None`` (default) keeps the historical
        in-memory :class:`~repro.retrieval.index.InvertedIndex`.
    retrieval_mode:
        How the context ``Dq`` is ranked: ``"bm25"`` (sparse,
        default), ``"dense"`` (hashed-embedding cosine) or ``"hybrid"``
        (scale-safe fusion of both).  Dense vectors live in the
        persistent index, so the non-sparse modes require
        ``index_dir``.
    fusion:
        Hybrid fusion strategy: ``"minmax"`` (min-max-normalized
        linear fusion, the default) or ``"rrf"`` (reciprocal-rank
        fusion).  Requires ``retrieval_mode="hybrid"``.
    hybrid_alpha:
        Sparse-side weight of the hybrid fusion, in ``[0, 1]``
        (default 0.5).  Requires ``retrieval_mode="hybrid"``.
    """

    k: int = 10
    relevance_method: RelevanceMethod = RelevanceMethod.RETRIEVAL
    max_evaluations: int = 2000
    sample_size: Optional[int] = None
    seed: int = 0
    expected_prior: PositionPrior = PositionPrior.V_SHAPED
    expected_depth: float = 0.8
    cache: bool = True
    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    search_batch_size: int = 1
    plan_pruning: bool = True
    adaptive_search_batching: bool = False
    model: Optional[str] = None
    base_url: Optional[str] = None
    api_key_env: Optional[str] = None
    request_timeout: Optional[float] = None
    rate_limit: Optional[float] = None
    rate_burst: Optional[int] = None
    retries: int = 3
    retry_budget: float = 30.0
    providers: Optional[Sequence[str]] = None
    breaker_threshold: Optional[int] = None
    breaker_cooldown: Optional[float] = None
    hedge: bool = False
    hedge_delay: Optional[float] = None
    index_dir: Optional[str] = None
    retrieval_mode: str = "bm25"
    fusion: Optional[str] = None
    hybrid_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.max_evaluations <= 0:
            raise ConfigError("max_evaluations must be positive")
        if self.search_batch_size < 1:
            raise ConfigError("search_batch_size must be >= 1")
        if self.cache_dir is not None and not self.cache:
            raise ConfigError("cache_dir requires cache=True (the disk store "
                              "is a tier of the prompt cache)")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ConfigError("cache_max_bytes must be >= 1 (or None)")
        if self.model is not None and self.providers is not None:
            raise ConfigError(
                "model and providers are mutually exclusive: the provider "
                "pool *is* the model (put the spec in providers instead)"
            )
        if self.model is not None:
            parse_model_spec(self.model)  # validate the spec shape
        has_remote_provider = False
        if self.providers is not None:
            # Normalize to a tuple so the frozen config hashes and the
            # pool order is pinned.
            object.__setattr__(self, "providers", tuple(self.providers))
            if not self.providers:
                raise ConfigError(
                    "providers must name at least one spec (or be None)"
                )
            if len(set(self.providers)) != len(self.providers):
                raise ConfigError(
                    f"duplicate provider specs in {list(self.providers)!r}"
                )
            for spec in self.providers:
                parse_provider_spec(spec)  # validate each entry's shape
            has_remote_provider = any(
                spec != FALLBACK_SIMULATED for spec in self.providers
            )
        if self.model is None and not has_remote_provider:
            inert = [
                name
                for name, value in (
                    ("base_url", self.base_url),
                    ("api_key_env", self.api_key_env),
                    ("rate_limit", self.rate_limit),
                    ("rate_burst", self.rate_burst),
                )
                if value is not None
            ]
            if inert:
                # Silently ignoring these would let a mistyped CLI run
                # "succeed" against the simulated model while the user
                # believes their endpoint was exercised.
                raise ConfigError(
                    f"{', '.join(inert)} only affect remote models; set "
                    "model='remote:<provider>:<model>' (or drop them)"
                )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1 (or None), "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_cooldown is not None and self.breaker_cooldown < 0:
            raise ConfigError(
                "breaker_cooldown must be >= 0 seconds (or None)"
            )
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ConfigError("hedge_delay must be > 0 seconds (or None)")
        if self.providers is None:
            inert_router = [
                name
                for name, value in (
                    ("breaker_threshold", self.breaker_threshold),
                    ("breaker_cooldown", self.breaker_cooldown),
                    ("hedge_delay", self.hedge_delay),
                )
                if value is not None
            ]
            if self.hedge:
                inert_router.append("hedge")
            if inert_router:
                raise ConfigError(
                    f"{', '.join(inert_router)} only affect a provider "
                    "pool; set providers=[...] (or drop them)"
                )
        elif self.hedge_delay is not None and not self.hedge:
            raise ConfigError(
                "hedge_delay without hedge=True has no effect"
            )
        if self.base_url is not None and not self.base_url.startswith(
            ("http://", "https://")
        ):
            raise ConfigError(f"base_url must be http(s), got {self.base_url!r}")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ConfigError("request_timeout must be > 0 seconds (or None)")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ConfigError("rate_limit must be > 0 requests/sec (or None)")
        if self.rate_burst is not None and self.rate_burst < 1:
            raise ConfigError("rate_burst must be >= 1 (or None)")
        if self.retrieval_mode not in RETRIEVAL_MODES:
            raise ConfigError(
                f"retrieval_mode must be one of {RETRIEVAL_MODES}, "
                f"got {self.retrieval_mode!r}"
            )
        if self.retrieval_mode != "bm25" and self.index_dir is None:
            raise ConfigError(
                f"retrieval_mode={self.retrieval_mode!r} requires index_dir: "
                "dense vectors live in the persistent index"
            )
        if self.fusion is not None and self.fusion not in FUSION_STRATEGIES:
            raise ConfigError(
                f"fusion must be one of {FUSION_STRATEGIES}, got {self.fusion!r}"
            )
        if self.hybrid_alpha is not None and not 0.0 <= self.hybrid_alpha <= 1.0:
            raise ConfigError(
                f"hybrid_alpha must be in [0, 1], got {self.hybrid_alpha}"
            )
        if self.retrieval_mode != "hybrid":
            inert_fusion = [
                name
                for name, value in (
                    ("fusion", self.fusion),
                    ("hybrid_alpha", self.hybrid_alpha),
                )
                if value is not None
            ]
            if inert_fusion:
                raise ConfigError(
                    f"{', '.join(inert_fusion)} only affect hybrid fusion; "
                    "set retrieval_mode='hybrid' (or drop them)"
                )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.retry_budget < 0:
            raise ConfigError(f"retry_budget must be >= 0, got {self.retry_budget}")
        make_backend(self.backend, timeout=self.request_timeout)  # validate spec


#: Provider spec naming the deterministic simulated model as the last
#: rung of a failover pool.
FALLBACK_SIMULATED = "fallback:simulated"


def parse_provider_spec(spec: str):
    """Validate and split one ``RageConfig.providers`` entry.

    Two shapes are accepted:

    * ``remote:<provider>:<model>[@<base_url>]`` — a remote endpoint;
      the optional ``@<base_url>`` pins that member to its own host
      (two pool members may run the same model behind different
      endpoints).  Returns ``("remote", (provider, model, base_url))``
      with ``base_url`` ``None`` when not pinned.
    * ``fallback:simulated`` — the deterministic local model.  Returns
      ``("fallback", None)``.
    """
    if not isinstance(spec, str):
        raise ConfigError(
            f"provider spec must be a string, got {type(spec).__name__}"
        )
    if spec == FALLBACK_SIMULATED:
        return "fallback", None
    if spec.startswith("fallback:"):
        raise ConfigError(
            f"unknown fallback spec {spec!r}: only "
            f"{FALLBACK_SIMULATED!r} is supported"
        )
    head, _, base_url = spec.partition("@")
    provider, model_id = parse_model_spec(head)
    if base_url:
        if not base_url.startswith(("http://", "https://")):
            raise ConfigError(
                f"provider spec {spec!r}: base_url after '@' must start "
                "with http:// or https://"
            )
    return "remote", (provider, model_id, base_url or None)


def build_remote_llm(config: RageConfig) -> RemoteLLM:
    """Construct the :class:`~repro.llm.remote.RemoteLLM` a config names.

    Used by :class:`Rage` when no LLM instance is handed in; also the
    one place the config's transport fields (timeout, rate, retries)
    become a live policy stack.
    """
    if config.model is None:
        raise ConfigError(
            "no model to build: pass an LLM instance, set "
            "RageConfig.model to a remote:<provider>:<model> spec, or "
            "name a provider pool in RageConfig.providers"
        )
    provider, model_id = parse_model_spec(config.model)
    return _build_remote_member(config, provider, model_id, config.base_url)


def _build_remote_member(
    config: RageConfig,
    provider: str,
    model_id: str,
    base_url: Optional[str],
) -> RemoteLLM:
    """One remote endpoint wired with the config's transport policy."""
    return RemoteLLM(
        provider,
        model_id,
        base_url=base_url,
        api_key_env=config.api_key_env,
        timeout=(
            config.request_timeout
            if config.request_timeout is not None
            else DEFAULT_TIMEOUT
        ),
        rate_limit=config.rate_limit,
        rate_burst=config.rate_burst,
        retry=RetryPolicy(
            max_attempts=config.retries + 1, budget=config.retry_budget
        ),
    )


def build_model_chain(
    config: RageConfig, knowledge=None
) -> LanguageModel:
    """Construct the model a config names: single remote or router pool.

    With ``config.providers`` unset this is :func:`build_remote_llm`.
    Otherwise each spec becomes a pool member (remote endpoints share
    the config's transport fields; a ``fallback:simulated`` entry gets
    a :class:`~repro.llm.simulated.SimulatedLLM` seeded with
    ``knowledge``) and the pool is wrapped in a
    :class:`~repro.llm.router.RouterLLM` with the config's breaker and
    hedging policy.
    """
    if config.providers is None:
        return build_remote_llm(config)
    members: List[LanguageModel] = []
    for spec in config.providers:
        kind, payload = parse_provider_spec(spec)
        if kind == "fallback":
            members.append(SimulatedLLM(knowledge=knowledge))
        else:
            provider, model_id, base_url = payload
            members.append(
                _build_remote_member(
                    config, provider, model_id, base_url or config.base_url
                )
            )
    return RouterLLM(
        members,
        breaker_threshold=(
            config.breaker_threshold
            if config.breaker_threshold is not None
            else DEFAULT_BREAKER_THRESHOLD
        ),
        breaker_cooldown=(
            config.breaker_cooldown
            if config.breaker_cooldown is not None
            else DEFAULT_BREAKER_COOLDOWN
        ),
        hedge=config.hedge,
        hedge_delay=config.hedge_delay,
    )


@dataclass
class AskResult:
    """Answer to a plain (un-explained) question."""

    query: str
    answer: str
    context: Context
    generation: GenerationResult


@dataclass
class RageReport:
    """One-call bundle of every explanation for a question.

    ``plan_stats`` carries the evaluation plan's flush accounting when
    ``explain()`` pre-batched the report; ``implied`` and ``pruned``
    surface the answer-implication savings (lattice-implied answers
    consumed, and LLM calls avoided net of verification probes) — both
    zero when plan pruning is disabled or self-gated off.
    """

    query: str
    answer: str
    context: Context
    combination_insights: CombinationInsights
    permutation_insights: Optional[PermutationInsights]
    top_down: CombinationSearchResult
    bottom_up: CombinationSearchResult
    permutation_counterfactual: Optional[PermutationSearchResult]
    optimal: List[OptimalPermutation] = field(default_factory=list)
    stability: Optional[OrderStability] = None
    llm_calls: int = 0
    plan_stats: Optional[PlanStats] = None
    implied: int = 0
    pruned: int = 0


class Rage:
    """Retrieval-Augmented Generation Explainer."""

    def __init__(
        self,
        index: InvertedIndex | SqliteIndex,
        llm: Optional[LanguageModel] = None,
        config: Optional[RageConfig] = None,
        retrieval_scorer: Optional[Scorer] = None,
        prompt_builder: Optional[PromptBuilder] = None,
    ) -> None:
        self.config = config or RageConfig()
        timeout = self.config.request_timeout
        if llm is None:
            # ``config.model`` / ``config.providers`` name endpoints the
            # engine can build itself; every other model kind needs an
            # instance.  Each member's transport owns the deadline: a
            # dispatch-level bound on top would spend the whole budget
            # on the first hung attempt and cut the router's failover
            # walk mid-pool.
            llm = build_model_chain(self.config)
            timeout = None
        self.index = index
        if retrieval_scorer is None and self.config.retrieval_mode != "bm25":
            # Dense/hybrid ranking needs the vectors only a persistent
            # index stores; an in-memory index here means the config and
            # the construction path disagree.
            if not isinstance(index, SqliteIndex):
                raise ConfigError(
                    f"retrieval_mode={self.config.retrieval_mode!r} needs a "
                    "persistent SqliteIndex (build the engine with "
                    "from_corpus and config.index_dir)"
                )
            retrieval_scorer = make_retrieval_scorer(
                index,
                mode=self.config.retrieval_mode,
                fusion=self.config.fusion or "minmax",
                alpha=(
                    self.config.hybrid_alpha
                    if self.config.hybrid_alpha is not None
                    else 0.5
                ),
            )
        if isinstance(index, SqliteIndex):
            # Snapshot-per-search: rankings never straddle a concurrent
            # indexer commit.
            self.searcher: Searcher = SqliteSearcher(index, scorer=retrieval_scorer)
        else:
            self.searcher = Searcher(index, scorer=retrieval_scorer)
        self.backend: ExecutionBackend = make_backend(
            self.config.backend, timeout=timeout
        )
        self.store: Optional[PromptStore] = (
            PromptStore(self.config.cache_dir, max_bytes=self.config.cache_max_bytes)
            if self.config.cache_dir is not None
            else None
        )
        self.llm: LanguageModel = (
            CachingLLM(llm, self.backend, store=self.store)
            if self.config.cache
            else llm
        )
        self.prompt_builder = prompt_builder or DEFAULT_PROMPT_BUILDER

    @classmethod
    def from_corpus(
        cls,
        corpus: Corpus | Sequence[Document],
        llm: Optional[LanguageModel] = None,
        config: Optional[RageConfig] = None,
        retrieval_scorer: Optional[Scorer] = None,
    ) -> "Rage":
        """Index a corpus and build the engine in one step.

        ``llm=None`` builds the model from ``config.model`` (remote
        specs only — see :func:`build_remote_llm`).

        With ``config.index_dir`` set, the corpus is mirrored into the
        persistent SQLite index at that directory instead of an
        in-memory rebuild: unchanged documents are detected by content
        hash and skipped (zero re-tokenization on a warm restart),
        changed ones re-indexed, and documents no longer in the corpus
        withdrawn.
        """
        config = config or RageConfig()
        if config.index_dir is not None:
            index: InvertedIndex | SqliteIndex = open_index(
                config.index_dir, dense=config.retrieval_mode != "bm25"
            )
            index.sync(corpus, remove_missing=True)
        else:
            index = InvertedIndex.build(corpus)
        return cls(index, llm, config=config, retrieval_scorer=retrieval_scorer)

    # -- retrieval and answering ------------------------------------------

    def retrieve(self, query: str, k: Optional[int] = None) -> Context:
        """Build the context ``Dq`` for a query."""
        result = self.searcher.search(query, k=k or self.config.k)
        return Context.from_retrieval(result)

    def ask(
        self,
        query: str,
        context: Optional[Context] = None,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> AskResult:
        """Retrieve (unless given a context) and answer.

        The full generation (with attention trace) also primes the
        evaluator's memo, so a shared evaluator never re-pays for the
        full-context evaluation.
        """
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        generation = evaluator.generation(context.doc_ids())
        evaluator.prime(context.doc_ids(), generation)
        return AskResult(
            query=query,
            answer=generation.answer,
            context=context,
            generation=generation,
        )

    # -- explanations -------------------------------------------------------

    def relevance_scores(self, context: Context) -> Dict[str, float]:
        """``S(q, d, Dq)`` under the configured method."""
        scorer = make_scorer(
            self.config.relevance_method, llm=self.llm, prompt_builder=self.prompt_builder
        )
        return scorer.scores(context)

    def combination_insights(
        self,
        query: str,
        context: Optional[Context] = None,
        sample_size: Optional[int] = None,
        include_empty: bool = False,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> CombinationInsights:
        """Answer distribution, table and rules over combinations."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        perturbations = select_combinations(
            context,
            sample_size=sample_size if sample_size is not None else self.config.sample_size,
            seed=self.config.seed,
            include_empty=include_empty,
        )
        return analyze_combinations(evaluator, perturbations)

    def permutation_insights(
        self,
        query: str,
        context: Optional[Context] = None,
        sample_size: Optional[int] = None,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> PermutationInsights:
        """Answer distribution, table and rules over permutations."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        perturbations = select_permutations(
            context,
            sample_size=sample_size if sample_size is not None else self.config.sample_size,
            seed=self.config.seed,
        )
        return analyze_permutations(evaluator, perturbations)

    def combination_counterfactual(
        self,
        query: str,
        context: Optional[Context] = None,
        direction: SearchDirection | str = SearchDirection.TOP_DOWN,
        target_answer: Optional[str] = None,
        max_evaluations: Optional[int] = None,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> CombinationSearchResult:
        """Minimal source removal (top-down) or retention (bottom-up)
        that flips the answer."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        return search_combination_counterfactual(
            evaluator,
            relevance_scores=self.relevance_scores(context),
            direction=direction,
            target_answer=target_answer,
            max_evaluations=max_evaluations or self.config.max_evaluations,
            batch_size=self.config.search_batch_size,
        )

    def permutation_counterfactual(
        self,
        query: str,
        context: Optional[Context] = None,
        target_answer: Optional[str] = None,
        max_evaluations: Optional[int] = None,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> PermutationSearchResult:
        """Most-similar reordering (max Kendall tau) that flips the answer."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        return search_permutation_counterfactual(
            evaluator,
            target_answer=target_answer,
            max_evaluations=max_evaluations or self.config.max_evaluations,
            batch_size=self.config.search_batch_size,
        )

    def optimal_permutations(
        self,
        query: str,
        context: Optional[Context] = None,
        s: int = 5,
        method: str = "ch",
    ) -> List[OptimalPermutation]:
        """Top-s placements of sources into high-attention positions."""
        context = context or self.retrieve(query)
        return optimal_permutations(
            context,
            relevance_scores=self.relevance_scores(context),
            s=s,
            prior=self.config.expected_prior,
            depth=self.config.expected_depth,
            method=method,
        )

    def source_salience(
        self,
        query: str,
        context: Optional[Context] = None,
        answer: Optional[str] = None,
        sample_size: Optional[int] = None,
    ):
        """Per-source influence contrasts for an answer (defaults to the
        most frequent answer across the analyzed combinations)."""
        from .stability import source_salience

        context = context or self.retrieve(query)
        insights = self.combination_insights(
            query, context=context, sample_size=sample_size
        )
        return source_salience(insights, answer=answer)

    def order_stability(
        self,
        query: str,
        context: Optional[Context] = None,
        sample_size: Optional[int] = 50,
        evaluator: Optional[ContextEvaluator] = None,
    ) -> OrderStability:
        """Order-stability summary over sampled permutations."""
        context = context or self.retrieve(query)
        evaluator = evaluator or self._evaluator(context)
        perturbations = select_permutations(
            context, sample_size=sample_size, seed=self.config.seed
        )
        return compute_order_stability(evaluator, perturbations)

    def explain(
        self,
        query: str,
        context: Optional[Context] = None,
        sample_size: Optional[int] = None,
        optimal_s: int = 3,
        wide_permutation_budget: int = 200,
        stability_sample: int = 50,
        permutation_sample: Optional[int] = None,
    ) -> RageReport:
        """Everything at once (powers the CLI report command).

        One :class:`~repro.core.evaluate.ContextEvaluator` — one memo,
        one LLM-call counter — is shared across every sub-explanation,
        and every enumerable perturbation set (both baselines, the
        combination insight set, the permutation insight and stability
        sets) is pre-batched through an
        :class:`~repro.core.plan.EvaluationPlan` before the sequential
        counterfactual searches run.  The searches then walk their
        candidate lists mostly through memo hits; only orderings the
        plan never saw reach the LLM.  ``report.llm_calls`` records the
        shared evaluator's total real LLM calls.

        With ``config.plan_pruning`` (the default) an
        :class:`~repro.core.lattice.AnswerLattice` rides along: the
        plan executes *staged* (seed round, rule-interval confirmation,
        implication rounds with probes), combination answers implied by
        monotone sandwich bounds never reach the LLM, and the
        counterfactual searches skip candidates whose implied answer
        cannot flip (verifying implied flips with one real call).
        ``report.implied``/``report.pruned`` count the savings;
        implication self-disables on order-sensitive contexts so
        position-biased models keep their exact unpruned behavior.

        ``permutation_sample`` overrides ``sample_size`` for the
        permutation insight set only (benchmarks enumerate every
        combination while sampling the k! orderings); ``None`` keeps
        the shared ``sample_size`` semantics.

        Contexts wider than the exhaustive permutation cap run the lazy
        decreasing-tau counterfactual search under
        ``wide_permutation_budget`` LLM calls instead of skipping.
        """
        context = context or self.retrieve(query)
        evaluator = self._evaluator(context)
        answered = self.ask(query, context=context, evaluator=evaluator)
        sample = sample_size if sample_size is not None else self.config.sample_size
        perm_sample = permutation_sample if permutation_sample is not None else sample

        combination_set = select_combinations(
            context, sample_size=sample, seed=self.config.seed, include_empty=False
        )
        permutation_set = None
        if context.k <= 8 or perm_sample is not None:
            permutation_set = select_permutations(
                context, sample_size=perm_sample, seed=self.config.seed
            )
        stability_set = select_permutations(
            context, sample_size=stability_sample, seed=self.config.seed
        )

        # Score once and share: with attention-based relevance each
        # scores() call is a fresh full-context generation outside the
        # shared evaluator, so per-search recomputation would both
        # duplicate prompts and escape report.llm_calls.  The staged
        # plan also wants the scores, to order its seed round.
        scores = self.relevance_scores(context)

        lattice = AnswerLattice(context) if self.config.plan_pruning else None
        plan = EvaluationPlan(evaluator, lattice=lattice)
        plan.add_baselines()
        plan.add_perturbations(combination_set)
        if permutation_set is not None:
            plan.add_perturbations(permutation_set)
        plan.add_perturbations(stability_set)
        plan_stats = plan.execute(relevance_scores=scores)

        combination = analyze_combinations(
            evaluator, combination_set, lattice=lattice
        )
        permutation: Optional[PermutationInsights] = None
        if permutation_set is not None:
            permutation = analyze_permutations(evaluator, permutation_set)
        if context.k <= 8:
            permutation_budget = self.config.max_evaluations
        else:
            permutation_budget = min(wide_permutation_budget, self.config.max_evaluations)
        permutation_cf = search_permutation_counterfactual(
            evaluator,
            max_evaluations=permutation_budget,
            batch_size=self.config.search_batch_size,
            lattice=lattice,
            adaptive=self.config.adaptive_search_batching,
        )
        report = RageReport(
            query=query,
            answer=answered.answer,
            context=context,
            combination_insights=combination,
            permutation_insights=permutation,
            top_down=search_combination_counterfactual(
                evaluator,
                relevance_scores=scores,
                direction=SearchDirection.TOP_DOWN,
                max_evaluations=self.config.max_evaluations,
                batch_size=self.config.search_batch_size,
                lattice=lattice,
                adaptive=self.config.adaptive_search_batching,
            ),
            bottom_up=search_combination_counterfactual(
                evaluator,
                relevance_scores=scores,
                direction=SearchDirection.BOTTOM_UP,
                max_evaluations=self.config.max_evaluations,
                batch_size=self.config.search_batch_size,
                lattice=lattice,
                adaptive=self.config.adaptive_search_batching,
            ),
            permutation_counterfactual=permutation_cf,
            optimal=optimal_permutations(
                context,
                relevance_scores=scores,
                s=optimal_s,
                prior=self.config.expected_prior,
                depth=self.config.expected_depth,
            ),
            stability=compute_order_stability(evaluator, stability_set),
            llm_calls=evaluator.llm_calls,
            plan_stats=plan_stats,
        )
        if lattice is not None:
            report.implied = lattice.stats.implied
            report.pruned = plan_stats.pruned
        return report

    # -- internals ---------------------------------------------------------

    def _evaluator(self, context: Context) -> ContextEvaluator:
        return ContextEvaluator(
            self.llm, context, self.prompt_builder, backend=self.backend
        )
