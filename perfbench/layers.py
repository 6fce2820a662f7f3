"""Which public entry points the traced run wraps, and the per-layer metrics.

Span names are the per-layer metric prefixes.  Entry points the engine
reaches through classes and module functions are wrapped once per run
by :func:`instrument_package`; per-engine objects (searcher, backend,
prompt cache, store, model) by :func:`instrument_engine`; the HTTP
handlers by :func:`instrument_server`.

Counts and times are per traced request unless the unit says otherwise.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.attention.model import AttentionModel
from repro.core import engine as engine_module
from repro.core.evaluate import ContextEvaluator
from repro.core.plan import EvaluationPlan
from repro.retrieval.sqlindex import SqliteIndex

from .tracing import Span, Tracer, layer_totals, max_concurrency, overcommitted_requests


def _note_prompts(span: Span, args: tuple, kwargs: dict) -> None:
    # The prompt(s) are the last positional argument of every wrapped
    # dispatch method: generate(prompt), generate_batch(prompts) and
    # backend.run(model, prompts).
    prompts = args[-1]
    span.attrs["prompts"] = 1 if isinstance(prompts, str) else len(prompts)


def _note_evaluate_many(span: Span, args: tuple, kwargs: dict) -> None:
    evaluator, orderings = args[0], args[1]
    distinct = {tuple(ordering) for ordering in orderings}
    span.attrs["batches"] = 1
    span.attrs["prompts"] = len(orderings)
    span.attrs["misses"] = sum(1 for key in distinct if not evaluator.is_memoized(key))


def _note_evaluate(span: Span, args: tuple, kwargs: dict) -> None:
    evaluator, ordering = args[0], args[1]
    span.attrs["prompts"] = 1
    span.attrs["misses"] = 0 if evaluator.is_memoized(ordering) else 1


def _note_evaluations(span: Span, args: tuple, kwargs: dict, result) -> None:
    span.attrs["evaluations"] = result.num_evaluations


def instrument_package(tracer: Tracer) -> None:
    """Wrap the entry points the engine reaches through classes and modules."""
    tracer.wrap(SqliteIndex, "sync", "retrieval.sync")
    tracer.wrap(EvaluationPlan, "execute", "core.plan.execute")
    for function, name in (
        ("search_combination_counterfactual", "core.counterfactual"),
        ("search_permutation_counterfactual", "core.permutation_cf"),
    ):
        tracer.wrap(engine_module, function, name, after=_note_evaluations)
    tracer.wrap(ContextEvaluator, "evaluate_many", "core.evaluate", before=_note_evaluate_many)
    tracer.wrap(ContextEvaluator, "evaluate", "core.evaluate", before=_note_evaluate)
    tracer.wrap(AttentionModel, "trace", "attention.trace")


def instrument_engine(tracer: Tracer, rage, model) -> None:
    """Wrap one engine's searcher, backend, prompt cache, store and model."""
    tracer.wrap(rage.searcher, "search", "retrieval.search")
    tracer.wrap(rage.backend, "run", "exec.run", before=_note_prompts)
    for method in ("generate", "generate_batch"):
        tracer.wrap(rage.llm, method, "llm.cache", before=_note_prompts)
        tracer.wrap(model, method, "llm.simulated", before=_note_prompts)
    store = rage.store
    if store is not None:

        def note_put(span: Span, args: tuple, kwargs: dict, result) -> None:
            # put(model_name, prompt, result, params): the entry it wrote.
            params = args[3] if len(args) > 3 else kwargs.get("params")
            try:
                span.attrs["bytes"] = os.stat(store.path_for(args[0], args[1], params)).st_size
            except OSError:
                span.attrs["bytes"] = 0

        tracer.wrap(store, "get", "llm.store.get")
        tracer.wrap(store, "put", "llm.store.put", after=note_put)


def instrument_server(tracer: Tracer, server) -> None:
    """Each handler call is the root of one traced request on its thread."""
    tracer.wrap(server, "handle_ask", "app.server.handle_ask", root=True)
    tracer.wrap(server, "handle_explain", "app.server.handle_explain", root=True)


@dataclass
class TracedRequests:
    """What a workload observed about its traced requests, besides spans."""

    requests: int = 0
    client_latency_s: float = 0.0
    model_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_disk_hits: int = 0
    cache_coalesced: int = 0
    implied: int = 0
    pruned: int = 0
    combinations: int = 0
    traced_rate: float = 0.0
    untraced_rate: float = 0.0
    setup_sync_s: List[float] = field(default_factory=list)

    def add_cache_stats(self, stats, coalesced: int) -> None:
        """Add a traced engine's prompt-cache counters."""
        self.cache_hits += stats.hits
        self.cache_misses += stats.misses
        self.cache_disk_hits += stats.disk_hits
        self.cache_coalesced += coalesced

    def add_report(self, payload: Dict) -> None:
        """Add one explanation's lattice savings and combination-set size."""
        self.implied += payload["implied"]
        self.pruned += payload["pruned"]
        self.combinations += payload["combination_insights"]["total"]


#: Per-layer metrics: name -> (unit, which way is better, the end-to-end
#: metric and workload a change in it should move).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "retrieval.search.calls": ("1/req", "lower", "ask_latency_* on serve_mixed"),
    "retrieval.search.self_ms": ("ms/req", "lower", "ask_latency_* on serve_mixed"),
    "retrieval.sync.ms": ("ms", "lower", "setup_s on serve_mixed"),
    "core.plan.execute.self_ms": ("ms/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "core.plan.rounds": ("1/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "core.lattice.implied": ("1/req", "higher", "llm_calls_per_request on explain_cold"),
    "core.lattice.pruned": ("1/req", "higher", "llm_calls_per_request on explain_cold"),
    "core.lattice.implied_share": ("ratio", "higher", "llm_calls_per_request on explain_cold"),
    "core.counterfactual.self_ms": ("ms/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "core.counterfactual.evaluations": ("1/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "core.permutation_cf.self_ms": ("ms/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "core.permutation_cf.evaluations": ("1/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "core.evaluate.batches": ("1/req", "lower", "llm_calls_per_request on explain_cold"),
    "core.evaluate.prompts": ("1/req", "lower", "llm_calls_per_request on explain_cold"),
    "core.evaluate.memo_hit_share": ("ratio", "higher", "llm_calls_per_request on explain_cold"),
    "exec.run.calls": ("1/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "exec.run.prompts_per_call": ("1/call", "higher", "explain_latency_p50_ms on explain_cold"),
    "exec.run.self_ms": ("ms/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "llm.cache.hits": ("1/req", "higher", "requests_per_s on serve_mixed"),
    "llm.cache.misses": ("1/req", "lower", "llm_calls_per_request on serve_mixed"),
    "llm.cache.disk_hits": ("1/req", "higher", "requests_per_s on serve_mixed"),
    "llm.cache.hit_share": ("ratio", "higher", "requests_per_s on serve_mixed"),
    "llm.cache.coalesced": ("1/req", "higher", "llm_calls_per_request on serve_mixed"),
    "llm.store.get.calls": ("1/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "llm.store.get.self_ms": ("ms/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "llm.store.put.calls": ("1/req", "lower", "store_kb_written_per_request on explain_cold"),
    "llm.store.put.self_ms": ("ms/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "llm.store.bytes_written": ("B/req", "lower", "store_kb_written_per_request on explain_cold"),
    "llm.store.entry_bytes_mean": ("B", "lower", "explain_latency_p50_ms on explain_cold"),
    "llm.simulated.calls": ("1/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "llm.simulated.self_ms": ("ms/req", "lower", "requests_per_s on serve_mixed"),
    "attention.trace.calls": ("1/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "attention.trace.ms": ("ms/req", "lower", "store_kb_written_per_request on explain_cold"),
    "app.server.handle_ask.ms": ("ms", "lower", "ask_latency_p95_ms on serve_mixed"),
    "app.server.handle_explain.ms": ("ms", "lower", "ask_latency_p95_ms on serve_mixed"),
    "app.server.http_overhead_ms": ("ms", "lower", "ask_latency_p95_ms on serve_mixed"),
    "app.server.concurrent_max": ("count", "higher", "ask_latency_p95_ms on serve_mixed"),
    "llm_calls_per_request": ("1/req", "lower", "requests_per_s on every workload"),
    "store_kb_written_per_request": ("KB/req", "lower", "explain_latency_p50_ms on explain_cold"),
    "trace.overhead_share": ("ratio", "higher", "none: traced against untraced rate"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_ms(durations: Sequence[float]) -> float:
    return _ratio(sum(durations), len(durations)) * 1000.0


def layer_metrics(spans: Sequence[Span], seen: TracedRequests) -> Dict[str, float]:
    """Every metric in :data:`PER_LAYER`, from the traced requests."""
    table = layer_totals(spans)
    per = max(seen.requests, 1)

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_request(name: str, key: str) -> float:
        return row(name).get(key, 0) / per

    def self_ms(name: str) -> float:
        return row(name)["self_s"] * 1000.0 / per

    plans = {span.span_id for span in spans if span.name == "core.plan.execute"}
    rounds = sum(1 for span in spans if span.name == "core.evaluate" and span.parent in plans)
    evaluate, run, put = row("core.evaluate"), row("exec.run"), row("llm.store.put")
    asks = [span.duration for span in spans if span.name == "app.server.handle_ask"]
    explains = [span.duration for span in spans if span.name == "app.server.handle_explain"]
    handlers = [span for span in spans if span.name.startswith("app.server.")]
    return {
        "retrieval.search.calls": per_request("retrieval.search", "calls"),
        "retrieval.search.self_ms": self_ms("retrieval.search"),
        "retrieval.sync.ms": (
            statistics.median(seen.setup_sync_s) * 1000.0 if seen.setup_sync_s else 0.0
        ),
        "core.plan.execute.self_ms": self_ms("core.plan.execute"),
        "core.plan.rounds": rounds / per,
        "core.lattice.implied": seen.implied / per,
        "core.lattice.pruned": seen.pruned / per,
        "core.lattice.implied_share": _ratio(seen.implied, seen.combinations),
        "core.counterfactual.self_ms": self_ms("core.counterfactual"),
        "core.counterfactual.evaluations": per_request("core.counterfactual", "evaluations"),
        "core.permutation_cf.self_ms": self_ms("core.permutation_cf"),
        "core.permutation_cf.evaluations": per_request("core.permutation_cf", "evaluations"),
        "core.evaluate.batches": per_request("core.evaluate", "batches"),
        "core.evaluate.prompts": per_request("core.evaluate", "prompts"),
        "core.evaluate.memo_hit_share": (
            1.0 - _ratio(evaluate.get("misses", 0), evaluate["prompts"])
            if evaluate.get("prompts") else 0.0
        ),
        "exec.run.calls": per_request("exec.run", "calls"),
        "exec.run.prompts_per_call": _ratio(run.get("prompts", 0), run["calls"]),
        "exec.run.self_ms": self_ms("exec.run"),
        "llm.cache.hits": seen.cache_hits / per,
        "llm.cache.misses": seen.cache_misses / per,
        "llm.cache.disk_hits": seen.cache_disk_hits / per,
        "llm.cache.hit_share": _ratio(seen.cache_hits, seen.cache_hits + seen.cache_misses),
        "llm.cache.coalesced": seen.cache_coalesced / per,
        "llm.store.get.calls": per_request("llm.store.get", "calls"),
        "llm.store.get.self_ms": self_ms("llm.store.get"),
        "llm.store.put.calls": per_request("llm.store.put", "calls"),
        "llm.store.put.self_ms": self_ms("llm.store.put"),
        "llm.store.bytes_written": per_request("llm.store.put", "bytes"),
        "llm.store.entry_bytes_mean": _ratio(put.get("bytes", 0), put["calls"]),
        "llm.simulated.calls": per_request("llm.simulated", "prompts"),
        "llm.simulated.self_ms": self_ms("llm.simulated"),
        "attention.trace.calls": per_request("attention.trace", "calls"),
        "attention.trace.ms": row("attention.trace")["total_s"] * 1000.0 / per,
        "app.server.handle_ask.ms": _mean_ms(asks),
        "app.server.handle_explain.ms": _mean_ms(explains),
        "app.server.http_overhead_ms": (
            _ratio(seen.client_latency_s - sum(asks) - sum(explains), len(handlers)) * 1000.0
        ),
        "app.server.concurrent_max": float(max_concurrency(handlers)),
        "llm_calls_per_request": seen.model_calls / per,
        "store_kb_written_per_request": put.get("bytes", 0) / 1024.0 / per,
        "trace.overhead_share": _ratio(seen.traced_rate, seen.untraced_rate),
    }


def model_prompts(spans: Sequence[Span]) -> int:
    """Prompts the model's spans saw."""
    return int(sum(span.attrs.get("prompts", 0) for span in spans if span.name == "llm.simulated"))


def trace_problems(spans: Sequence[Span], seen: TracedRequests) -> List[str]:
    """Consistency checks between the spans and the traced requests' counters.

    The workloads also compare each traced request or round with its
    untraced twin, which catches tracing that changes the work.
    """
    problems = []
    prompts = model_prompts(spans)
    if prompts != seen.model_calls:
        problems.append(f"model spans saw {prompts} prompts, the call counter {seen.model_calls}")
    bad = overcommitted_requests(spans)
    if bad:
        problems.append(f"{len(bad)} traced requests have more self time than wall time")
    return problems
