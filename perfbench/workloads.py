"""The two workloads, each a closed loop over the public API.

``explain_cold`` runs one client: per request it builds a fresh engine
with an empty prompt store, asks a world's question and explains the
answer.  ``serve_mixed`` runs two client threads, one per tenant,
against a :class:`~repro.app.server.RageServer` on loopback.

``explain_cold`` makes passes over its questions, stopping only after a
whole block of one question per stratum.  ``serve_mixed``
plays rounds, each on a freshly started server with a cold store and
each with its own request sequences drawn from the seed, so a run's
tail latency rests on many explanations, not on one round's dozen.
Latencies are order statistics over every untraced request of the run.

Before each ``explain_cold`` request the benchmark moves to the least
contended CPU (:mod:`perfbench.cores`).  ``serve_mixed`` runs its server
and client threads on every usable CPU, as a deployment would, so work
that releases the GIL overlaps and the GIL's hand-offs between cores
show in the ask tail.

Each run sets up once untimed, so the process's lazy state (imports,
first-use caches) is warm, and then :data:`SETUP_REPEATS` more times;
``setup_s`` is the median of those, each the same work.  The first
timed set-up precedes the timed region and the others fall in breaks
spread over it, so ``setup_s``, like the latencies, reads the host over
the whole run rather than over the few seconds at its start.

In a traced run, ``explain_cold`` runs each question untraced and then
traced, and ``serve_mixed`` plays each round's sequences untraced and
then traced; the untraced half measures what the tracing costs, and
each traced request or round must make the model calls of its twin.
"""

from __future__ import annotations

import ctypes
import gc
import http.client
import itertools
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro import Rage, RageConfig, SimulatedLLM
from repro.app.server import RageServer, ask_payload, encode_json, report_payload
from repro.llm.knowledge import KnowledgeBase
from repro.retrieval.document import Corpus
from repro.retrieval.sqlindex import open_index

from . import stats
from .cores import probe_cpus, usable_cpus
from .layers import TracedRequests, instrument_engine, instrument_server, model_prompts
from .model import CountingLLM
from .tracing import Tracer
from .worlds import (
    EXPLAIN_KS,
    FAMILIES,
    WORLD_SEED_SPACE,
    Question,
    audit_report,
    explain_questions,
    make_question,
    merged_knowledge,
    pooled_questions,
)

clock = time.perf_counter

#: Timed set-ups per run, after the untimed one; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Fewest repetitions (passes or rounds) of the timed work in a run.
MIN_REPEATS = 2

# -- explain_cold -----------------------------------------------------------

#: Worlds per (k, family) stratum.
EXPLAIN_WORLDS_PER_STRATUM = 3

#: Worlds the set-up explains, the same for every seed and never timed
#: (drawn world seeds lie below ``WORLD_SEED_SPACE``).
WARMUP_QUESTIONS = (("timeline", 6, WORLD_SEED_SPACE), ("superlative", 6, WORLD_SEED_SPACE))

#: Combinations ``explain()`` analyzes, per k: all 63 at k = 6, and at
#: k = 8 and 10 a sample large enough (at least 32 pending) for the
#: lattice to prune.
EXPLAIN_COMBINATIONS = {6: None, 8: 36, 10: 36}

#: Permutation and stability samples handed to ``explain()``.
EXPLAIN_PERMUTATIONS = 6

#: ``max_evaluations`` per counterfactual search.
EXPLAIN_BUDGET = 8

#: Extra asks per question and pass, each on a fresh engine.  With the
#: ask that opens every explain request they give the ask latency at
#: least 360 samples in the two passes a run makes at least, enough for
#: a measured p95.
ASK_REPEATS = 9

# -- serve_mixed -------------------------------------------------------------
#
# The traffic mix is an assumption, not fitted to a query log: Zipf
# popularity with exponent 1.1 within each family's pooled questions,
# one /explain in 16 requests, explanations of sample 8 and budget 8.
# It decides how much of the traffic the prompt cache and single-flight
# absorb, so each run prints the share of asks that repeat an earlier
# ask of their round and the share first asked by the other tenant.
#
# What the seed draws is which questions are asked, never how many of
# each kind: every client cycles through the families in a fixed order,
# and no question is explained twice in a round.  The families differ
# about twofold in ask latency (the superlative ones share ten
# questions, so their asks are mostly cache hits), so a seed-drawn mix
# would move the medians as much as a real change does.  Asks are two
# timeline to one superlative: in an even mix the median falls in the
# gap between the two families, where few samples lie, and jumps
# between runs.

#: Worlds pooled into the served corpus, per family.
SERVE_WORLDS_PER_FAMILY = 120
#: Source counts of the pooled worlds (cycled).
SERVE_WORLD_KS = (6, 8, 10)
#: Retrieval depth and counterfactual budget of the served engine.
SERVE_K = 6
SERVE_BUDGET = 8
#: ``sample_size`` of every /explain.
SERVE_EXPLAIN_SAMPLE = 8
#: Every n-th request of a client explains the question it asked just
#: before, drawn uniformly without replacement from one family, so
#: explanations are of unpopular, uncached questions.
SERVE_EXPLAIN_EVERY = 16
#: Requests per client per round: 90 asks and 6 explains; the two
#: rounds a run makes at least give 360 asks, enough for a measured p95.
SERVE_REQUESTS_PER_CLIENT = 96
#: Question popularity: weight of the i-th most popular is 1 / i**s.
SERVE_ZIPF = 1.1
#: Families of consecutive asks of a client, cycled (explanations
#: alternate the two).
SERVE_ASK_FAMILIES = ("timeline", "timeline", "superlative")
TENANTS = ("tenant-a", "tenant-b")
#: Distinct /ask and /explain responses re-computed in process.
SERVE_ASK_CHECKS = 24
SERVE_EXPLAIN_CHECKS = 2


@dataclass
class Result:
    """What one run measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    #: Seconds of the untimed first set-up, which warms the process.
    warmup_s: float = 0.0
    #: explain_latency_p50_ms, ask_latency_p50_ms, ask_latency_p95_ms, requests_per_s
    timings: Dict[str, float] = field(default_factory=dict)
    #: Human-readable notes on how the timings were sampled.
    notes: List[str] = field(default_factory=list)
    requests: int = 0
    model_calls: int = 0
    store_bytes: int = 0
    audited: int = 0
    mismatches: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Audited answers that disagree with a direct model call.
    disagreements: List[str] = field(default_factory=list)
    seen: TracedRequests = field(default_factory=TracedRequests)

    def audit(self, label: str, report, knowledge: KnowledgeBase, rng: random.Random) -> None:
        """Re-ask a fresh model what ``report`` claims (see :func:`audit_report`).

        Disagreements are the engine's measured inexactness — answers it
        implied instead of asking the model — and are reported as the
        ``audit_agreement_rate`` metric; the failed-request count is
        reserved for errors and broken output checks.
        """
        checked, mismatches = audit_report(report, knowledge, rng)
        self.audited += checked
        self.mismatches += len(mismatches)
        self.disagreements.extend(f"{label}: {text}" for text in mismatches)


@dataclass
class Bench:
    """One run's settings and scratch space."""

    seed: int
    seconds: float
    traced: bool
    work_dir: Path
    tracer: Tracer = field(default_factory=Tracer)
    result: Result = field(default_factory=Result)
    cpus: Tuple[int, ...] = field(default_factory=usable_cpus)
    #: Whether :meth:`settle` pins the process to one CPU (single-threaded work).
    pin: bool = True
    #: Seconds of the fastest CPU probe at each :meth:`settle`.
    probes: List[float] = field(default_factory=list)
    #: The workload's set-up, ``prepare(timed)`` (see :func:`_set_up`).
    prepare: Optional[Callable[[bool], object]] = None
    _dirs: int = 0

    def settle(self) -> None:
        """Read the host's speed before timed work and, when :attr:`pin`,
        move to the least contended CPU (see :mod:`.cores`)."""
        self.probes.append(probe_cpus(self.cpus, self.pin))

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work_dir / f"{prefix}-{self._dirs}"
        path.mkdir(parents=True)
        return path


def tree_bytes(root: Path) -> int:
    """Bytes in the regular files under ``root``."""
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except OSError:
                pass
    return total


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds else 0.0


T = TypeVar("T")


def _time_set_up(bench: Bench, timed: bool) -> object:
    bench.settle()
    start = clock()
    product = bench.prepare(timed)
    seconds = clock() - start
    if timed:
        bench.result.setup_s.append(seconds)
    else:
        bench.result.warmup_s = seconds
    return product


def _set_up(bench: Bench, prepare: Callable[[bool], T]) -> T:
    """Run ``prepare(timed)`` once untimed, then once timed; return its product.

    The first call pays the process's lazy state.  The remaining timed
    set-ups, the same work each, are made by :func:`_set_up_again` in
    the breaks of the timed region; a traced run, which reports no
    ``setup_s``, makes them all here.
    """
    bench.prepare = prepare
    _time_set_up(bench, timed=False)
    product = _time_set_up(bench, timed=True)
    while bench.traced and len(bench.result.setup_s) < SETUP_REPEATS:
        _time_set_up(bench, timed=True)
    return product


def _set_up_again(bench: Bench, deadline: float, final: bool = False) -> None:
    """In a break between timed requests, set up once more if one is due.

    One is due each time another ``1 / SETUP_REPEATS`` of the timed
    region has passed; the ``final`` call, after it, makes any missing.
    Products are dropped: the run keeps using the first.
    """
    done = len(bench.result.setup_s)
    if final:
        due = SETUP_REPEATS
    else:
        share = 1.0 - (deadline - clock()) / bench.seconds
        due = min(SETUP_REPEATS, done + 1, 1 + int(share * SETUP_REPEATS))
    while done < due:
        _time_set_up(bench, timed=True)
        done += 1


# -- explain_cold ---------------------------------------------------------------


@dataclass
class Explained:
    """One explain request: its report's canonical bytes and its costs."""

    question: Question
    payload: bytes
    report: object
    ask_s: float
    explain_s: float
    total_s: float
    model_calls: int
    #: The traced request's id, None when untraced.
    request_id: Optional[int]


def _engine(question: Question, store_dir: Path) -> Tuple[Rage, CountingLLM]:
    """A fresh engine for ``question`` over the prompt store in ``store_dir``."""
    model = CountingLLM(SimulatedLLM(knowledge=question.knowledge))
    config = RageConfig(k=question.k, cache_dir=str(store_dir), max_evaluations=EXPLAIN_BUDGET)
    return Rage.from_corpus(question.corpus, model, config=config), model


def _explain_request(bench: Bench, question: Question, store_dir: Path) -> Explained:
    """Fresh engine over ``store_dir``; ask, then explain the answer."""
    tracer = bench.tracer
    start = clock()
    with tracer.request("request") as root:
        rage, model = _engine(question, store_dir)
        if root is not None:
            instrument_engine(tracer, rage, model)
        asked = clock()
        answered = rage.ask(question.query)
        explaining = clock()
        report = rage.explain(
            question.query,
            context=answered.context,
            sample_size=EXPLAIN_COMBINATIONS[question.k],
            permutation_sample=EXPLAIN_PERMUTATIONS,
            stability_sample=EXPLAIN_PERMUTATIONS,
        )
        done = clock()
    payload = encode_json(report_payload(report))
    if root is not None:
        seen = bench.result.seen
        seen.requests += 1
        seen.client_latency_s += done - start
        seen.model_calls += model.calls
        seen.add_cache_stats(rage.llm.stats, rage.llm.flights.stats.coalesced)
        seen.add_report(json.loads(payload))
    return Explained(
        question=question,
        payload=payload,
        report=report,
        ask_s=explaining - asked,
        explain_s=done - explaining,
        total_s=done - start,
        model_calls=model.calls,
        request_id=root.span_id if root is not None else None,
    )


def _ask(question: Question, store_dir: Path) -> float:
    """Seconds a fresh engine over ``store_dir`` takes to answer ``question``."""
    rage, _ = _engine(question, store_dir)
    start = clock()
    rage.ask(question.query)
    return clock() - start


def _explain_loop(
    bench: Bench,
    questions: List[Question],
    request: Callable[[Question], Tuple[Explained, List[str]]],
    ask: Callable[[Question], float],
) -> List[Explained]:
    """One client in a closed loop for ``bench.seconds``.

    Untraced, at least :data:`MIN_REPEATS` whole passes over
    ``questions``, then whole blocks of one question per stratum until
    the time is up; each question is asked :data:`ASK_REPEATS` times and
    then explained.  Traced, each question is explained untraced then
    traced, cycling until the time is up.
    """
    result = bench.result
    served: List[Explained] = []
    ask_s: List[float] = []
    deadline = clock() + bench.seconds
    modes = (False, True) if bench.traced else (False,)
    # explain_questions lists one question per stratum in each block.
    block = len(EXPLAIN_KS) * len(FAMILIES)
    passes = 0
    while True:
        for position, question in enumerate(questions, 1):
            if not bench.traced:
                bench.settle()
                ask_s.extend(ask(question) for _ in range(ASK_REPEATS))
            for traced in modes:
                bench.settle()
                bench.tracer.enabled = traced
                result.attempted += 1
                try:
                    outcome, problems = request(question)
                except Exception as error:  # noqa: BLE001 - counted as a failed request
                    result.failed += 1
                    result.problems.append(f"{question.label}: {type(error).__name__}: {error}")
                    continue
                finally:
                    bench.tracer.enabled = False
                if problems:
                    result.failed += 1
                    result.problems.extend(problems)
                served.append(outcome)
            passes += position == len(questions)
            if clock() >= deadline and (
                bench.traced or (passes >= MIN_REPEATS and position % block == 0)
            ):
                _set_up_again(bench, deadline, final=True)
                _explain_timings(bench, served, ask_s, len(questions))
                return served
            _set_up_again(bench, deadline)


def _explain_timings(
    bench: Bench, served: List[Explained], extra_ask_s: List[float], per_pass: int
) -> None:
    """Latency order statistics and throughput over the untraced requests."""
    result = bench.result
    untraced = [outcome for outcome in served if outcome.request_id is None]
    result.requests = len(untraced)
    result.model_calls = sum(outcome.model_calls for outcome in untraced)
    busy_s = sum(outcome.total_s for outcome in untraced)
    if bench.traced:
        traced = [outcome for outcome in served if outcome.request_id is not None]
        result.seen.traced_rate = _rate(len(traced), sum(o.total_s for o in traced))
        result.seen.untraced_rate = _rate(len(untraced), busy_s)
    if not untraced:
        return
    ask_ms = [s * 1000.0 for s in extra_ask_s + [outcome.ask_s for outcome in untraced]]
    explain_ms = [outcome.explain_s * 1000.0 for outcome in untraced]
    result.timings = {
        "explain_latency_p50_ms": statistics.median(explain_ms),
        "ask_latency_p50_ms": statistics.median(ask_ms),
        "ask_latency_p95_ms": stats.percentile(ask_ms, 95.0),
        "requests_per_s": _rate(len(untraced), busy_s),
    }
    result.notes = [
        f"{len(untraced)} untraced requests ({len(untraced) / per_pass:.2f} passes) "
        f"and {len(extra_ask_s)} more asks",
        f"explain latency {stats.describe(explain_ms)}",
        f"ask latency     {stats.describe(ask_ms)}",
    ]


def _audit(bench: Bench, served: List[Explained]) -> None:
    """Audit each distinct report once."""
    rng = random.Random(f"audit:{bench.seed}")
    first: Dict[str, Explained] = {}
    for outcome in served:
        first.setdefault(outcome.question.label, outcome)
    for label, outcome in first.items():
        bench.result.audit(label, outcome.report, outcome.question.knowledge, rng)


def _cold_setup(bench: Bench) -> List[Question]:
    """Draw the worlds; explain the warm-up questions on cold stores."""
    questions = explain_questions(bench.seed, EXPLAIN_WORLDS_PER_STRATUM)
    for family, k, world_seed in WARMUP_QUESTIONS:
        question = make_question(family, k, world_seed)
        store_dir = bench.fresh_dir("warmup")
        _explain_request(bench, question, store_dir)
        shutil.rmtree(store_dir)
    return questions


def _check_traced_calls(bench: Bench, served: List[Explained]) -> None:
    """A traced request must make the model calls its untraced twin made.

    Both run on a cold store, so tracing that changed the work, or model
    calls that escaped the request's spans, show as a difference.
    """
    untraced = {o.question.label: o.model_calls for o in served if o.request_id is None}
    by_request: Dict[int, int] = {}
    for span in bench.tracer.spans:
        if span.name == "llm.simulated":
            by_request[span.request] = by_request.get(span.request, 0) + int(span.attrs["prompts"])
    for outcome in served:
        label = outcome.question.label
        if outcome.request_id is None or label not in untraced:
            continue
        traced = by_request.get(outcome.request_id, 0)
        if traced != untraced[label]:
            bench.result.problems.append(
                f"{label}: traced request's model spans saw {traced} prompts, "
                f"the untraced request made {untraced[label]} model calls"
            )


def explain_cold(bench: Bench) -> Result:
    result = bench.result
    questions = _set_up(bench, lambda timed: _cold_setup(bench))
    reference: Dict[str, bytes] = {}
    stores: Dict[str, Path] = {}  # each question's latest filled store
    # Stores are deleted after the timed region, so that deleting
    # thousands of files does not weigh on the requests that follow.
    spent: List[Path] = []

    def request(question: Question) -> Tuple[Explained, List[str]]:
        store_dir = bench.fresh_dir("cold")
        outcome = _explain_request(bench, question, store_dir)
        if outcome.request_id is None:
            result.store_bytes += tree_bytes(store_dir)
        previous = stores.get(question.label)
        if previous is not None:
            spent.append(previous)
        stores[question.label] = store_dir
        expected = reference.setdefault(question.label, outcome.payload)
        if outcome.payload != expected:
            return outcome, [f"{question.label}: report differs from an earlier run of it"]
        return outcome, []

    def ask(question: Question) -> float:
        store_dir = bench.fresh_dir("ask")
        seconds = _ask(question, store_dir)
        spent.append(store_dir)
        return seconds

    served = _explain_loop(bench, questions, request, ask)
    for store_dir in spent:
        shutil.rmtree(store_dir)
    if bench.traced:
        _check_traced_calls(bench, served)
    _audit(bench, served)
    _check_restart(bench, questions, stores, reference)
    return result


def _check_restart(
    bench: Bench, questions: List[Question], stores: Dict[str, Path], reference: Dict[str, bytes]
) -> None:
    """Explain each question again on a fresh engine over its filled store.

    A restart must answer from the store alone: byte-identical report,
    no model call.  Runs after the timed region; its latency is shown
    for information.
    """
    result = bench.result
    warm_ms = []
    # A traced run may stop mid-pass, before every question was explained.
    for question in (q for q in questions if q.label in stores):
        result.attempted += 1
        outcome = _explain_request(bench, question, stores[question.label])
        warm_ms.append(outcome.explain_s * 1000.0)
        problems = []
        if outcome.payload != reference[question.label]:
            problems.append(f"{question.label}: report after a restart differs from the cold one")
        if outcome.model_calls:
            problems.append(f"{question.label}: report after a restart made {outcome.model_calls} model calls")
        if problems:
            result.failed += 1
            result.problems.extend(problems)
    result.notes.append(f"explain after a restart, untimed: {stats.describe(warm_ms)}")


# -- serve_mixed ---------------------------------------------------------------


@dataclass
class Pool:
    """Where the served corpus's index lives, and the model's knowledge.

    Every round opens the index afresh, as a restarted server would, and
    closes it after: the index keeps one SQLite connection per thread
    that searched until it is closed.
    """

    knowledge: KnowledgeBase
    index_dir: Path
    #: Each family's distinct questions, most popular first (superlative
    #: worlds of one occupation share their question).
    by_family: List[List[str]] = field(default_factory=list)
    #: Cumulative popularity weights aligned with ``by_family``.
    cum_weights: List[List[float]] = field(default_factory=list)

    def config(self, store_dir: Optional[Path]) -> RageConfig:
        return RageConfig(
            k=SERVE_K,
            index_dir=str(self.index_dir),
            cache_dir=str(store_dir) if store_dir is not None else None,
            max_evaluations=SERVE_BUDGET,
        )


@dataclass
class Exchange:
    """One HTTP request a client sent."""

    tenant: str
    path: str
    query: str
    status: Optional[int]
    body: bytes
    sent: float
    latency_s: float


@dataclass
class Round:
    """One play of both clients' request sequences on a fresh server."""

    #: Which sequences were played (a traced round replays an untraced one's).
    sequence: int
    traced: bool
    log: List[Exchange]
    elapsed_s: float
    #: Real model calls the round made (counted; untraced and traced alike).
    model_calls: int
    #: Model-span prompts recorded during the round (traced rounds only).
    traced_prompts: int

    def latencies_ms(self, path: str) -> List[float]:
        return [e.latency_s * 1000.0 for e in self.log if e.path == path and e.status == 200]


def _post(address: Tuple[str, int], path: str, body: Dict) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(*address, timeout=120)
    try:
        connection.request(
            "POST", path, body=json.dumps(body), headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _address(server: RageServer) -> Tuple[str, int]:
    host, port = server.base_url[len("http://"):].rsplit(":", 1)
    return host, int(port)


def _serve_setup(bench: Bench) -> Pool:
    """Pool the worlds, build the index, and warm the serving path."""
    questions = pooled_questions(bench.seed, SERVE_WORLDS_PER_FAMILY, SERVE_WORLD_KS)
    corpus = Corpus(doc for question in questions for doc in question.corpus)
    pool = Pool(merged_knowledge(questions), bench.fresh_dir("index"))
    rng = random.Random(f"popularity:{bench.seed}")
    for family in FAMILIES:
        members = sorted({q.query for q in questions if q.family == family})
        rng.shuffle(members)
        pool.by_family.append(members)
        pool.cum_weights.append(list(itertools.accumulate(
            1.0 / rank ** SERVE_ZIPF for rank in range(1, len(members) + 1)
        )))
    model = SimulatedLLM(knowledge=pool.knowledge)
    rage = Rage.from_corpus(corpus, model, config=pool.config(bench.fresh_dir("warmup")))
    try:
        # Warm the HTTP and engine paths on questions no client draws.
        with RageServer(rage, TENANTS) as server:
            for first in (0, SERVE_WORLDS_PER_FAMILY):
                outsider = questions[first].query.replace("?", " lately?")
                _post(_address(server), "/ask", {"tenant": TENANTS[0], "query": outsider})
    finally:
        rage.index.close()
    return pool


def _explained_questions(pool: Pool, rng: random.Random) -> List[List[str]]:
    """Each client's questions to explain in a round, drawn without
    replacement; a client's j-th explanation is of family ``(j + client) % 2``."""
    per_client = SERVE_REQUESTS_PER_CLIENT // SERVE_EXPLAIN_EVERY
    per_family = per_client * len(TENANTS) // len(FAMILIES)
    drawn = [iter(rng.sample(members, per_family)) for members in pool.by_family]
    return [
        [next(drawn[(j + client) % len(FAMILIES)]) for j in range(per_client)]
        for client in range(len(TENANTS))
    ]


def _client(
    address: Tuple[str, int],
    client: int,
    pool: Pool,
    explains: List[str],
    rng: random.Random,
    log: List[Exchange],
) -> None:
    """One tenant's closed loop: asks by popularity within the family
    :data:`SERVE_ASK_FAMILIES` names; every n-th request explains the
    question asked just before it."""
    tenant = TENANTS[client]
    # The clients explain half a cycle apart, so their explanations
    # compete with the other client's asks rather than with each other.
    offset = client * SERVE_EXPLAIN_EVERY // len(TENANTS)
    to_explain = iter(explains)
    query = ""
    for sent in range(1, SERVE_REQUESTS_PER_CLIENT + 1):
        slot = (sent + offset) % SERVE_EXPLAIN_EVERY
        if slot == 0:
            path, body = "/explain", {"tenant": tenant, "sample_size": SERVE_EXPLAIN_SAMPLE}
        else:
            if slot == SERVE_EXPLAIN_EVERY - 1:
                query = next(to_explain)
            else:
                family = FAMILIES.index(SERVE_ASK_FAMILIES[(sent + client) % len(SERVE_ASK_FAMILIES)])
                query = rng.choices(pool.by_family[family], cum_weights=pool.cum_weights[family])[0]
            path, body = "/ask", {"tenant": tenant, "query": query}
        start = clock()
        try:
            status, data = _post(address, path, body)
        except OSError as error:
            status, data = None, repr(error).encode()
        log.append(Exchange(tenant, path, query, status, data, start, clock() - start))


def _trim_heap() -> None:
    """Hand freed heap pages back to the system (glibc), so a round's
    garbage does not raise the peak resident memory of later rounds."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _serve_round(bench: Bench, pool: Pool, sequence: int, traced: bool) -> Round:
    """Fresh engine, store and server over the pooled index; replay the clients."""
    bench.settle()
    model = CountingLLM(SimulatedLLM(knowledge=pool.knowledge))
    store_dir = bench.fresh_dir("store")
    index = open_index(pool.index_dir)
    rage = Rage(index, model, config=pool.config(store_dir))
    server = RageServer(rage, TENANTS).start()
    if traced:
        instrument_engine(bench.tracer, rage, model)
        instrument_server(bench.tracer, server)
    logs: List[List[Exchange]] = [[] for _ in TENANTS]
    explains = _explained_questions(pool, random.Random(f"explain:{bench.seed}:{sequence}"))
    threads = [
        threading.Thread(
            target=_client,
            args=(_address(server), i, pool, explains[i],
                  random.Random(f"client:{bench.seed}:{tenant}:{sequence}"), logs[i]),
            name=f"client-{tenant}",
        )
        for i, tenant in enumerate(TENANTS)
    ]
    bench.tracer.enabled = traced
    first_span = len(bench.tracer.spans)
    start = clock()
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        elapsed = clock() - start
        bench.tracer.enabled = False
        written = tree_bytes(store_dir)
        server.close()
        index.close()
    traced_prompts = model_prompts(bench.tracer.spans[first_span:])
    cache_stats, coalesced = rage.llm.stats, rage.llm.flights.stats.coalesced
    # Free this round's engine (its memory cache holds every generation)
    # before the next round starts, so the peak resident memory is one
    # round's, however many rounds fit in a run.
    del server, rage
    gc.collect()
    _trim_heap()
    log = [exchange for client_log in logs for exchange in client_log]
    result = bench.result
    if traced:
        seen = result.seen
        seen.requests += len(log)
        seen.client_latency_s += sum(exchange.latency_s for exchange in log)
        seen.model_calls += model.calls
        seen.add_cache_stats(cache_stats, coalesced)
        for exchange in log:
            if exchange.path == "/explain" and exchange.status == 200:
                seen.add_report(json.loads(exchange.body))
    else:
        result.model_calls += model.calls
        result.store_bytes += written
        result.requests += len(log)
    shutil.rmtree(store_dir)
    return Round(sequence, traced, log, elapsed, model.calls, traced_prompts)


def _serve_timings(bench: Bench, rounds: List[Round]) -> None:
    """Latency order statistics and throughput over the untraced rounds."""
    result = bench.result
    untraced = [r for r in rounds if not r.traced]
    ask_ms = [ms for r in untraced for ms in r.latencies_ms("/ask")]
    explain_ms = [ms for r in untraced for ms in r.latencies_ms("/explain")]
    result.timings = {
        "explain_latency_p50_ms": statistics.median(explain_ms),
        "ask_latency_p50_ms": statistics.median(ask_ms),
        "ask_latency_p95_ms": stats.percentile(ask_ms, 95.0),
        "requests_per_s": _rate(sum(len(r.log) for r in untraced), sum(r.elapsed_s for r in untraced)),
    }
    shares = [_repeat_shares(r.log) for r in untraced]
    repeat = statistics.mean(share for share, _ in shares)
    cross = statistics.mean(share for _, share in shares)
    result.notes = [
        f"{len(untraced)} untraced rounds of {len(TENANTS) * SERVE_REQUESTS_PER_CLIENT} requests",
        f"explain latency {stats.describe(explain_ms)}",
        f"ask latency     {stats.describe(ask_ms)}",
        f"asks repeating an earlier ask of their round, mean: {repeat:.3f} "
        f"(first asked by the other tenant: {cross:.3f})",
    ]
    if bench.traced:
        traced = [r for r in rounds if r.traced]
        result.seen.traced_rate = statistics.mean(_rate(len(r.log), r.elapsed_s) for r in traced)
        result.seen.untraced_rate = statistics.mean(
            _rate(len(r.log), r.elapsed_s) for r in untraced
        )


def _repeat_shares(log: List[Exchange]) -> Tuple[float, float]:
    """Shares of a round's asks whose question was asked earlier in it,
    by anyone and by the other tenant only."""
    asks = sorted((e for e in log if e.path == "/ask"), key=lambda e: e.sent)
    askers: Dict[str, set] = {}
    repeat = cross = 0
    for exchange in asks:
        earlier = askers.setdefault(exchange.query, set())
        repeat += bool(earlier)
        cross += bool(earlier) and exchange.tenant not in earlier
        earlier.add(exchange.tenant)
    return repeat / max(len(asks), 1), cross / max(len(asks), 1)


def _check_traced_rounds(bench: Bench, rounds: List[Round]) -> None:
    """A traced round replays an untraced one's requests on a cold store,
    so it must make the same model calls, and its model spans must see
    them all."""
    untraced = {r.sequence: r.model_calls for r in rounds if not r.traced}
    for played in rounds:
        if not played.traced:
            continue
        expected = untraced[played.sequence]
        if played.model_calls != expected or played.traced_prompts != expected:
            bench.result.problems.append(
                f"traced round of sequences {played.sequence}: {played.model_calls} model "
                f"calls, {played.traced_prompts} seen by model spans; untraced {expected}"
            )


def _check_served(bench: Bench, pool: Pool, log: List[Exchange]) -> None:
    """Compare a seeded sample of responses with an in-process engine's bytes."""
    result = bench.result
    result.attempted = len(log)
    failed = set()
    for index, exchange in enumerate(log):
        if exchange.status != 200:
            failed.add(index)
            result.problems.append(
                f"{exchange.path} for {exchange.tenant} answered {exchange.status}: "
                f"{exchange.body[:200]!r}"
            )
    index = open_index(pool.index_dir)
    reference = Rage(index, SimulatedLLM(knowledge=pool.knowledge), config=pool.config(None))
    rng = random.Random(f"check:{bench.seed}")
    ok = [(index, e) for index, e in enumerate(log) if e.status == 200]

    def compare(path: str, key: Callable[[Exchange], object], wanted: object, expected: bytes) -> None:
        for index, exchange in ok:
            if exchange.path == path and key(exchange) == wanted and exchange.body != expected:
                failed.add(index)
                result.problems.append(f"{path} {exchange.query!r}: body differs from in-process")

    asks = sorted({(e.tenant, e.query) for _, e in ok if e.path == "/ask"})
    for tenant, query in rng.sample(asks, min(SERVE_ASK_CHECKS, len(asks))):
        context = reference.retrieve(query)
        answer = reference.ask(query, context=context).answer
        expected = encode_json(ask_payload(tenant, query, context, answer))
        compare("/ask", lambda e: (e.tenant, e.query), (tenant, query), expected)
    explains = sorted({e.query for _, e in ok if e.path == "/explain"})
    for query in rng.sample(explains, min(SERVE_EXPLAIN_CHECKS, len(explains))):
        report = reference.explain(
            query, context=reference.retrieve(query), sample_size=SERVE_EXPLAIN_SAMPLE
        )
        compare("/explain", lambda e: e.query, query, encode_json(report_payload(report)))
        result.audit(query, report, pool.knowledge, rng)
    index.close()
    result.failed = len(failed)


def serve_mixed(bench: Bench) -> Result:
    result = bench.result
    bench.pin = False

    def prepare(timed: bool) -> Pool:
        bench.tracer.enabled = bench.traced and timed  # records retrieval.sync
        with bench.tracer.request("setup") as root:
            pool = _serve_setup(bench)
        bench.tracer.enabled = False
        if root is not None:
            result.seen.setup_sync_s.append(sum(
                span.duration for span in bench.tracer.spans
                if span.request == root.span_id and span.name == "retrieval.sync"
            ))
        return pool

    pool = _set_up(bench, prepare)
    bench.tracer.spans.clear()
    rounds: List[Round] = []
    deadline = clock() + bench.seconds
    while len(rounds) < MIN_REPEATS or clock() < deadline:
        if bench.traced:
            sequence, traced = divmod(len(rounds), 2)
        else:
            sequence, traced = len(rounds), 0
        rounds.append(_serve_round(bench, pool, sequence, traced=bool(traced)))
        _set_up_again(bench, deadline)
    _set_up_again(bench, deadline, final=True)
    _serve_timings(bench, rounds)
    _check_traced_rounds(bench, rounds)
    _check_served(bench, pool, [exchange for r in rounds for exchange in r.log])
    return result


WORKLOADS: Dict[str, Callable[[Bench], Result]] = {
    "explain_cold": explain_cold,
    "serve_mixed": serve_mixed,
}
