"""Tests of the benchmark's own helpers.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.model import CountingLLM
from perfbench.tracing import (
    Span,
    Tracer,
    covered,
    max_concurrency,
    overcommitted_requests,
    self_times,
)
from repro import Rage, RageConfig, SimulatedLLM
from repro.datasets import load_use_case
from repro.llm.prompts import DEFAULT_PROMPT_BUILDER
from repro.llm.store import store_key


# -- percentiles -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 95) == 95.0
    assert stats.percentile(values, 100) == 100.0
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, tail",
    [(12, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0)],
)
def test_tail_needs_ten_samples_beyond_it(count, tail):
    assert stats.supported_tail(count) == tail
    if tail is not None:
        assert stats.beyond(count, tail) >= stats.MIN_TAIL


def test_summary_reports_the_sample_count():
    summary = stats.summarize([float(v) for v in range(200)])
    assert summary["n"] == 200
    assert summary["tail_q"] == 95.0
    assert summary["tail"] == 189.0
    assert "n=12" in stats.describe([1.0] * 12)
    assert "no tail percentile" in stats.describe([1.0] * 12)


# -- self time -----------------------------------------------------------------


def _span(span_id, parent, start, end, request=1, name="x"):
    return Span(span_id=span_id, name=name, parent=parent, request=request, start=start, end=end)


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, [(1, 4), (3, 6)]) == 5
    assert covered(0, 10, [(-5, 2), (8, 20)]) == 4
    assert covered(0, 10, [(11, 12)]) == 0
    assert covered(0, 10, []) == 0


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps its sibling
        _span(4, 2, 2.0, 3.0),  # nested one level deeper
    ]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(5.0), 2: pytest.approx(2.0), 3: pytest.approx(3.0), 4: 1.0}
    # Overlapping siblings are concurrent work: their self times add up
    # to more than the request's wall time, which the check reports.
    assert overcommitted_requests(spans) == [1]
    sequential = [_span(1, None, 0, 10), _span(2, 1, 1, 4), _span(3, 1, 5, 6)]
    assert sum(self_times(sequential).values()) == pytest.approx(10.0)
    assert overcommitted_requests(sequential) == []


def test_max_concurrency_does_not_count_touching_spans():
    assert max_concurrency([_span(1, None, 0, 2), _span(2, None, 2, 4)]) == 1
    assert max_concurrency([_span(1, None, 0, 3), _span(2, None, 1, 4), _span(3, None, 2, 5)]) == 3


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class _Layer:
    def outer(self, inner):
        return inner.work(2)

    def work(self, n):
        return n * 2


def test_wrapped_calls_nest_inside_a_request_and_are_restored():
    tracer = Tracer(clock=_Clock())
    layer = _Layer()
    original_outer = _Layer.outer
    tracer.wrap(_Layer, "outer", "outer", before=lambda span, a, k: span.attrs.update(n=1))
    tracer.wrap(layer, "work", "work", after=lambda span, a, k, r: span.attrs.update(result=r))
    assert layer.outer(layer) == 4  # outside a request: nothing recorded
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.request("request") as root:
        assert layer.outer(layer) == 4
    spans = {span.name: span for span in tracer.spans}
    assert spans["work"].parent == spans["outer"].span_id
    assert spans["outer"].parent == root.span_id
    assert {span.request for span in tracer.spans} == {root.span_id}
    assert spans["work"].attrs == {"result": 4}
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration)
    tracer.restore()
    assert _Layer.outer is original_outer
    assert "work" in vars(layer)  # instance wrappers die with the instance


def test_root_wrapper_opens_its_own_request_only_while_enabled():
    tracer = Tracer(clock=_Clock())
    module = types.ModuleType("handlers")
    module.handle = lambda body: body
    tracer.wrap(module, "handle", "handle", root=True)
    module.handle(1)
    assert tracer.spans == []
    tracer.enabled = True
    module.handle(2)
    (span,) = tracer.spans
    assert span.parent is None and span.request == span.span_id
    tracer.restore()
    assert not hasattr(module.handle, "__wrapped__")


# -- call counting -------------------------------------------------------------


def test_counting_wrapper_keeps_store_keys(tmp_path):
    case = load_use_case("big_three")
    bare = SimulatedLLM(knowledge=case.knowledge)
    counted = CountingLLM(SimulatedLLM(knowledge=case.knowledge))
    prompt = DEFAULT_PROMPT_BUILDER.build(case.query, [doc.text for doc in case.corpus])
    assert counted.name == bare.name
    assert store_key(counted.name, prompt, counted.cache_params) == store_key(
        bare.name, prompt, bare.cache_params
    )

    config = RageConfig(k=case.k, cache_dir=str(tmp_path))
    Rage.from_corpus(case.corpus, bare, config=config).ask(case.query)
    warm = Rage.from_corpus(case.corpus, counted, config=config)
    warm.ask(case.query)
    assert counted.calls == 0  # every key the bare model wrote was found
    assert warm.llm.stats.disk_hits == 1

    cold = CountingLLM(SimulatedLLM(knowledge=case.knowledge))
    Rage.from_corpus(case.corpus, cold, config=RageConfig(k=case.k)).ask(case.query)
    assert cold.calls == 1


def test_counting_wrapper_counts_batches_and_refuses_partial_models():
    counted = CountingLLM(SimulatedLLM())
    prompts = [DEFAULT_PROMPT_BUILDER.build(query, ["Alex won."]) for query in ("Who won?", "Who lost?")]
    counted.generate_batch(prompts)
    assert counted.calls == 2
    with pytest.raises(TypeError):
        CountingLLM(types.SimpleNamespace(generate=lambda prompt: None))


def test_repeat_shares_order_asks_by_send_time():
    from perfbench.workloads import Exchange, _repeat_shares

    def ask(tenant, query, sent, path="/ask"):
        return Exchange(tenant, path, query, 200, b"", sent, 0.1)

    log = [
        ask("a", "q1", 2.0),  # repeats its own earlier ask
        ask("b", "q1", 1.0),  # repeats tenant a's ask
        ask("a", "q1", 0.0),
        ask("a", "q1", 3.0, path="/explain"),  # not an ask
        ask("b", "q2", 4.0),
    ]
    assert _repeat_shares(log) == (0.5, 0.25)


# -- the benchmark's own contract ----------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_lists_the_metrics_the_code_prints():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END_UNITS, WORKLOAD_NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in PER_LAYER.items()
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_refuses_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explain_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
