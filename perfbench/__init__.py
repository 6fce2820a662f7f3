"""The repository benchmark: end-to-end and per-layer performance of RAGE.

Run one workload per process from the repository root::

    python3 perfbench/run.py --workload explain_cold --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``explain_cold`` — ask + ``explain()`` on seeded timeline and
  superlative worlds at k = 6, 8, 10, each on a fresh engine with an
  empty prompt store; afterwards, untimed, each report is explained
  again over its filled store, as after a restart;
* ``serve_mixed`` — two closed-loop tenants sending ``/ask`` and a
  fixed share of ``/explain`` to a :class:`~repro.app.server.RageServer`
  over a pooled corpus with a persistent SQLite index.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs
spans around each layer's public entry points from outside the
package (:mod:`perfbench.tracing`) and prints per-layer self time and
counts.  The last stdout line is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
