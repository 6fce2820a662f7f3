"""Execution layer: pluggable backends for running LLM call batches.

See :mod:`repro.exec.backend` for the strategy catalogue; the prompt
cache's misses (or, with the cache off, the evaluator's batches) run
through one of these, so explanation algorithms stay oblivious to how
calls are executed.
"""

from .backend import (
    DEFAULT_THREAD_WORKERS,
    AsyncioBackend,
    BackendStats,
    ExecutionBackend,
    SerialBackend,
    ThreadedBackend,
    make_backend,
)

__all__ = [
    "DEFAULT_THREAD_WORKERS",
    "AsyncioBackend",
    "BackendStats",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "make_backend",
]
