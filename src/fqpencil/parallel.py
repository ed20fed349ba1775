"""Thread-pool parallel map with deterministic, order-preserving results.

Work items are mapped in submission order and results are reduced in that
same order regardless of completion order, so any reduction performed on
the output is independent of the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConstraintViolation

ENV_THREADS = "FQPENCIL_THREADS"


def default_threads() -> int:
    """The thread count in FQPENCIL_THREADS, 1 when it is unset or empty."""
    v = os.environ.get(ENV_THREADS)
    if not v:
        return 1
    try:
        threads = int(v)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConstraintViolation(
            f"{ENV_THREADS} must be an integer of at least 1, got {v!r}")
    return threads


def pmap(fn, items, threads: int = 1):
    """List of fn(item) in input order; sequential when threads <= 1."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
