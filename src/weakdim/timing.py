"""Per-phase wall-clock timing for ``--timing`` reports."""

from __future__ import annotations

import time
from contextlib import contextmanager


@contextmanager
def timed(phases: dict | None, name: str):
    """Add the block's wall-clock milliseconds to ``phases[name]``;
    does nothing when ``phases`` is None."""
    if phases is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + (time.perf_counter() - start) * 1000
