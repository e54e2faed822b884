"""Deterministic worker pools.

Work is split into an ordered list of independent chunks; results come back
in submission order regardless of worker count, so every reduction downstream
is order-stable. Large read-only arrays are published module-globally before
the fork so workers inherit them copy-on-write instead of pickling.
"""
from __future__ import annotations

import multiprocessing as mp
from typing import Any, Callable, Sequence

from .errors import ValidationError

_SHARED: dict[str, Any] = {}


def shared_get(key: str) -> Any:
    return _SHARED[key]


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        return 1
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return workers


def run_chunks(
    func: Callable[[Any], Any],
    chunks: Sequence[Any],
    workers: int | None = None,
    shared: dict[str, Any] | None = None,
) -> list[Any]:
    """Apply ``func`` to each chunk, in order, on ``workers`` processes.

    ``shared`` entries are visible to workers through :func:`shared_get`.
    With one worker everything runs in-process, which keeps single-worker
    runs debuggable and import-safe on any start method.
    """
    n = resolve_workers(workers)
    old: dict[str, Any] = {}
    if shared:
        for key, value in shared.items():
            if key in _SHARED:
                old[key] = _SHARED[key]
            _SHARED[key] = value
    try:
        if n == 1 or len(chunks) <= 1:
            return [func(c) for c in chunks]
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=min(n, len(chunks))) as pool:
            # imap re-raises the first failing chunk in order, as the serial loop does
            return list(pool.imap(func, chunks))
    finally:
        if shared:
            for key in shared:
                if key in old:
                    _SHARED[key] = old[key]
                else:
                    _SHARED.pop(key, None)
