"""Deterministic worker pools.

Work is split into an ordered list of independent chunks; results come back
in submission order regardless of worker count, so every reduction downstream
is order-stable. Callers bind their inputs into the callable (for example
with ``functools.partial``). Workers are forked and inherit that callable, so
large read-only arrays cross copy-on-write instead of being pickled; only the
chunks and the results are pickled. A worker that dies (a signal, the OOM
killer) fails the run with a SlidebenchError instead of hanging it.
"""
from __future__ import annotations

import multiprocessing as mp
from typing import Any, Callable, Sequence

from .errors import SlidebenchError, ValidationError

_func: Callable[[Any], Any] | None = None  # set only in pool workers, by _bind


def _bind(func: Callable[[Any], Any]) -> None:
    global _func
    _func = func


def _call(chunk: Any) -> Any:
    return _func(chunk)


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
) -> list[Any]:
    """Apply ``func`` to each chunk, in order, on ``workers`` processes.

    With one worker or one chunk everything runs in-process, which keeps such
    runs debuggable. A failing chunk re-raises its exception, the first in
    chunk order, as the serial loop does.
    """
    n = resolve_workers(workers)
    if n == 1 or len(chunks) <= 1:
        return [func(c) for c in chunks]
    # imported here: it adds about 20 ms and 1.6 MB to every CLI start that runs no pool
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    # under fork the initializer's arguments are inherited, not pickled
    with ProcessPoolExecutor(
        min(n, len(chunks)), mp_context=mp.get_context("fork"), initializer=_bind, initargs=(func,)
    ) as pool:
        try:
            return list(pool.map(_call, chunks))
        except BrokenProcessPool as exc:
            raise SlidebenchError(f"a pool worker died: {exc}") from None
