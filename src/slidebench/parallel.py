"""Deterministic worker pools.

The caller is worker 0 and forks the others; chunk ``i`` runs on worker
``i % n``, with ``n`` from ``processes``: capped at the chunk count and the CPUs
this process may use. Worker ``k`` first moves to the k-th of those CPUs.
Children inherit the callable (bind inputs with ``functools.partial``), so
large read-only arrays cross copy-on-write; each result comes back as a
length-prefixed pickle on the child's pipe, taken in chunk order whatever the
worker count. The first failing chunk is raised once every chunk before it is
known, and the other workers are killed. A dead worker (a signal, the OOM
killer) fails the run with a SlidebenchError, not a hang.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
from typing import Any, Callable, NoReturn, Sequence

from .errors import SlidebenchError, ValidationError


def _spread(worker: int) -> None:
    """Move this process to the ``worker``-th CPU it may use, keeping its mask: a host that does
    not balance load would otherwise keep each forked worker on its caller's CPU."""
    with contextlib.suppress(OSError):  # a host that forbids the move, or a faked mask
        os.sched_setaffinity(0, {sorted(cpus := os.sched_getaffinity(0))[worker]})
        os.sched_setaffinity(0, cpus)


def _serve(func: Callable, chunks: Sequence, worker: int, n: int, fd: int, parent: int) -> NoReturn:
    """A child's whole life: send chunks worker, worker + n, ... up to the first failure."""
    status = 1
    try:
        _spread(worker)
        with os.fdopen(fd, "wb") as pipe:
            for i in range(worker, len(chunks), n):
                if os.getppid() != parent:  # the caller is gone, so no one reads this pipe
                    break
                try:
                    ok, value = True, func(chunks[i])
                except Exception as exc:
                    ok, value = False, exc
                try:
                    data = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
                    if not ok:
                        pickle.loads(data)  # else the caller would fail on it, unnamed
                except Exception as exc:
                    what = "its result" if ok else f"its error {value!r}"
                    error = SlidebenchError(f"chunk {i}: {what} cannot leave its worker: {exc!r}")
                    ok, data = False, pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
                for stream in (sys.stdout, sys.stderr):  # first: once read, we may be killed
                    if stream:
                        stream.flush()
                pipe.write(len(data).to_bytes(8, "little") + data)
                pipe.flush()
                if not ok:
                    break
        status = 0
    finally:
        os._exit(status)


def processes(workers: int, chunks: int) -> int:
    """How many processes ``run_chunks`` runs ``chunks`` chunks on at ``workers``: at most one
    per chunk and one per CPU this process may use. A caller that cuts its own chunks cuts this
    many."""
    return min(workers, chunks, len(os.sched_getaffinity(0)))


def run_chunks(func: Callable[[Any], Any], chunks: Sequence, workers: int = 1) -> list:
    """``[func(c) for c in chunks]`` on ``workers`` processes, raising as that loop would."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    n = processes(workers, len(chunks))
    if n <= 1:
        return [func(c) for c in chunks]
    for stream in (sys.stdout, sys.stderr):  # else children would write it out again
        if stream:
            stream.flush()
    pids, pipes = {}, {}  # worker -> its pid until reaped, and the read end of its pipe
    parent = os.getpid()
    _spread(0)
    try:
        for worker in range(1, n):
            r, w = os.pipe()
            pipes[worker] = os.fdopen(r, "rb")
            try:
                if (pid := os.fork()) == 0:
                    _serve(func, chunks, worker, n, w, parent)
            finally:
                os.close(w)  # only the child holds the write end, so its death reads as EOF
            pids[worker] = pid
        results = []
        for i, chunk in enumerate(chunks):
            if i % n == 0:
                results.append(func(chunk))
                continue
            head = pipes[i % n].read(8)
            size = int.from_bytes(head, "little") if len(head) == 8 else 0
            data = pipes[i % n].read(size)
            if not data or len(data) < size:  # EOF: the child is gone, so reap it here
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(i % n), 0)[1])
                raise SlidebenchError(f"a pool worker died (exit code {code}) before chunk {i}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pipe in pipes.values():
            pipe.close()
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
