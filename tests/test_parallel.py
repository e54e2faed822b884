"""Ordered chunked execution on forked workers that inherit a bound callable."""
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from slidebench.errors import SlidebenchError, ValidationError
from slidebench.parallel import run_chunks

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package under test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)


def _square(x):
    return x * x


def _tagged_pid(x):
    return x, os.getpid()


def _scaled(scale, x):
    return x * scale


def _row_sum(matrix, i):
    return float(matrix[i].sum())


def _locked_square(lock, x):
    with lock:
        return x * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"chunk {x} failed")
    return x


def test_run_chunks_defaults_to_one_worker(four_cpus, forks):
    assert run_chunks(_square, [3, 1, 2]) == [9, 1, 4]
    assert not forks


def test_run_chunks_rejects_nonpositive_workers(four_cpus, forks):
    for workers in (0, -2):
        with pytest.raises(ValidationError, match=f"workers must be >= 1, got {workers}"):
            run_chunks(_square, [3, 1, 2], workers=workers)
    assert not forks


def test_results_in_submission_order_serial():
    assert run_chunks(_square, [3, 1, 2], workers=1) == [9, 1, 4]


def test_results_in_submission_order_forked(four_cpus):
    assert run_chunks(_square, list(range(10)), workers=4) == [x * x for x in range(10)]


def test_single_worker_stays_in_process():
    pid = os.getpid()
    results = run_chunks(_tagged_pid, [1, 2, 3], workers=1)
    assert all(p == pid for _, p in results)


def test_single_chunk_stays_in_process_even_with_workers():
    pid = os.getpid()
    results = run_chunks(_tagged_pid, [7], workers=4)
    assert results == [(7, pid)]


def test_forked_workers_use_other_processes(four_cpus):
    results = run_chunks(_tagged_pid, list(range(8)), workers=4)
    assert [x for x, _ in results] == list(range(8))
    pids = [p for _, p in results]
    # the caller is worker 0, and chunk i runs on worker i % 4
    assert pids[0] == pids[4] == os.getpid()
    assert len(set(pids)) == 4
    assert all(pids[i] == pids[i + 4] for i in range(4))


def test_each_worker_moves_to_its_own_cpu_and_keeps_its_mask(monkeypatch, tmp_path):
    # a host that does not balance load would keep every forked worker on its caller's CPU
    log = tmp_path / "affinity"

    def record(pid, cpus):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {sorted(cpus)}\n")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 3, 9})
    monkeypatch.setattr(os, "sched_setaffinity", record)
    results = run_chunks(_tagged_pid, list(range(6)), workers=3)
    calls = {}
    for line in log.read_text().splitlines():
        pid, cpus = line.split(" ", 1)
        calls.setdefault(int(pid), []).append(cpus)
    assert [calls[pid] for _, pid in results[:3]] == [[f"[{c}]", "[3, 5, 9]"] for c in (3, 5, 9)]


def test_process_count_is_capped_at_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    results = run_chunks(_tagged_pid, list(range(8)), workers=4)
    assert [x for x, _ in results] == list(range(8))
    assert len({p for _, p in results}) == 2


def test_shared_state_visible_in_workers():
    assert run_chunks(partial(_scaled, 10), [1, 2, 3], workers=2) == [10, 20, 30]


def test_shared_arrays_inherited_without_pickling():
    matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
    expect = [float(matrix[i].sum()) for i in range(4)]
    assert run_chunks(partial(_row_sum, matrix), [0, 1, 2, 3], workers=2) == expect


def test_unpicklable_bound_object_reaches_forked_workers():
    lock = threading.Lock()
    assert run_chunks(partial(_locked_square, lock), [1, 2, 3, 4], workers=2) == [1, 4, 9, 16]


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_chunk_in_order_is_raised(workers):
    with pytest.raises(ValueError, match="chunk 1 failed"):
        run_chunks(_fail_on_odd, [0, 1, 2, 3], workers=workers)


_KILLED_WORKER = """
import os, signal, sys
from slidebench.errors import SlidebenchError
from slidebench.parallel import run_chunks

def chunk(x):
    if x == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x

try:
    run_chunks(chunk, [0, 1, 2, 3], workers=2)
except SlidebenchError as exc:
    print("SlidebenchError:", exc)
    sys.exit(0)
sys.exit("no error raised")
"""


def test_killed_worker_raises_instead_of_hanging():
    # in a subprocess, so a regression that hangs fails this test instead of the suite
    start = time.monotonic()
    proc = _python(_KILLED_WORKER)
    assert time.monotonic() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("SlidebenchError: a pool worker died")


def test_serial_and_forked_agree(four_cpus):
    data = list(range(17))
    assert run_chunks(_square, data, workers=1) == run_chunks(_square, data, workers=3)


def _fail_or_sleep(failing, sleeps, x):
    if x == failing:
        raise ValueError(f"chunk {x} failed")
    time.sleep(sleeps.get(x, 0))
    return x


@pytest.mark.parametrize("failing, sleeps, budget", [
    (0, {1: 3, 2: 3, 3: 3}, 1.0),  # the caller's own chunk fails while the child sleeps
    (1, {0: 1, 2: 3, 3: 3}, 2.5),  # a child's chunk fails while the caller works on chunk 0
])
def test_failing_chunk_stops_the_other_workers(four_cpus, failing, sleeps, budget):
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"chunk {failing} failed"):
        run_chunks(partial(_fail_or_sleep, failing, sleeps), [0, 1, 2, 3], workers=2)
    assert time.monotonic() - start < budget


class _TwoArgError(Exception):
    """Pickles, but fails to unpickle: its args hold one of the two values __init__ needs."""

    def __init__(self, a, b):
        super().__init__(a)


def _lock_at_one(x):
    return threading.Lock() if x == 1 else x


def _unpicklable_error_at_one(x):
    if x == 1:
        raise _TwoArgError("a", "b")
    return x


def test_results_that_cannot_cross_the_pipe_name_their_chunk(four_cpus):
    with pytest.raises(TypeError) as lock_error:
        pickle.dumps(threading.Lock())
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(_TwoArgError("a", "b")))
    cases = [(_lock_at_one, repr(lock_error.value)),
             (_unpicklable_error_at_one, repr(_TwoArgError("a", "b")))]
    for func, original in cases:
        start = time.monotonic()
        with pytest.raises(SlidebenchError) as err:
            run_chunks(func, [0, 1, 2, 3], workers=2)
        assert time.monotonic() - start < 5
        assert "chunk 1" in str(err.value)
        assert original in str(err.value)
        assert "died" not in str(err.value)


def _mib_array(i):
    return np.full(1 << 17, i, dtype=np.float64)  # 1 MiB, more than a pipe buffer holds


@pytest.mark.parametrize("workers", [2, 3])
def test_results_larger_than_the_pipe_buffer(four_cpus, workers):
    serial = run_chunks(_mib_array, list(range(9)), workers=1)
    forked = run_chunks(_mib_array, list(range(9)), workers=workers)
    assert len(forked) == 9
    assert all(np.array_equal(a, b) for a, b in zip(serial, forked))


def _killed_at_one(x):
    if x == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def test_no_child_or_descriptor_outlives_a_call(four_cpus):
    fds = len(os.listdir("/proc/self/fd"))
    assert run_chunks(_square, list(range(6)), workers=3) == [x * x for x in range(6)]
    with pytest.raises(ValueError, match="chunk 1 failed"):
        run_chunks(_fail_on_odd, [0, 1, 2, 3], workers=3)
    with pytest.raises(SlidebenchError, match="a pool worker died"):
        run_chunks(_killed_at_one, [0, 1, 2, 3], workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_cli_start_imports_no_process_pool():
    proc = _python("import sys, slidebench.cli; "
                   "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
