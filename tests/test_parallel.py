"""Ordered chunked execution on forked workers that inherit a bound callable."""
import os
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from slidebench.errors import ValidationError
from slidebench.parallel import resolve_workers, run_chunks

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_resolve_workers_defaults_to_one():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4


def test_resolve_workers_rejects_nonpositive():
    with pytest.raises(ValidationError):
        resolve_workers(0)
    with pytest.raises(ValidationError):
        resolve_workers(-2)


def test_results_in_submission_order_serial():
    assert run_chunks(_square, [3, 1, 2], workers=1) == [9, 1, 4]


def test_results_in_submission_order_forked():
    assert run_chunks(_square, list(range(10)), workers=4) == [x * x for x in range(10)]


def test_single_worker_stays_in_process():
    pid = os.getpid()
    results = run_chunks(_tagged_pid, [1, 2, 3], workers=1)
    assert all(p == pid for _, p in results)


def test_single_chunk_stays_in_process_even_with_workers():
    pid = os.getpid()
    results = run_chunks(_tagged_pid, [7], workers=4)
    assert results == [(7, pid)]


def test_forked_workers_use_other_processes():
    results = run_chunks(_tagged_pid, list(range(8)), workers=4)
    assert [x for x, _ in results] == list(range(8))
    assert any(p != os.getpid() for _, p in results)


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
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _KILLED_WORKER], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert time.monotonic() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("SlidebenchError: a pool worker died")


def test_serial_and_forked_agree():
    data = list(range(17))
    assert run_chunks(_square, data, workers=1) == run_chunks(_square, data, workers=3)
