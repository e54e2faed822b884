"""Appends a line to $SLIDEBENCH_TEST_FORK_LOG each time this process forks.

Tests put this directory on PYTHONPATH of a CLI run to see that a multi-worker
command really ran a pool.
"""
import os

if os.environ.get("SLIDEBENCH_TEST_FORK_LOG"):
    def _log_fork():
        with open(os.environ["SLIDEBENCH_TEST_FORK_LOG"], "a") as fh:
            fh.write(f"{os.getpid()}\n")

    os.register_at_fork(after_in_parent=_log_fork)
