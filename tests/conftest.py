import os

import numpy as np
import pytest

from slidebench import CorruptionSpec, SynthConfig, generate_challenge


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the processes forked during a test, to show that a multi-worker call ran a pool."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def four_cpus(monkeypatch):
    """Lets run_chunks fork up to 4 processes, and at least 2, whatever the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


@pytest.fixture(scope="session")
def challenge_dir(tmp_path_factory):
    """A small generated challenge shared by end-to-end tests.

    Three teams with nested corruption: identity, then flips at 2% and 5%
    drawn from one stream, so Dice is monotone by construction.
    """
    out = tmp_path_factory.mktemp("challenge")
    cfg = SynthConfig(seed=11, slides=5, level0_size=256, n_levels=2,
                      lesion_radius=(10.0, 30.0))
    teams = [
        ("exact", CorruptionSpec(seed=11)),
        ("flip2", CorruptionSpec(flip_rate=0.02, seed=11)),
        ("flip5", CorruptionSpec(flip_rate=0.05, seed=11)),
    ]
    generate_challenge(cfg, teams, out, workers=1)
    return out
