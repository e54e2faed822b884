"""The traced benchmark's hold on package names.

``perfbench/tracer.py`` resolves every qualname in ``LAYERS`` and binds the
parameters ``workers``, ``method``, ``chunks``, ``records`` and ``pyramid``
by name, so a rename that breaks the benchmark breaks no other test. This
runs the tiny ``large_slide`` and ``scoring`` workloads under the tracer, as
a traced benchmark pass does. It only reads ``perfbench/``.
"""
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", ["large_slide", "scoring"])
def test_tiny_workload_passes_under_the_tracer(tmp_path, name):
    wl = workloads.WORKLOADS[name](tmp_path, 11, True)
    tr = tracer.Tracer(tmp_path / "spans")
    with tracer.instrument(tr):
        wl.setup(tr)
        log = workloads.PassLog()
        out = wl.run(log, tr)
    tr.collect()
    wl.check(out, log)
    assert log.ops and log.failed == 0
    assert log.checks == dict.fromkeys(wl.checks, True)
    assert tr.spans
