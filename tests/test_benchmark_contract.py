"""The traced benchmark's hold on package names.

``perfbench/tracer.py`` resolves every qualname in ``LAYERS`` and binds the
parameters ``workers``, ``method``, ``chunks``, ``records`` and ``pyramid``
by name, so a rename that breaks the benchmark breaks no other test. This
runs the tiny ``large_slide`` and ``scoring`` workloads under the tracer, as
a traced benchmark pass does, and a traced CLI child as a traced
``challenge`` pass starts it. ``instrument`` patches only the slidebench
modules already in ``sys.modules`` when it starts, which the lazy
registration of ``import slidebench`` provides. It only reads ``perfbench/``.
"""
import importlib.util
import os
import sys
from pathlib import Path

import pytest

import slidebench
from oracles import run_child
from slidebench import masks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", ["large_slide", "scoring", "noisy_labels"])
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


def test_traced_cli_child_records_inner_spans(tmp_path, challenge_dir):
    tr = tracer.Tracer(tmp_path / "spans")
    slide = challenge_dir / "slides" / "slide_000" / "manifest.json"
    proc = run_child([sys.executable, str(PERFBENCH / "clishim.py"), "tissue", "--slide",
                      str(slide), "--method", "otsu", "--out", str(tmp_path / "t.pgm")],
                     dict(os.environ, **tr.child_env()))
    assert proc.returncode == 0, proc.stderr
    tr.collect()
    assert {"masks.tissue_mask.otsu", "netpbm.read_p6"} <= {s["name"] for s in tr.spans}


def test_package_names_follow_a_patched_module(monkeypatch):
    original = masks.tissue_mask
    assert slidebench.tissue_mask is original

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(masks, "tissue_mask", patched)
        assert slidebench.tissue_mask is patched
    assert slidebench.tissue_mask is original
