"""Spans for the benchmark's traced runs, recorded from outside the package.

``instrument`` swaps each function listed in ``LAYERS``, in every slidebench
module that binds it, for a wrapper that records a span around the call, and
puts the originals back on exit. Calls between slidebench modules resolve
their callee through module globals, so inner layers (``luma`` inside
``tissue_mask``, ``read_p6`` inside ``read_pyramid``) get spans too. Nothing
under ``src/`` knows about tracing.

A span has a name, start and end (CLOCK_MONOTONIC nanoseconds, comparable
across processes), the id of its parent span, a pass id and optional counts.
The process that owns a ``Tracer`` keeps its spans in memory. Forked pool
workers cannot hand spans back in memory and have no exit hook, so they
append each finished span to ``spans-<pid>.jsonl`` in the trace directory;
``collect`` merges those files.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

ENV_DIR = "PERFBENCH_TRACE_DIR"
ENV_PARENT = "PERFBENCH_TRACE_PARENT"
ENV_PASS = "PERFBENCH_TRACE_PASS"


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """In-memory span recorder for one process (and the workers it forks)."""

    def __init__(self, trace_dir: str | Path, parent: str | None = None, pass_id: Any = None):
        self.dir = Path(trace_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[str | None] = [parent]
        self._owner = os.getpid()
        self._n = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record a span; the caller may add numeric entries to ``rec["counts"]``."""
        pid = os.getpid()
        self._n += 1
        # pids are recycled across CLI children, so the clock makes ids unique
        rec = {"id": f"{pid}.{self._n}.{now_ns()}", "parent": self._stack[-1], "name": name,
               "pass": self.pass_id, "pid": pid, "counts": {}}
        self._stack.append(rec["id"])
        rec["start"] = now_ns()
        try:
            yield rec
        finally:
            rec["end"] = now_ns()
            self._stack.pop()
            if pid == self._owner:
                self.spans.append(rec)
            else:
                self._append([rec], pid)

    def _append(self, spans: list[dict], pid: int) -> None:
        with open(self.dir / f"spans-{pid}.jsonl", "a") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    def dump(self) -> None:
        """Write this process's spans to its span file (used by traced CLI children)."""
        self._append(self.spans, os.getpid())
        self.spans = []

    def collect(self) -> None:
        """Merge span files written by other processes into memory."""
        for path in sorted(self.dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()

    def child_env(self) -> dict[str, str]:
        """Environment that lets a traced CLI child attach its spans under the current one."""
        return {ENV_DIR: str(self.dir), ENV_PARENT: self._stack[-1] or "",
                ENV_PASS: json.dumps(self.pass_id)}

    @classmethod
    def from_env(cls) -> "Tracer":
        return cls(os.environ[ENV_DIR], os.environ.get(ENV_PARENT) or None,
                   json.loads(os.environ.get(ENV_PASS, "null")))


def _workers(a: dict) -> str:
    return f"w{a['workers'] or 1}"


def _pyramid_mb(pyramid) -> float:
    return sum(lvl.pixels.nbytes for lvl in pyramid.levels) / 1e6


def _run_chunks_counts(a: dict, _result, child_cpu: float) -> dict:
    pooled = (a["workers"] or 1) > 1 and len(a["chunks"]) > 1
    return {"parallel.child_cpu.s": child_cpu, "parallel.pools.count": int(pooled)}


# function -> (span name, variant(bound args) | None, counts(bound args, result, child cpu) | None)
# ``train`` runs its steps through ``_step_full``; ``coteach_step`` is a thin
# wrapper over it, so the step span sits on ``_step_full`` to see every step.
LAYERS: dict[str, tuple[str, Callable | None, Callable | None]] = {
    "slidebench.synth.generate_challenge": ("synth.generate_challenge", None, None),
    "slidebench.synth.generate_slide": ("synth.generate_slide", None, None),
    "slidebench.synth.corrupt_prediction": ("synth.corrupt_prediction", None, None),
    "slidebench.slide_io.read_pyramid": (
        "slide_io.read_pyramid", None, lambda a, r, c: {"slide_io.read_pyramid.mb": _pyramid_mb(r)}),
    "slidebench.slide_io.write_pyramid": (
        "slide_io.write_pyramid", None,
        lambda a, r, c: {"slide_io.write_pyramid.mb": _pyramid_mb(a["pyramid"])}),
    "slidebench.slide_io.parse_annotations": ("slide_io.parse_annotations", None, None),
    "slidebench.netpbm.read_p6": ("netpbm.read_p6", None, None),
    "slidebench.netpbm.read_p5": ("netpbm.read_p5", None, None),
    "slidebench.masks.luma": ("masks.luma", None, None),
    "slidebench.masks.otsu_threshold": ("masks.otsu_threshold", None, None),
    "slidebench.masks.tissue_mask": ("masks.tissue_mask", lambda a: a["method"], None),
    "slidebench.masks.rasterize": ("masks.rasterize", None, None),
    "slidebench.masks.refine_labels": ("masks.refine_labels", None, None),
    "slidebench.masks.read_mask": (
        "masks.read_mask", None, lambda a, r, c: {"masks.read_mask.count": 1}),
    "slidebench.masks.write_mask": ("masks.write_mask", None, None),
    "slidebench.tiling.extract_tiles": ("tiling.extract_tiles", _workers, None),
    "slidebench.tiling.emit_manifest": (
        "tiling.emit_manifest", None, lambda a, r, c: {"tiling.tiles.count": len(a["records"])}),
    "slidebench.parallel.run_chunks": ("parallel.run_chunks", None, _run_chunks_counts),
    "slidebench.metrics.evaluate_team": ("metrics.evaluate_team", _workers, None),
    "slidebench.metrics.confusion": (
        "metrics.confusion", None, lambda a, r, c: {"metrics.confusion.count": 1}),
    "slidebench.metrics.write_report": ("metrics.write_report", None, None),
    "slidebench.ensemble.fuse_vote": ("ensemble.fuse_vote", None, None),
    "slidebench.ensemble.fuse_mean": ("ensemble.fuse_mean", None, None),
    "slidebench.ensemble.binarize": ("ensemble.binarize", None, None),
    "slidebench.stats.wilcoxon_signed_rank": ("stats.wilcoxon_signed_rank", None, None),
    "slidebench.leaderboard.group_compare": ("leaderboard.group_compare", None, None),
    "slidebench.leaderboard.rank_teams": ("leaderboard.rank_teams", None, None),
    "slidebench.leaderboard.render_leaderboard": ("leaderboard.render_leaderboard", None, None),
    "slidebench.coteach.noise_benchmark": ("coteach.noise_benchmark", None, None),
    "slidebench.coteach.make_noise_benchmark": ("coteach.make_noise_benchmark", None, None),
    "slidebench.coteach.train": ("coteach.train", None, None),
    "slidebench.coteach.train_single": ("coteach.train_single", None, None),
    "slidebench.coteach._step_full": (
        "coteach.coteach_step", None, lambda a, r, c: {"coteach.steps.count": 1}),
}


def _wrap(tracer: Tracer, orig: Callable, name: str, variant, counts) -> Callable:
    sig = inspect.signature(orig) if (variant or counts) else None

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        a = {}
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
        span_name = f"{name}.{variant(a)}" if variant else name
        cpu0 = children_cpu_s()
        with tracer.span(span_name) as rec:
            result = orig(*args, **kwargs)
            if counts:
                rec["counts"].update(counts(a, result, children_cpu_s() - cpu0))
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every function in ``LAYERS`` wherever slidebench binds it."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "slidebench" or n.startswith("slidebench.")]
    saved = []
    try:
        for qualname, (name, variant, counts) in LAYERS.items():
            modname, attr = qualname.rsplit(".", 1)
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = _wrap(tracer, orig, name, variant, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, orig in reversed(saved):
            setattr(mod, key, orig)


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def layer_totals(spans: list[dict]) -> dict[Any, dict[str, float]]:
    """Per pass id: self seconds per ``<span>.s`` plus every recorded count.

    A span's self time is its duration minus the part of its interval that its
    child spans cover (children on two workers may overlap each other).
    """
    children: dict[str, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals: dict[Any, dict[str, float]] = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = _union_ns([(max(a, start), min(b, end))
                             for a, b in children.get(s["id"], []) if min(b, end) > max(a, start)])
        bucket = totals.setdefault(s["pass"], {})
        key = f"{s['name']}.s"
        bucket[key] = bucket.get(key, 0.0) + (end - start - covered) / 1e9
        for k, v in s["counts"].items():
            bucket[k] = bucket.get(k, 0.0) + v
    return totals
