"""slidebench benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run sets the workload up three times (``setup_s`` is the median), then
runs passes for ``--seconds`` (at least one) and checks each pass's outputs
outside the timed region. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` its ``per_layer``
metrics. A traced run alternates untraced and traced passes, takes layer
self times from the traced ones, reports tracing overhead as the traced
median pass time against the untraced one, and writes its spans to
``.bench_out/``. Layers a workload does not run read 0; layers that run only
in set-up report their median over the set-ups.

``--smoke`` runs every workload at tiny sizes with and without tracing and
fails unless every metric of BENCHMARK.json is printed with its unit, every
per-layer metric is non-zero on some workload, and every output check ran
and passed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import slidebench  # noqa: E402

if not Path(slidebench.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: slidebench imported from {slidebench.__file__}, not from {ROOT / 'src'}")

import tracer  # noqa: E402
from workloads import WORKLOADS, PassLog  # noqa: E402

SETUPS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + tracer.children_cpu_s()


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples above it.

    With fewer than 20 samples that percentile would lie below the median, so
    the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def host_line() -> str:
    llc = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            if (index / "level").read_text().strip() == "3":
                llc = (index / "size").read_text().strip()
    return (f"host: nproc={os.cpu_count()} llc={llc} python={platform.python_version()} "
            f"numpy={np.__version__}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up, run passes for ``seconds`` and return (result, checks, report lines)."""
    spec = load_spec()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](work, seed, tiny)
        tr = tracer.Tracer(work / "spans") if trace else None
        setup_s = []
        for k in range(SETUPS):
            if tr:
                tr.pass_id = f"setup{k}"
            t0 = time.perf_counter()
            with tracer.instrument(tr) if tr else contextlib.nullcontext():
                wl.setup(tr)
            setup_s.append(time.perf_counter() - t0)
        if tr:
            tr.collect()

        passes: list[dict] = []
        checks: dict[str, bool] = {}
        start = time.perf_counter()
        while True:
            traced = bool(tr) and len(passes) % 2 == 1
            if traced:
                tr.pass_id = len(passes)
            log = PassLog()
            out = None
            cpu0 = cpu_s()
            t0 = time.perf_counter()
            try:
                with tracer.instrument(tr) if traced else contextlib.nullcontext():
                    out = wl.run(log, tr if traced else None)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
            cpu = cpu_s() - cpu0
            if traced:
                tr.collect()
            if out is not None:
                try:
                    wl.check(out, log)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    log.check("check_raised", False, list(log.ops))
            # a pass that raised fails at least one operation, even between operations
            failed = max(log.failed, int(out is None))
            del out
            for k, ok in log.checks.items():
                checks[k] = checks.get(k, True) and ok
            passes.append({"id": len(passes), "wall": wall, "cpu": cpu, "traced": traced,
                           "attempted": max(len(log.ops), failed), "failed": failed,
                           "stages": log.stages})
            if time.perf_counter() - start >= seconds and len(passes) >= (2 if tr else 1):
                break

        plain = [p for p in passes if not p["traced"]]
        walls = [p["wall"] for p in plain]
        tail_value, tail_pct = tail(walls)
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        lines = [
            host_line(),
            f"workload {name}: {wl.size}; workers {wl.workers}; seed {seed}; "
            f"{len(passes)} passes ({len(passes) - len(plain)} traced)",
            f"pass_s.tail is p{tail_pct:.1f} of {len(walls)} untraced passes: "
            + " ".join(f"{w:.3f}" for w in walls),
            f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}",
            "checks: " + " ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in sorted(checks.items())),
        ]
        if trace:
            values = layer_metrics(tr, passes)
            with contextlib.suppress(OSError):
                (ROOT / ".bench_out").mkdir(exist_ok=True)
                with open(ROOT / ".bench_out" / f"trace-{name}-seed{seed}.jsonl", "w") as fh:
                    fh.writelines(json.dumps(s) + "\n" for s in tr.spans)
            kind = "per_layer"
        else:
            stages = [p["stages"] for p in plain]
            w1 = [s["w1"] for s in stages if "w1" in s]
            w2 = [s["w2"] for s in stages if "w2" in s]
            values = {
                "setup_s": statistics.median(setup_s),
                "pass_s.p50": statistics.median(walls),
                "pass_s.tail": tail_value,
                "cpu_s.p50": statistics.median(p["cpu"] for p in plain),
                "peak_rss_mb": peak_rss_mb(),
                # a workload with no stage run at both 1 and 2 workers has nothing to speed up
                "speedup_w2": statistics.median(w1) / statistics.median(w2) if w2 else 1.0,
            }
            kind = "end_to_end"
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0) if trace else values[m["name"]],
                               "unit": m["unit"]} for m in spec[kind]}
        lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        result = {"correct": failed == 0 and all(checks.values())
                  and set(wl.checks) <= set(checks),
                  "attempted": attempted, "failed": failed, "metrics": metrics}
        return result, checks, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(tr: tracer.Tracer, passes: list[dict]) -> dict[str, float]:
    """Median per traced pass of each layer's self time and counts, plus tracing overhead."""
    totals = tracer.layer_totals(tr.spans)
    traced = [p["id"] for p in passes if p["traced"]]
    setups = [f"setup{k}" for k in range(SETUPS)]
    names = {k for bucket in totals.values() for k in bucket}
    values = {}
    for name in names:
        in_passes = [totals.get(i, {}).get(name, 0.0) for i in traced]
        if not any(in_passes):
            in_passes = [totals.get(s, {}).get(name, 0.0) for s in setups]
        values[name] = statistics.median(in_passes)
    on = statistics.median(p["wall"] for p in passes if p["traced"])
    off = statistics.median(p["wall"] for p in passes if not p["traced"])
    values.update({"trace.pass.traced.s": on, "trace.pass.untraced.s": off,
                   "trace.overhead.pct": 100.0 * (on / off - 1.0)})
    return values


def smoke() -> int:
    spec = load_spec()
    problems = []
    measured: dict[str, float] = {}
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            t0 = time.perf_counter()
            result, checks, _ = run_workload(name, 11, 0, trace, tiny=True)
            kind = "per_layer" if trace else "end_to_end"
            print(f"smoke {name} {kind}: {time.perf_counter() - t0:.1f} s", flush=True)
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name} {kind}: {m['name']} not printed with unit {m['unit']}")
                elif trace:
                    measured[m["name"]] = max(measured.get(m["name"], 0.0), abs(got["value"]))
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} {kind}: outputs not correct ({result['failed']} failed)")
            missing = set(cls.checks) - set(checks)
            if missing:
                problems.append(f"{name} {kind}: checks did not run: {sorted(missing)}")
    problems += [f"per-layer metric {k} is 0 on every workload"
                 for k, v in measured.items() if v == 0]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    result, _, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
