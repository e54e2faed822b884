"""Seeded mutation fuzz of every file reader the command line reaches.

A tiny synthetic challenge gives valid inputs for each reader of the
malformed-input corpus in ``test_cli.py``: a slide manifest and its PPM
levels, annotation XML, truth, tissue and prediction masks with their
sidecars, a subtypes CSV, team reports, a probability map and a co-teaching
config. Each run mutates one input of a case with ``random.Random`` and
calls ``cli.main`` in process. It must return 0, or return 1 after writing
exactly one stderr line that starts ``slidebench: error:``; no exception may
escape. All runs happen in one child process whose address space is capped
with ``RLIMIT_AS`` once numpy is imported, so a run that tries an oversized
allocation fails at once. Run this file directly, with a work directory, to
fuzz without pytest.
"""
import contextlib
import io
import json
import os
import random
import resource
import sys
import traceback
from pathlib import Path

import numpy as np

from slidebench import ProbabilityMap, write_probability_map
from slidebench.cli import main

RUNS_PER_CASE = 250
HEADROOM = 1 << 29  # bytes of address space a run may add to what the imports mapped
# bytes that make or break numbers and JSON, XML and CSV syntax
_TOKENS = b'0123456789-+.eE"{}[],:<>/=# \n'


def _inputs(root: Path) -> dict:
    """Valid inputs from a 64x64, two-level synthetic challenge; each case maps to
    (the files it may mutate, the command that reads them)."""
    ch, out = root / "challenge", root / "out"
    out.mkdir()
    assert main(["synth", "--out", str(ch), "--slides", "1", "--size", "64", "--levels", "2",
                 "--radius", "4", "8", "--seed", "3", "--team", "a",
                 "--team", "b:flip_rate=0.1"]) == 0
    slide = ch / "slides" / "slide_000"
    manifest = slide / "manifest.json"
    truth, pred = ch / "truth" / "slide_000.pgm", ch / "predictions" / "a" / "slide_000.pgm"
    tissue, prob, cfg = root / "tissue.pgm", root / "p.pgm", root / "train.cfg"
    assert main(["tissue", "--slide", str(manifest), "--out", str(tissue)]) == 0
    reports = [root / f"{team}.json" for team in ("a", "b")]
    for team, report in zip(("a", "b"), reports):
        assert main(["eval", "--truth", str(truth.parent), "--pred",
                     str(ch / "predictions" / team), "--team", team,
                     "--subtypes", str(ch / "subtypes.csv"), "--out", str(report)]) == 0
    values = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    write_probability_map(ProbabilityMap("slide_000", 0, values), prob)
    cfg.write_text("eta=1.0\nt_max=2\nn_max=1\ntau=0.2\nseed=1\n")

    def sidecar(p: Path) -> list[Path]:
        return [p, p.with_suffix(".json")]

    report_args = [str(r) for r in reports]
    return {
        "slide": ([manifest, *sorted(slide.glob("*.ppm"))],
                  ["tissue", "--slide", str(manifest), "--out", str(out / "t.pgm")]),
        "annotations": ([ch / "annotations" / "slide_000.xml"],
                        ["rasterize", "--annotations", str(ch / "annotations" / "slide_000.xml"),
                         "--slide", str(manifest), "--level", "1", "--out", str(out / "r.pgm")]),
        "masks": (sidecar(truth) + sidecar(tissue),
                  ["refine", "--gt", str(truth), "--tissue", str(tissue),
                   "--out", str(out / "f.pgm")]),
        "eval": (sidecar(truth) + sidecar(pred) + [ch / "subtypes.csv"],
                 ["eval", "--truth", str(truth.parent), "--pred", str(pred.parent), "--team", "a",
                  "--subtypes", str(ch / "subtypes.csv"), "--out", str(out / "e.json")]),
        "leaderboard": (reports, ["leaderboard", "--reports", *report_args]),
        "compare": (reports, ["compare", "--reports", *report_args, "--groups",
                              "a=MultiModel,b=SingleModel", "--out", str(out / "c.json")]),
        "probability": (sidecar(prob), ["ensemble", "--mode", "mean", "--binarize", "0.5",
                                        "--inputs", str(prob), str(prob),
                                        "--out", str(out / "m.pgm")]),
        "config": ([cfg], ["coteach", "--out", str(out / "co"), "--config", str(cfg),
                           "--seeds", "0"]),
    }


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three random edits, half of them within the first 64 bytes (the headers)."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        end = len(buf) if rng.random() < 0.5 else min(len(buf), 64)
        i = rng.randrange(end + 1)
        op = rng.randrange(7)
        if op == 0 and i < len(buf):
            buf[i] ^= 1 << rng.randrange(8)
        elif op == 1 and i < len(buf):
            buf[i] = rng.choice(_TOKENS)
        elif op == 2:
            buf[i:i] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
        elif op == 3:
            buf[i:i] = bytes(rng.choice(_TOKENS) for _ in range(rng.randint(1, 4)))
        elif op == 4:
            del buf[i : i + rng.randint(1, 8)]
        elif op == 5:
            buf[i:i] = buf[i : i + rng.randint(1, 16)]
        else:
            del buf[i:]
    return bytes(buf)


def _run(argv: list[str]) -> str | None:
    """None if ``main(argv)`` ends as the contract says, else what went wrong."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except Exception:  # an escape is the finding this fuzz looks for
        return traceback.format_exc(limit=-3)
    lines = err.getvalue().splitlines()
    if code == 0 or (code == 1 and len(lines) == 1 and lines[0].startswith("slidebench: error:")):
        return None
    return f"exit {code}, stderr {err.getvalue()!r}"


def fuzz(root: Path) -> dict:
    """Run every case; return the run count and each escape with the edit that caused it."""
    cases = _inputs(root)
    page = os.sysconf("SC_PAGE_SIZE")
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * page
    resource.setrlimit(resource.RLIMIT_AS, (mapped + HEADROOM, mapped + HEADROOM))
    runs, escapes = 0, []
    for name, (files, argv) in cases.items():
        originals = {p: p.read_bytes() for p in files}
        for n in range(RUNS_PER_CASE):
            rng = random.Random(f"{name}/{n}")
            target = rng.choice(files)
            target.write_bytes(_mutate(originals[target], rng))
            runs += 1
            problem = _run(argv)
            if problem:
                escapes.append({"case": name, "run": n, "file": target.name, "problem": problem})
            target.write_bytes(originals[target])
    return {"runs": runs, "escapes": escapes}


def test_mutated_inputs_give_exit_1_and_one_error_line(tmp_path):
    from oracles import run_child

    proc = run_child([sys.executable, __file__, str(tmp_path)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["escapes"] == []
    assert result["runs"] == 8 * RUNS_PER_CASE


if __name__ == "__main__":
    print(json.dumps(fuzz(Path(sys.argv[1]))))
