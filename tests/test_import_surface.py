"""What ``import slidebench`` and a CLI start execute, checked in fresh interpreters.

Every submodule is in ``sys.modules`` from ``import slidebench`` on, as a
lazy module. It counts as executed once ``type(sys.modules[name]) is
types.ModuleType``; that check does not trigger the load.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import run_child
from slidebench.cli import main

ROOT = Path(__file__).resolve().parents[1]

# runs ``python -m slidebench ARGS`` and prints, as its last line, its exit code and the
# executed modules
CLI_PROBE = """
import json, runpy, sys, types
code = None
try:
    runpy.run_module("slidebench", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(n for n, m in sys.modules.items()
                               if type(m) is types.ModuleType
                               and n.split(".")[0] in ("numpy", "slidebench"))]))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    proc = run_child([sys.executable, "-c", code, *args])
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def inputs(challenge_dir, tmp_path_factory):
    """The challenge, with a tissue mask of slide_000 and the reports of two teams."""
    out = tmp_path_factory.mktemp("inputs")
    slide = challenge_dir / "slides" / "slide_000" / "manifest.json"
    assert main(["tissue", "--slide", str(slide), "--out", str(out / "tissue.pgm")]) == 0
    for team in ("exact", "flip2"):
        assert main(["eval", "--truth", str(challenge_dir / "truth"),
                     "--pred", str(challenge_dir / "predictions" / team), "--team", team,
                     "--out", str(out / f"{team}.json")]) == 0
    return challenge_dir, out


def _slide(c):
    return str(c / "slides" / "slide_000" / "manifest.json")


def _reports(w):
    return ["--reports", str(w / "exact.json"), str(w / "flip2.json")]


IO = "masks netpbm slide_io"
# each start's arguments, given the challenge ``c``, the inputs ``w`` and an output directory
# ``o``; the slidebench submodules besides ``cli`` and ``errors`` that it runs; and whether it
# loads numpy
STARTS = {
    "version": (lambda c, w, o: ["--version"], "", False),
    "help": (lambda c, w, o: ["--help"], "", False),
    "tissue-help": (lambda c, w, o: ["tissue", "--help"], "", False),
    "synth": (lambda c, w, o: ["synth", "--out", str(o / "s"), "--slides", "1", "--size", "64",
                               "--levels", "1", "--radius", "4", "8"],
              f"{IO} parallel reports synth", True),
    "tissue": (lambda c, w, o: ["tissue", "--slide", _slide(c), "--out", str(o / "t.pgm")],
               IO, True),
    "rasterize": (lambda c, w, o: ["rasterize", "--annotations",
                                   str(c / "annotations" / "slide_000.xml"),
                                   "--slide", _slide(c), "--out", str(o / "r.pgm")], IO, True),
    "refine": (lambda c, w, o: ["refine", "--gt", str(c / "truth" / "slide_000.pgm"),
                                "--tissue", str(w / "tissue.pgm"), "--out", str(o / "f.pgm")],
               IO, True),
    "tile": (lambda c, w, o: ["tile", "--slide", _slide(c), "--gt",
                              str(c / "truth" / "slide_000.pgm"), "--size", "64",
                              "--out", str(o / "t.jsonl")], f"{IO} parallel tiling", True),
    "eval": (lambda c, w, o: ["eval", "--truth", str(c / "truth"),
                              "--pred", str(c / "predictions" / "flip5"), "--team", "flip5",
                              "--subtypes", str(c / "subtypes.csv"), "--out", str(o / "f.json")],
             f"{IO} metrics parallel reports", True),
    "ensemble": (lambda c, w, o: ["ensemble", "--mode", "vote", "--inputs",
                                  *(str(c / "predictions" / t / "slide_000.pgm")
                                    for t in ("exact", "flip2", "flip5")),
                                  "--out", str(o / "v.pgm")], f"{IO} ensemble", True),
    "coteach": (lambda c, w, o: ["coteach", "--out", str(o / "co"), "--seeds", "1"],
                "coteach masks slide_io", True),
    "compare": (lambda c, w, o: ["compare", *_reports(w), "--groups",
                                 "exact=MultiModel,flip2=SingleModel", "--out", str(o / "c.json")],
                "leaderboard reports stats", False),
    "leaderboard": (lambda c, w, o: ["leaderboard", *_reports(w), "--format", "text"],
                    "leaderboard reports stats", False),
}


@pytest.mark.parametrize("start", STARTS)
def test_start_executes_only_what_it_uses(inputs, tmp_path, start):
    make_args, modules, numpy = STARTS[start]
    proc = _python(CLI_PROBE, *make_args(*inputs, tmp_path))
    code, executed = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert {n for n in executed if n.startswith("slidebench")} == {
        "slidebench", "slidebench.cli", "slidebench.errors",
        *(f"slidebench.{m}" for m in modules.split())}
    assert any(n.startswith("numpy") for n in executed) == numpy


def test_a_submodule_runs_on_first_use():
    _python("""
import sys, types
import slidebench.masks
assert slidebench.masks.luma.__module__ == "slidebench.masks"
assert type(sys.modules["slidebench.masks"]) is types.ModuleType
assert type(sys.modules["slidebench.coteach"]) is not types.ModuleType
""")


def test_every_exported_name_is_its_modules_attribute():
    _python("""
import sys, slidebench
assert slidebench.__all__ and len(set(slidebench.__all__)) == len(slidebench.__all__)
for name, module in slidebench._ORIGIN.items():
    assert getattr(slidebench, name) is getattr(sys.modules["slidebench." + module], name), name
assert "tissue_mask" not in vars(slidebench)  # resolved on each access, never cached
""")


def test_star_import_dir_and_unknown_names():
    _python("""
import slidebench
from slidebench import *
assert tissue_mask is slidebench.masks.tissue_mask and METHOD_OTSU == "otsu"
names = dir(slidebench)
assert set(slidebench.__all__) <= set(names) and {"masks", "netpbm", "__version__"} <= set(names)
assert not hasattr(slidebench, "no_such_name")
try:
    from slidebench import no_such_name
except ImportError:
    pass
else:
    raise AssertionError("imported a name slidebench does not define")
""")


def test_version_start_leaves_dataclasses_unloaded():
    proc = _python("""
import runpy, sys
try:
    runpy.run_module("slidebench", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print("dataclasses" in sys.modules)
""", "--version")
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_starts_load_neither_json_nor_csv(flag):
    """The JSON and CSV dialects import their stdlib module when first called."""
    proc = _python("""
import runpy, sys
try:
    runpy.run_module("slidebench", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(sorted({"json", "csv"} & set(sys.modules)))
""", flag)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_imports_slidebench_modules_only_at_module_level():
    """The stages are lazy submodules imported once at the top of ``cli.py``."""
    tree = ast.parse((ROOT / "src" / "slidebench" / "cli.py").read_text())
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    assert node.level == 0 and node.module.split(".")[0] != "slidebench", (
                        f"{func.name} imports {'.' * node.level}{node.module or ''}")
                if isinstance(node, ast.Import):
                    assert all(a.name.split(".")[0] != "slidebench" for a in node.names), func.name


# runs ``synth`` through ``cli.main`` in this interpreter, then prints the BLAS thread
# setting the CLI left and the process's thread count
BLAS_PROBE = """
import json, os, sys
from slidebench.cli import main
assert "numpy" not in sys.modules
code = main(["synth", "--out", sys.argv[1], "--slides", "1", "--size", "64", "--levels", "1",
             "--radius", "4", "8"])
assert code == 0 and "numpy" in sys.modules
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task"))]))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/<pid>/task")
def test_cli_loads_numpy_with_one_blas_thread(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    proc = _python(BLAS_PROBE, str(tmp_path / "s"))
    assert json.loads(proc.stdout.splitlines()[-1]) == ["1", 1]


def test_cli_keeps_a_blas_thread_count_the_user_set(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    proc = _python(BLAS_PROBE, str(tmp_path / "s"))
    assert json.loads(proc.stdout.splitlines()[-1])[0] == "2"


def test_in_process_cli_leaves_the_blas_setting_alone(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    import numpy  # noqa: F401  (loaded already, as for any in-process caller)

    assert main(["synth", "--out", str(tmp_path / "s"), "--slides", "1", "--size", "64",
                 "--levels", "1", "--radius", "4", "8"]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
