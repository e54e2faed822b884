"""What ``import slidebench`` and a CLI start execute, checked in fresh interpreters.

Every submodule is in ``sys.modules`` from ``import slidebench`` on, as a
lazy module. It counts as executed once ``type(sys.modules[name]) is
types.ModuleType``; that check does not trigger the load.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# runs ``python -m slidebench ARGS`` and prints, as its last line, the executed modules
CLI_PROBE = """
import json, runpy, sys, types
try:
    runpy.run_module("slidebench", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(n for n, m in sys.modules.items()
                        if type(m) is types.ModuleType and n.split(".")[0] in ("numpy", "slidebench"))))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _executed(*args: str) -> set[str]:
    return set(json.loads(_python(CLI_PROBE, *args).stdout.splitlines()[-1]))


@pytest.mark.parametrize("args", [["--version"], ["--help"], ["tissue", "--help"]])
def test_version_and_help_load_no_numpy(args):
    assert _executed(*args) == {"slidebench", "slidebench.cli", "slidebench.errors"}


def test_tissue_executes_only_what_it_calls(challenge_dir, tmp_path):
    slide = challenge_dir / "slides" / "slide_000" / "manifest.json"
    executed = _executed("tissue", "--slide", str(slide), "--out", str(tmp_path / "t.pgm"))
    assert {n for n in executed if n.startswith("slidebench.")} == {
        "slidebench.cli", "slidebench.errors", "slidebench.masks", "slidebench.slide_io",
        "slidebench.netpbm"}
    assert (tmp_path / "t.pgm").is_file()


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
