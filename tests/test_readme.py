"""The README's Python API example runs as written, and every documented command parses."""
import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from slidebench.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SCRIPTS = ROOT / "scripts"
SHELL_OPERATORS = {">", ">>", "2>", "|", "&&", "||", ";"}


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"## Python API\n.*?```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "challenge" / "truth_table.csv").is_file()
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def _commands(script: str) -> list[list[str]]:
    """The argument lists of the ``slidebench`` (or ``$RUN``) commands in a shell script,
    with ``\\`` continuations joined, each shell variable replaced by ``1``, which every
    flag of the CLI accepts whatever its type, and any redirection or pipe cut off."""
    commands = []
    for line in script.replace("\\\n", " ").splitlines():
        line = re.sub(r"\$\{?(\w+)\}?", lambda m: "slidebench" if m[1] == "RUN" else "1", line)
        words = shlex.split(line, comments=True)
        words = list(takewhile(lambda w: w not in SHELL_OPERATORS, words))
        if words[:1] == ["slidebench"]:
            commands.append(words[1:])
    return commands


DOCUMENTED = {
    "README.md": lambda: "\n".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)),
    "full_pipeline.sh": (SCRIPTS / "full_pipeline.sh").read_text,
    "pipeline_diff.sh": (SCRIPTS / "pipeline_diff.sh").read_text,
}
PIPELINE_STAGES = {"synth", "tissue", "rasterize", "refine", "tile", "eval", "compare",
                   "leaderboard"}
# the README shows every subcommand; the pipeline runs all but ensemble and coteach, and the
# diff harness runs those two besides the pipeline, with synth, tissue, tile and scoring
# (eval, leaderboard, compare) cases of its own
SUBCOMMANDS = {
    "README.md": PIPELINE_STAGES | {"ensemble", "coteach"},
    "full_pipeline.sh": PIPELINE_STAGES,
    "pipeline_diff.sh": {"synth", "tissue", "tile", "eval", "leaderboard", "compare", "coteach",
                         "ensemble"},
}


@pytest.mark.parametrize("doc", DOCUMENTED)
def test_documented_commands_parse(doc):
    commands = _commands(DOCUMENTED[doc]())
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc}: slidebench {shlex.join(argv)} does not parse")
    assert {argv[0] for argv in commands} == SUBCOMMANDS[doc]
