"""The README's Python API example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"## Python API\n.*?```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "challenge" / "truth_table.csv").is_file()
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
