"""The README's "Library use" Python blocks run as written, in order and in
one namespace, on a default synthetic capture named capture.csv."""
import re
from pathlib import Path

from flowsieve.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_use_blocks_run(tmp_path, monkeypatch):
    blocks = _library_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "capture.csv"]) == 0
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # both blocks train on the same partitions with the same configuration
    assert namespace["table"].tobytes() == namespace["verdicts"].tobytes()
