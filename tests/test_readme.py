"""README.md's library example runs as written, so API drift fails here first."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    mean, std = map(float, capsys.readouterr().out.split())
    assert 0.0 <= mean <= 1.0 and std >= 0.0
