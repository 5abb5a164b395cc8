"""The README's quick start prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_prints_its_comments(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 2
