"""README's library sketch runs as written, so no signature change can leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "README should hold exactly one python block, the library sketch"
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "3/8\n"
