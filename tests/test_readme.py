"""The README's python snippets run, in order and in one namespace, from the
repository root, as a reader would paste them."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
