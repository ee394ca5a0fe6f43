"""The README's documented API: its Library example runs as written, and
every name the package __init__ imports resolves on the package."""

import ast
import re
from pathlib import Path

import kcdistill

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})


def test_every_package_import_resolves():
    tree = ast.parse(Path(kcdistill.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "run" in names
    assert [name for name in names if not hasattr(kcdistill, name)] == []
