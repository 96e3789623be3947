"""Module boundaries: no module of the package imports another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "diffsets"


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found
