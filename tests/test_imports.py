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


def _module_level_privates(tree):
    """Private names bound at module level: defs, classes and plain assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_no_unreferenced_private_names():
    """Every module-level private name is read somewhere in the package, so dead helpers go."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{name}:{priv}" for name, tree in trees.items()
            for priv in _module_level_privates(tree) if priv not in read]
    assert not dead, dead


def test_only_intset_knows_the_bit_layout():
    """Outside intset no module reads IntSet.bits or builds an IntSet from raw bits.

    The report's ``bits_hex`` is the one reader: it serializes the layout.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "intset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "bits" and path.name != "report.py":
                found.append(f"{path.name}:{node.lineno} reads .bits")
            elif isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "IntSet":
                    found.append(f"{path.name}:{node.lineno} calls IntSet(...)")
    assert not found, found
