"""Module boundaries: what each module imports, reads and makes public."""

import ast
import importlib
import inspect
from collections import defaultdict
from pathlib import Path

import diffsets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diffsets"

# the modules whose __all__ the package re-exports; cli, par and prng stay out
LIBRARY = ("bohr", "cover", "delta", "density", "embed", "errors", "extract", "gen",
           "intset", "report")


def _modules():
    """The package's module files, so no test here can pass on an empty directory."""
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "intset.py" in paths, f"no package modules under {SRC}"
    return paths


def test_no_private_cross_module_imports():
    found = []
    for path in _modules():
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


def _names_read(trees):
    """Every name loaded as a bare name or as an attribute in trees, outside a def of that
    name: a function that only calls itself is not read."""
    read = set()

    def visit(node, defs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = defs | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defs:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defs)

    for tree in trees:
        visit(tree, frozenset())
    return read


def test_no_unreferenced_private_names():
    """Every module-level private name is read somewhere in the package, so dead helpers go."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in _modules()}
    read = _names_read(trees.values())
    dead = [f"{name}:{priv}" for name, tree in trees.items()
            for priv in _module_level_privates(tree) if priv not in read]
    assert not dead, dead


def test_only_intset_knows_the_bit_layout():
    """Outside intset no module reads IntSet.bits or builds an IntSet from raw bits.

    The report's ``bits_hex`` is the one reader: it serializes the layout.
    """
    found = []
    for path in _modules():
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


def test_package_exports_exactly_the_library_all_lists():
    """diffsets' public names are the union of the library modules' __all__, each declared once."""
    assert set(LIBRARY) <= {path.stem for path in _modules()}
    declared = [name for mod in LIBRARY for name in importlib.import_module(f"diffsets.{mod}").__all__]
    assert len(declared) == len(set(declared)), "a name is public in two modules"
    public = {name for name, value in vars(diffsets).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(declared)


def test_every_public_name_is_read():
    """Every name in a library module's __all__ is read in src/, tests/ or bench/, so dead API goes."""
    read = _names_read(ast.parse(path.read_text(), filename=str(path))
                       for d in ("src", "tests", "bench") for path in (ROOT / d).rglob("*.py"))
    unread = [f"{mod}.{name}" for mod in LIBRARY
              for name in importlib.import_module(f"diffsets.{mod}").__all__ if name not in read]
    assert not unread, unread


def _outside_unit_tests():
    """The parsed files of src/, bench/ and the acceptance criteria."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def test_every_public_function_is_reached_outside_unit_tests():
    """Every public function of a library module is read in src/ outside its own def, in
    bench/ or in the acceptance criteria: one read only by unit tests serves no subcommand,
    criterion or benchmark, so it goes."""
    read = _names_read(_outside_unit_tests())
    modules = {mod: importlib.import_module(f"diffsets.{mod}") for mod in LIBRARY}
    unreached = [f"{mod}.{name}" for mod, module in modules.items() for name in module.__all__
                 if inspect.isfunction(getattr(module, name)) and name not in read]
    assert not unreached, unreached


ALL = object()  # passed by a call that spreads *args or **kwargs
POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _arguments_passed(trees):
    """{name: what the calls of a callable named name pass}, over every call in trees outside
    a def of that name: the positions and keyword names given, or ALL when one call spreads
    *args or **kwargs, which may pass any parameter."""
    passed = defaultdict(set)

    def visit(node, defs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = defs | {node.name}
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is not None and name not in defs:
                if (any(isinstance(arg, ast.Starred) for arg in node.args)
                        or any(kw.arg is None for kw in node.keywords)):
                    passed[name].add(ALL)
                passed[name].update(range(len(node.args)))
                passed[name].update(kw.arg for kw in node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, defs)

    for tree in trees:
        visit(tree, frozenset())
    return passed


def test_every_option_is_set_outside_unit_tests():
    """Every defaulted parameter of a public library function is passed, by position or by
    keyword, by some call in src/, bench/ or the acceptance criteria: an option only unit
    tests set serves no subcommand, criterion or benchmark, so it goes."""
    passed = _arguments_passed(_outside_unit_tests())
    unset = []
    for mod in LIBRARY:
        module = importlib.import_module(f"diffsets.{mod}")
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            got = passed[name]
            for i, p in enumerate(inspect.signature(fn).parameters.values()):
                if (p.default is not p.empty and ALL not in got and p.name not in got
                        and not (p.kind in POSITIONAL and i in got)):
                    unset.append(f"{mod}.{name}({p.name})")
    assert not unset, unset


def _self_check_messages(tree):
    """The literal text of each VerificationError(...) message; an f-string's first literal."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "VerificationError"
                and node.args):
            msg = node.args[0]
            if isinstance(msg, ast.JoinedStr):
                msg = next(v for v in msg.values if isinstance(v, ast.Constant))
            yield node.lineno, msg.value


def test_every_self_check_message_is_named_by_a_test():
    """A self-check no test names has never been seen to fire: reach it or delete it."""
    tests = "".join(path.read_text() for path in (ROOT / "tests").glob("*.py"))
    unnamed = [f"{path.name}:{line} {text!r}" for path in _modules()
               for line, text in _self_check_messages(ast.parse(path.read_text()))
               if text not in tests]
    assert not unnamed, unnamed
