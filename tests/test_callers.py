"""Every top-level function and class of src/red has a caller outside the tests.

A reference is a Name or Attribute node in src/red, scripts or perfbench,
or a part of a dot-split string constant in perfbench, whose LAYERS table
names the layers it traces as strings.  A definition is not a reference to
itself, and neither is an import.  Every method and property of a src/red
class is read as `.name` in src/red, scripts or perfbench: a public one
outside its own class body, a private one (leading underscore) outside its
own definition.  This is the search by name; whether a caller passes values
at which a code path does any work is not checked.  Every LAYERS entry must
also resolve on its `red` module, and every one but those in LAYERS_ONLY must
have a caller in src/red or scripts.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "red"
# LAYERS entries that no code path of red or its scripts calls: one-line views
# kept only because perfbench traces them by name
LAYERS_ONLY = {("geometry", "ensemble_hamiltonian_h0"), ("quantum", "from_wavefunction")}


def parsed(directory: Path) -> list:
    return [ast.parse(path.read_text(), str(path)) for path in sorted(directory.rglob("*.py"))]


def top_level_definitions(trees: list) -> set:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for tree in trees for node in tree.body if isinstance(node, kinds)}


def referenced_names(trees: list, strings: bool) -> set:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def unreferenced(package: list, others: list, strings: list) -> list:
    names = (referenced_names(package + others, strings=False)
             | referenced_names(strings, strings=True))
    return sorted(top_level_definitions(package) - names)


def test_every_top_level_name_has_a_non_test_caller():
    package = parsed(PACKAGE)
    assert len(top_level_definitions(package)) > 100
    perfbench = parsed(ROOT / "perfbench")
    assert unreferenced(package, parsed(ROOT / "scripts") + perfbench, perfbench) == []


def test_a_definition_or_an_import_is_no_reference():
    package = [ast.parse("def lone():\n    pass\n\n\ndef used():\n    pass\n\n\n"
                         "def traced():\n    pass\n\n\nclass Kept:\n    pass\n\n\nvalue = used()\n")]
    others = [ast.parse("import red\nfrom red.model import lone\n\nred.Kept()\n")]
    strings = [ast.parse("LAYERS = (('fields', 'traced'),)\n")]
    assert unreferenced(package, others, strings) == ["lone"]


def class_members(trees: list) -> list:
    """(class, definition) of every method and property of a top-level class, dunders aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [(cls, item) for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, kinds) and not (item.name.startswith("__") and item.name.endswith("__"))]


def unread_members(package: list, others: list) -> list:
    reads = [node for tree in package + others for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unread = []
    for cls, member in class_members(package):
        skipped = member if member.name.startswith("_") else cls
        inside = {id(node) for node in ast.walk(skipped)}
        if not any(node.attr == member.name and id(node) not in inside for node in reads):
            unread.append(f"{cls.name}.{member.name}")
    return sorted(unread)


def test_every_method_and_property_is_read_outside_its_class():
    package = parsed(PACKAGE)
    assert len(class_members(package)) > 30
    others = parsed(ROOT / "scripts") + parsed(ROOT / "perfbench")
    assert unread_members(package, others) == []


def test_a_read_inside_its_own_class_is_no_read_of_a_public_member():
    package = [ast.parse(
        "class Kept:\n"
        "    def __init__(self):\n        self.inner()\n\n"
        "    def inner(self):\n        return self._helper()\n\n"
        "    def _helper(self):\n        return 0\n\n"
        "    def _unused(self):\n        return self._unused()\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def outer(self):\n        return self.size\n"
    )]
    others = [ast.parse("from red.model import Kept\n\nKept().outer(Kept().size)\n")]
    assert unread_members(package, others) == ["Kept._unused", "Kept.inner"]


def perfbench_layers() -> tuple:
    """perfbench/child.py's LAYERS, read from its source without importing perfbench."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py defines no LAYERS")


def test_every_traced_layer_resolves_on_its_module():
    # perfbench wraps each (module, attribute path) by name and stops if one is
    # missing, so a renamed or removed layer would fail every traced benchmark run
    layers = perfbench_layers()
    assert len(layers) > 20
    missing = []
    for module_name, path in layers:
        target = importlib.import_module(f"red.{module_name}")
        for part in path.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_only_the_layers_only_entries_lack_a_caller_in_red_or_its_scripts():
    called = referenced_names(parsed(PACKAGE) + parsed(ROOT / "scripts"), strings=False)
    uncalled = {(module, path) for module, path in perfbench_layers()
                if path.split(".")[-1] not in called}
    assert uncalled == LAYERS_ONLY
