"""The error model: four classes in red.errors, and every raise in src/red names one of them.

The command tells failures apart only by exit code, so red.errors keeps one
class per distinction a caller makes, and an error raised anywhere in the
package is a RedError.  A bare re-raise (`raise` with no expression) is
not checked: it passes on an error some handler already caught.
"""

import ast
import inspect
from pathlib import Path

import red.errors
from red.errors import RedError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "red"


def raised_names(tree: ast.AST) -> list:
    """(line, name) of every class a raise statement names, as `raise X(...)` or `raise X`."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            names.append((node.lineno, name))
    return names


def foreign_raises(sources: dict, allowed: set) -> list:
    return [f"{name}:{line} raises {raised}" for name, text in sorted(sources.items())
            for line, raised in raised_names(ast.parse(text, name)) if raised not in allowed]


def error_classes() -> dict:
    return {name: cls for name, cls in inspect.getmembers(red.errors, inspect.isclass)
            if cls.__module__ == red.errors.__name__}


def test_errors_defines_exactly_four_red_errors():
    classes = error_classes()
    assert sorted(classes) == ["ConfigError", "NumericalAbort", "RedError", "StateError"]
    assert all(issubclass(cls, RedError) for cls in classes.values())


def test_every_raise_in_the_package_names_a_red_error():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(raised_names(ast.parse(text))) for text in sources.values()) > 80
    assert foreign_raises(sources, set(error_classes())) == []


def test_a_builtin_raise_is_foreign_and_a_bare_reraise_is_not_checked():
    text = ("def f(x):\n    if x:\n        raise ValueError('no')\n    try:\n        g()\n"
            "    except KeyError:\n        raise\n    raise errors.StateError\n")
    assert foreign_raises({"m.py": text}, {"StateError"}) == ["m.py:3 raises ValueError"]
