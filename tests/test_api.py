"""The package's public surface: no export hides a submodule, and every
export is reached by the library itself, a demo or the README."""

import ast
import pkgutil
import re
import types
from importlib import import_module
from pathlib import Path

import diatomic

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(diatomic.__file__).resolve().parent


def without_definitions(source):
    """name -> ``source`` with that name's top-level def or class cut out,
    for every name the module defines so."""
    lines = source.splitlines()
    cut = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            cut[node.name] = "\n".join(lines[: start - 1] + lines[node.end_lineno :])
    return cut


def test_no_export_shadows_a_submodule():
    for info in pkgutil.iter_modules([str(SRC)]):
        if info.name != "__main__":
            module = import_module(f"diatomic.{info.name}")
            assert getattr(diatomic, info.name) is module, info.name
    assert diatomic.stern.ZETA_ARGUMENT_CAP > 0


def test_every_export_has_a_caller():
    # the package's import list is not a caller, nor is a name's own body
    library = [
        (source, without_definitions(source))
        for source in (p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
    ]
    shown = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    shown.append((ROOT / "README.md").read_text())
    exported = sorted(
        name for name, value in vars(diatomic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    uncalled = [
        name for name in exported
        if not any(
            re.search(rf"\b{name}\b", text)
            for text in [*shown, *(cut.get(name, source) for source, cut in library)]
        )
    ]
    assert uncalled == []
