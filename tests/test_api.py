"""The package's public surface: no export hides a submodule, every
export is reached by the library itself or the README, and
``verify`` reaches every exported function but a declared few."""

import ast
import pkgutil
import re
import sys
import types
from importlib import import_module
from pathlib import Path

import diatomic
from diatomic import verify

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
    readme = (ROOT / "README.md").read_text()
    exported = sorted(
        name for name, value in vars(diatomic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    uncalled = [
        name for name in exported
        if not any(
            re.search(rf"\b{name}\b", text)
            for text in [readme, *(cut.get(name, source) for source, cut in library)]
        )
    ]
    assert uncalled == []


#: Exported functions that no ``verify`` check calls, each with its one
#: caller outside the library's identities.
UNVERIFIED = {
    "bound_report": "README.md",
    "factor_count": "README.md",
    "is_standard": "README.md",
    "plus_suffix": "README.md",
    "standard_by_coefficients": "README.md",
    "stern_via_zeta": "src/diatomic/cli.py",
    "subword_binomial": "README.md",
    "tree_node": "src/diatomic/cli.py",
    "word_of": "README.md",
    "zeta": "README.md",
}


def test_verify_reaches_every_export_but_the_declared_few():
    functions = {
        value.__code__: name for name, value in vars(diatomic).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
    }
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in functions:
            called.add(functions[frame.f_code])

    sys.setprofile(profile)
    try:
        results = verify.run_checks(6, 64)
    finally:
        sys.setprofile(None)
    assert all(result.ok for result in results)
    assert sorted(set(functions.values()) - called) == sorted(UNVERIFIED)
    for name, caller in UNVERIFIED.items():
        assert re.search(rf"\b{name}\b", (ROOT / caller).read_text()), (name, caller)
