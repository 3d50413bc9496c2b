"""The package's public surface: no export hides a submodule, every
export is read by library code or a README doctest line, and
``verify`` reaches every exported function but a declared few."""

import ast
import pkgutil
import sys
import types
from collections import defaultdict
from importlib import import_module
from pathlib import Path

import diatomic
from diatomic import verify

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(diatomic.__file__).resolve().parent


def read_names(tree):
    """The names and attribute names that ``tree`` reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def callers():
    """name -> the files that call it: README.md when a doctest line reads
    it, and a library module when code outside the name's own top-level
    definition reads it.  Prose and comments call nothing, nor does the
    package's import list."""
    found = defaultdict(set)
    readme = (ROOT / "README.md").read_text().splitlines()
    doctest = "\n".join(line[4:] for line in readme if line.startswith((">>> ", "... ")))
    for name in read_names(ast.parse(doctest)):
        found[name].add("README.md")
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            for top in ast.parse(path.read_text()).body:
                for name in read_names(top) - {getattr(top, "name", None)}:
                    found[name].add(str(path.relative_to(ROOT)))
    return found


def test_no_export_shadows_a_submodule():
    for info in pkgutil.iter_modules([str(SRC)]):
        if info.name != "__main__":
            module = import_module(f"diatomic.{info.name}")
            assert getattr(diatomic, info.name) is module, info.name
    assert diatomic.stern.ZETA_ARGUMENT_CAP > 0


def test_every_export_has_a_caller():
    exported = sorted(
        name for name, value in vars(diatomic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    found = callers()
    assert [name for name in exported if not found[name]] == []


#: Exported functions that no ``verify`` check calls, each with its one
#: caller outside the library's identities.
UNVERIFIED = {
    "bound_report": "README.md",
    "factor_count": "README.md",
    "plus_suffix": "README.md",
    "stern_via_zeta": "src/diatomic/cli.py",
    "subword_binomial": "README.md",
    "tree_node": "src/diatomic/cli.py",
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
    found = callers()
    for name, caller in UNVERIFIED.items():
        assert caller in found[name], (name, caller)
