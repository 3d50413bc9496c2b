"""The package's public surface: no export hides a submodule, every
export is read by library code or a README doctest line, ``verify``
reaches every exported function but a declared few, and each guard of
a precondition refuses with its own message."""

import ast
import pkgutil
import sys
import types
from collections import defaultdict
from importlib import import_module
from pathlib import Path

import pytest

import diatomic
from diatomic import verify
from diatomic.christoffel import standard_by_coefficients
from diatomic.distribution import counts_for_length
from diatomic.fracs import Frac
from diatomic.stern import (
    reverse_bits,
    stern_factor_identity,
    stern_via_christoffel,
    stern_via_subwords,
)
from diatomic.words import decode

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
    assert diatomic.stern.MARKED_OCCURRENCE_CAP > 0


def test_every_export_has_a_caller():
    exported = sorted(
        name for name, value in vars(diatomic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    found = callers()
    assert [name for name in exported if not found[name]] == []


#: Exported functions that no ``verify`` check calls, each with its one
#: caller outside the library's identities.
UNVERIFIED = {"bound_report": "README.md"}


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


#: Guards that no other test reaches: a call, and the message of the
#: ValueError it raises, or the value it gives.
GUARDS = {
    "standard_by_coefficients": (
        lambda: standard_by_coefficients((), -1), ValueError("count must be non-negative")),
    "stern_via_christoffel": (
        lambda: stern_via_christoffel(-1),
        ValueError("Stern's sequence is indexed by non-negative integers")),
    "stern_via_subwords": (
        lambda: stern_via_subwords(-1),
        ValueError("Stern's sequence is indexed by non-negative integers")),
    "reverse_bits": (
        lambda: reverse_bits(-1), ValueError("negative integers have no binary expansion")),
    "stern_factor_identity": (
        lambda: stern_factor_identity(-1),
        ValueError("Stern's sequence is indexed by non-negative integers")),
    "counts_for_length": (
        lambda: counts_for_length(1),
        ValueError("proper Christoffel words have length at least 2")),
    "decode": (
        lambda: decode(-1), ValueError("negative integers have no binary word expansion")),
    # the sign stays on the numerator
    "Frac.inverse": (lambda: Frac(-3, 2).inverse, Frac(-2, 3)),
}


@pytest.mark.parametrize("call, expected", GUARDS.values(), ids=GUARDS)
def test_each_guard_refuses_with_its_message(call, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == str(expected)
    else:
        assert call() == expected
