"""Every exported name resolves and has a caller in the program or the
benchmark, so a deleted function cannot linger in an export list, and the
test-only oracles do not drift back into the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qamont

MODULES = sorted(info.name for info in pkgutil.iter_modules(qamont.__path__))
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qamont"
PERFBENCH = ROOT / "perfbench"


def test_every_module_is_checked():
    expected = {"cfrac", "classifier", "cli", "errors", "intmat", "lattice",
                "laufer", "montesinos", "plumbing"}
    assert expected <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"qamont.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"duplicates in qamont.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"qamont.{name}.__all__ names {missing}"


def test_package_exports_import():
    assert len(qamont.__all__) == len(set(qamont.__all__))
    namespace = {}
    exec("from qamont import *", namespace)  # raises on a name that is missing
    assert set(qamont.__all__) <= set(namespace)


def referenced_names(path, with_strings):
    """Names a file reads (``Name``, ``Attribute``) or imports by name
    (``ImportFrom``), and with ``with_strings`` its string constants too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_caller():
    # The tracer names what it wraps as strings, so the benchmark's string
    # constants count; the package's own __all__ lists do not.
    callers = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            callers |= referenced_names(path, with_strings=False)
    for path in PERFBENCH.glob("*.py"):
        callers |= referenced_names(path, with_strings=True)
    exported = set(qamont.__all__).union(
        *(getattr(importlib.import_module(f"qamont.{name}"), "__all__", [])
          for name in MODULES))
    uncalled = sorted(name for name in exported
                      if not name.startswith("__") and name not in callers)
    assert uncalled == [], f"exported names no program or benchmark path uses: {uncalled}"


MOVED_TO_TESTS = ["minor_check", "support_set", "truncate_legs", "rigidity_check",
                  "TruncationNotFoundError", "check_coeffs", "cf_eval", "prefix_r",
                  "seifert_euler_number", "det", "h1_order", "is_lspace",
                  "is_negative_definite"]


@pytest.mark.parametrize("module", ["qamont", "qamont.lattice", "qamont.errors",
                                    "qamont.cfrac", "qamont.intmat", "qamont.plumbing",
                                    "qamont.laufer"])
def test_paper_lemma_checks_stay_in_the_tests(module):
    # No program path runs them.  The paper-lemma checks live in
    # tests/paper_lemmas.py and the Fraction and determinant references in
    # tests/references.py; is_lspace and is_negative_definite were deleted
    # in favour of verify's Laufer branch and definite_det.
    namespace = importlib.import_module(module)
    assert [name for name in MOVED_TO_TESTS if hasattr(namespace, name)] == []
