"""Every exported name resolves, so a deleted function cannot linger in an
export list, and the test-only oracles do not drift back into the package."""

import importlib
import pkgutil

import pytest

import qamont

MODULES = sorted(info.name for info in pkgutil.iter_modules(qamont.__path__))


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


MOVED_TO_TESTS = ["minor_check", "support_set", "truncate_legs", "rigidity_check",
                  "TruncationNotFoundError"]


@pytest.mark.parametrize("module", ["qamont", "qamont.lattice", "qamont.errors"])
def test_paper_lemma_checks_stay_in_the_tests(module):
    # They live in tests/paper_lemmas.py: no program path runs them.
    namespace = importlib.import_module(module)
    assert [name for name in MOVED_TO_TESTS if hasattr(namespace, name)] == []
