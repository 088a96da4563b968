"""Every exported name resolves and has a caller in the program or the
benchmark, so a deleted function cannot linger in an export list, and the
test-only oracles do not drift back into the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qamont
from qamont.plumbing import PlumbingGraph

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
                  "is_negative_definite", "Embedding", "mat_vec",
                  "is_negative_definite_matrix", "definite_det", "_sorted_star", "definite",
                  "tangle_alpha_beta",
                  # the unguarded private twin of each guarded entry
                  *("_" + name for name in ("laufer_run", "embeddings_by_rank",
                                            "qa_lattice_obstruction", "definite_det"))]


@pytest.mark.parametrize("module", ["qamont", "qamont.lattice", "qamont.errors",
                                    "qamont.cfrac", "qamont.intmat", "qamont.plumbing",
                                    "qamont.laufer", "qamont.montesinos",
                                    "qamont.classifier"])
def test_paper_lemma_checks_stay_in_the_tests(module):
    # No program path runs them.  The paper-lemma checks live in
    # tests/paper_lemmas.py and the Fraction, determinant, definiteness and
    # mat_vec references in tests/references.py.  is_lspace was deleted in
    # favour of verify's Laufer branch; is_negative_definite, definite_det
    # and the private twins in favour of intmat.Definite and
    # PlumbingGraph.definite_form; intmat.definite in favour of the Definite
    # constructor, which freezes its input itself; Embedding in favour of
    # the intmat.Matrix that the lattice functions take and return;
    # tangle_alpha_beta in favour of montesinos._reduced_pair, the one
    # tangle reducer.
    namespace = importlib.import_module(module)
    assert [name for name in MOVED_TO_TESTS if hasattr(namespace, name)] == []


# The integer rule: a tangle's (alpha, beta) is derived once, by
# _tangle_pair from an int or a Fraction; the other reader of a Fraction's
# parts is cf_expand's Euclid.  epsilon is printed from the integers N and
# A, by Verdict.epsilon_text.
FRACTION_PART_READERS = {("montesinos", "_tangle_pair"), ("cfrac", "cf_expand")}


def attribute_reads(path, attrs):
    """(enclosing function, line) of each read of an attribute named in
    ``attrs`` in a module; the function is None at module level."""
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Attribute) and node.attr in attrs:
            reads.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return reads


def test_only_the_named_functions_read_fraction_parts():
    reads = [(path.stem, function, line) for path in sorted(PACKAGE.glob("*.py"))
             for function, line in attribute_reads(path, ("numerator", "denominator"))]
    assert ("montesinos", "_tangle_pair") in {(m, f) for m, f, _ in reads}
    offenders = [f"{module}.{function}:{line}" for module, function, line in reads
                 if (module, function) not in FRACTION_PART_READERS]
    assert offenders == []


# Where a Fraction is built: only where a caller reads a value, a link's
# tangles and the public eps of a link.  parse_link, the standard-form
# rewrites, canonical_form, slide, the family walk and classify and verify
# build none, so no record builds one.
FRACTION_BUILDERS = {("montesinos", "tangles"), ("montesinos", "epsilon")}


def fraction_builds(source):
    """(enclosing function, line) of each site that builds a Fraction: a
    call of ``Fraction`` or of one of its attributes, or ``Fraction``
    passed to a call other than ``isinstance`` (``map(Fraction, ...)``)."""
    def is_fraction(node):
        return isinstance(node, ast.Name) and node.id == "Fraction"

    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if (is_fraction(func)
                    or isinstance(func, ast.Attribute) and is_fraction(func.value)
                    or not (isinstance(func, ast.Name) and func.id == "isinstance")
                    and any(map(is_fraction, node.args))):
                sites.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_fraction_builds_are_found():
    source = ("def a(t):\n"
              "    return isinstance(t, Fraction) and t\n"
              "def b(x) -> Fraction:\n"
              "    return Fraction(x)\n"
              "def c(pairs):\n"
              "    return tuple(starmap(Fraction, pairs)), Fraction.from_float(1)\n"
              "y = Fraction(1, 2)\n")
    assert fraction_builds(source) == [("b", 4), ("c", 6), ("c", 6), (None, 7)]


def test_only_the_named_functions_build_fractions():
    builders = {(path.stem, function) for path in sorted(PACKAGE.glob("*.py"))
                for function, _ in fraction_builds(path.read_text())}
    assert builders == FRACTION_BUILDERS


def test_only_montesinos_and_cfrac_import_fractions():
    importers = {path.stem for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                 or isinstance(node, ast.Import)
                 and any(alias.name == "fractions" for alias in node.names)}
    assert importers == {"montesinos", "cfrac"}


def test_one_trusted_constructor():
    # A graph is built only by the validating PlumbingGraph(...).  The one
    # constructor that checks nothing is StandardForm._from_validated, kept
    # for the family walk, the two standard-form rewrites and the sort of
    # canonical_form, which meet its premise by construction.
    assert not hasattr(PlumbingGraph, "_from_validated")
    definitions = [(path.stem, cls.name) for path in sorted(PACKAGE.glob("*.py"))
                   for cls in ast.walk(ast.parse(path.read_text()))
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_from_validated"]
    assert definitions == [("montesinos", "StandardForm")]
    callers = {(path.stem, function) for path in sorted(PACKAGE.glob("*.py"))
               for function, _ in attribute_reads(path, ("_from_validated",))}
    assert callers == {("classifier", "_family"), ("montesinos", "to_standard_form"),
                       ("montesinos", "reflect"), ("montesinos", "canonical_form")}


# All arithmetic is exact: the package holds no float or complex literal, no
# true division, no call of float or round, and of math only integer
# functions.
MATH_NAMES = {"gcd", "prod", "isqrt"}


def float_sites(source):
    """(line, what) of each construct in a module's source that yields a
    float, in line order."""
    tree = ast.parse(source)
    math_aliases = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    for alias in node.names if alias.name == "math"}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "true division"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            sites.append((node.lineno, f"call of {node.func.id}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            sites.extend((node.lineno, f"math.{alias.name}") for alias in node.names
                         if alias.name not in MATH_NAMES)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_aliases and node.attr not in MATH_NAMES):
            sites.append((node.lineno, f"math.{node.attr}"))
    return sorted(sites)


def test_float_sites_are_found():
    source = ("from math import gcd, log\n"
              "import math as m\n"
              "x = 1.5 // 2\n"
              "x /= 2\n"
              "y = float(x) + round(x) + m.sqrt(2) + m.isqrt(4) + 2j + x / 2\n")
    assert float_sites(source) == [
        (1, "math.log"), (3, "literal 1.5"), (4, "true division"),
        (5, "call of float"), (5, "call of round"), (5, "literal 2j"),
        (5, "math.sqrt"), (5, "true division")]


def test_the_package_computes_without_floats():
    offenders = [f"{path.name}:{line}: {what}" for path in sorted(PACKAGE.glob("*.py"))
                 for line, what in float_sites(path.read_text())]
    assert offenders == []


# Every name a module imports is read in it, so an import that a change
# leaves behind does not stay.  ``__init__.py`` imports its names to export
# them, and ``from __future__ import annotations`` binds no name.


def unused_imports(source):
    """(line, name) of each name the source imports and never reads, in
    line order."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused.extend((node.lineno, name) for name in bound if name not in read)
    return sorted(unused)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as j\n"
              "from .intmat import Definite, Matrix, definite as guard\n"
              "from .errors import NotNegativeDefiniteError\n"
              "def f(m: Matrix) -> int:\n"
              "    NotNegativeDefiniteError = os.path.join('Definite')\n"
              "    return guard(m)\n")
    assert unused_imports(source) == [(3, "j"), (4, "Definite"),
                                      (5, "NotNegativeDefiniteError")]


def test_every_import_is_read():
    unused = [f"{path.name}:{line}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for line, name in unused_imports(path.read_text())]
    assert unused == []
