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
                  "is_negative_definite", "Embedding", "mat_vec"]


@pytest.mark.parametrize("module", ["qamont", "qamont.lattice", "qamont.errors",
                                    "qamont.cfrac", "qamont.intmat", "qamont.plumbing",
                                    "qamont.laufer"])
def test_paper_lemma_checks_stay_in_the_tests(module):
    # No program path runs them.  The paper-lemma checks live in
    # tests/paper_lemmas.py and the Fraction, determinant and mat_vec
    # references in tests/references.py; is_lspace and is_negative_definite
    # were deleted in favour of verify's Laufer branch and definite_det, and
    # Embedding in favour of the intmat.Matrix that the lattice functions
    # take and return.
    namespace = importlib.import_module(module)
    assert [name for name in MOVED_TO_TESTS if hasattr(namespace, name)] == []


# The integer rule: a tangle's (alpha, beta) is derived once, by
# tangle_alpha_beta; the other readers of a Fraction's parts are cf_expand's
# Euclid and the two places that print epsilon as a/b.
FRACTION_PART_READERS = {("montesinos", "tangle_alpha_beta"), ("cfrac", "cf_expand"),
                         ("cli", "_build_record"), ("classifier", "explain")}


def fraction_part_reads(path):
    """(enclosing function, line) of each ``.numerator`` or ``.denominator``
    read in a module; the function is None at module level."""
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
            reads.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return reads


def test_only_the_named_functions_read_fraction_parts():
    reads = [(path.stem, function, line) for path in sorted(PACKAGE.glob("*.py"))
             for function, line in fraction_part_reads(path)]
    assert ("montesinos", "tangle_alpha_beta") in {(m, f) for m, f, _ in reads}
    offenders = [f"{module}.{function}:{line}" for module, function, line in reads
                 if (module, function) not in FRACTION_PART_READERS]
    assert offenders == []


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


# The trusted cores run on a form that is already guarded, so each is reached
# only from its public wrapper, which guards it, from ``verify``, which guards
# the oriented plumbing once per link, or from ``cmd_embed``, which guards the
# graph it read.  A core's own module may wire it at module level (a cache, its
# ``cache_info``).  Core name -> (defining module, the functions that may read
# it).
TRUSTED_CORES = {
    "_laufer_run": ("laufer", {"laufer_run", "verify"}),
    "_qa_lattice_obstruction": ("lattice", {"qa_lattice_obstruction", "verify"}),
    "_embeddings_by_rank": ("lattice", {"embeddings_by_rank", "cmd_embed"}),
    "_cached_search": ("lattice", {"_qa_lattice_obstruction"}),
    "_obstruction_search": ("lattice", set()),
}


def core_reads(source):
    """(line, core, enclosing function) of each read of a trusted core's
    name, as a name or as an attribute, in line order; the function is None
    at module level."""
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        elif isinstance(node, ast.Name) and node.id in TRUSTED_CORES:
            reads.append((node.lineno, node.id, function))
        elif isinstance(node, ast.Attribute) and node.attr in TRUSTED_CORES:
            reads.append((node.lineno, node.attr, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(reads, key=lambda read: read[0])


def misplaced_core_reads(module, source):
    """The reads of ``core_reads`` that no entry of ``TRUSTED_CORES`` allows."""
    return [(line, core, function) for line, core, function in core_reads(source)
            if not (function in TRUSTED_CORES[core][1]
                    or function is None and module == TRUSTED_CORES[core][0])]


def test_misplaced_core_reads_are_found():
    source = ("from .laufer import _laufer_run\n"
              "def verify(q):\n"
              "    return _laufer_run(q)\n"
              "def explain(q):\n"
              "    return _laufer_run(q)\n"
              "def helper(lattice):\n"
              "    return lattice._embeddings_by_rank\n"
              "run = _laufer_run\n"
              "key = lambda g: _cached_search(g, 1)\n")
    assert misplaced_core_reads("classifier", source) == [
        (5, "_laufer_run", "explain"), (7, "_embeddings_by_rank", "helper"),
        (8, "_laufer_run", None), (9, "_cached_search", "<lambda>")]
    assert misplaced_core_reads("laufer", "run = _laufer_run\n") == []


def test_trusted_cores_are_read_only_where_allowed():
    reads = set()
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        reads |= {(core, function) for _, core, function in core_reads(source)}
        offenders += [f"{path.name}:{line}: {core} in {function}"
                      for line, core, function in misplaced_core_reads(path.stem, source)]
    assert offenders == []
    # every allowed caller still reads its core, so no rename empties the check
    assert {(core, function) for core, (_, functions) in TRUSTED_CORES.items()
            for function in functions} <= reads
