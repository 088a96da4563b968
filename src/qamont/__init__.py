"""Exact classification of quasi-alternating Montesinos links.

The package decides quasi-alternating status from strict inequalities on
the standard-form parameters, and independently verifies every verdict by
running the rational-singularity computation sequence on the associated
negative definite plumbing and by exhaustively searching for a lattice
embedding with surjective transpose.  All arithmetic is exact: rationals
are ``fractions.Fraction`` and matrices are arbitrary-precision integers.
"""

from .cfrac import Rational, cf_eval, cf_expand, prefix_r
from .classifier import (Branch, Evidence, Reason, Status, Verdict, classify,
                         enumerate_family, explain, render_explain, verify)
from .errors import (InternalError, NotNegativeDefiniteError, ParseError,
                     StepLimitError, TruncationNotFoundError)
from .lattice import (Embedding, ObstructionResult, embeddings_by_rank,
                      enumerate_embeddings, gram_matches, gram_matrix, minor_check,
                      qa_lattice_obstruction, rigidity_check, support_set,
                      transpose_surjective, truncate_legs)
from .laufer import LauferResult, LauferVerdict, is_lspace, laufer_run
from .montesinos import (MontesinosLink, StandardForm, canonical_form,
                         determinant, epsilon, format_link, parse_link,
                         reflect, slide, to_negative_form, to_standard_form)
from .plumbing import (PlumbingGraph, adjacency_matrix, build_graph,
                       format_graph, h1_order, is_negative_definite,
                       oriented_graph, parse_graph, seifert_euler_number)

__version__ = "0.1.0"

__all__ = [
    "Rational", "cf_expand", "cf_eval", "prefix_r",
    "MontesinosLink", "StandardForm", "parse_link", "format_link",
    "to_standard_form", "reflect", "epsilon", "determinant",
    "to_negative_form", "canonical_form", "slide",
    "PlumbingGraph", "build_graph", "oriented_graph", "adjacency_matrix",
    "is_negative_definite", "h1_order", "parse_graph", "format_graph",
    "seifert_euler_number",
    "LauferResult", "LauferVerdict", "laufer_run", "is_lspace",
    "Embedding", "ObstructionResult", "enumerate_embeddings", "embeddings_by_rank",
    "gram_matrix", "gram_matches", "transpose_surjective", "minor_check",
    "support_set", "truncate_legs", "rigidity_check", "qa_lattice_obstruction",
    "Status", "Reason", "Branch", "Verdict", "Evidence",
    "classify", "verify", "enumerate_family", "explain", "render_explain",
    "ParseError", "NotNegativeDefiniteError", "InternalError",
    "StepLimitError", "TruncationNotFoundError",
    "__version__",
]
