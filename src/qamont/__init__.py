"""Exact classification of quasi-alternating Montesinos links.

The package decides quasi-alternating status from strict inequalities on
the standard-form parameters, and independently verifies every verdict by
running the rational-singularity computation sequence on the associated
negative definite plumbing and by exhaustively searching for a lattice
embedding with surjective transpose.  All arithmetic is exact: rationals
are ``fractions.Fraction`` and matrices are arbitrary-precision integers.
"""

from .cfrac import cf_expand
from .classifier import (Branch, Evidence, Reason, Status, Verdict, classify,
                         enumerate_family, explain, render_explain, verify)
from .errors import (InternalError, NotNegativeDefiniteError, ParseError,
                     StepLimitError)
from .lattice import (Embedding, ObstructionResult, embeddings_by_rank,
                      enumerate_embeddings, gram_matches, gram_matrix,
                      qa_lattice_obstruction, transpose_surjective)
from .laufer import LauferResult, LauferVerdict, laufer_run
from .montesinos import (MontesinosLink, StandardForm, canonical_form,
                         determinant, epsilon, format_link, parse_link,
                         reflect, slide, to_negative_form, to_standard_form)
from .plumbing import (PlumbingGraph, adjacency_matrix, build_graph,
                       format_graph, oriented_graph, parse_graph)

__version__ = "0.1.0"

__all__ = [
    "cf_expand",
    "MontesinosLink", "StandardForm", "parse_link", "format_link",
    "to_standard_form", "reflect", "epsilon", "determinant",
    "to_negative_form", "canonical_form", "slide",
    "PlumbingGraph", "build_graph", "oriented_graph", "adjacency_matrix",
    "parse_graph", "format_graph",
    "LauferResult", "LauferVerdict", "laufer_run",
    "Embedding", "ObstructionResult", "enumerate_embeddings", "embeddings_by_rank",
    "gram_matrix", "gram_matches", "transpose_surjective", "qa_lattice_obstruction",
    "Status", "Reason", "Branch", "Verdict", "Evidence",
    "classify", "verify", "enumerate_family", "explain", "render_explain",
    "ParseError", "NotNegativeDefiniteError", "InternalError", "StepLimitError",
    "__version__",
]
