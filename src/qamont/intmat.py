"""Dense exact integer matrices.

Matrices are tuples of row tuples of Python ints, so every computation is
arbitrary precision.

A ``Definite`` is a negative definite ``Matrix`` that carries its
determinant.  The library evaluates the paper's obstructions only on the
plumbing of a Montesinos link's double branched cover, so the one way to
get a ``Definite`` is that graph's guard, ``PlumbingGraph.definite_form``:
it decides definiteness and det q by ``plumbing.tree_det``, one O(k)
elimination along the tree, and builds the form through the trusted
constructor ``Definite._from_validated``.  ``Definite(m)`` raises
``TypeError``, so no matrix reaches a function that needs a negative
definite form without that test.  The tests hold ``tree_det`` to a dense
fraction-free (Bareiss) elimination, ``tests/references.py``.
"""

from __future__ import annotations

from itertools import repeat
from operator import index
from typing import Iterable

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "Matrix",
    "freeze",
    "Definite",
]


def freeze(rows: Iterable[Iterable[int]]) -> Matrix:
    try:
        m = tuple(map(tuple, map(map, repeat(index), rows)))
    except TypeError as exc:
        raise ValueError(f"matrix entries must be integers: {exc}") from None
    if len(set(map(len, m))) > 1:
        raise ValueError("rows have unequal lengths")
    return m


class Definite(tuple):
    """A negative definite ``Matrix`` and its determinant ``det``.

    Its one way in is ``_from_validated``, taken by a graph's guard
    ``PlumbingGraph.definite_form`` after ``plumbing.tree_det``, so every
    ``Definite`` has passed that test, and the functions that require a
    negative definite form (``laufer_run``, ``all_embeddings``) take one as
    it is and refuse anything else.  ``Definite(m)`` raises ``TypeError``.
    Pickling and copying rebuild a form through ``_from_validated`` with its
    ``det``, testing nothing again."""

    det: int

    def __new__(cls, *args, **kwargs):
        raise TypeError("a Definite is read off a graph: use PlumbingGraph.definite_form")

    @classmethod
    def _from_validated(cls, m: Matrix, det: int) -> Definite:
        """m, a ``Matrix`` known to be negative definite, with its
        determinant det: nothing is frozen or tested again.  Its one caller
        is ``PlumbingGraph.definite_form``, which has run
        ``plumbing.tree_det`` on the graph and then lays q out with
        ``plumbing.adjacency_matrix`` as a ``Matrix`` of the graph's
        validated ints."""
        form = super().__new__(cls, m)
        form.det = det
        return form

    def __reduce__(self):
        return Definite._from_validated, (tuple(self), self.det)
