"""Star-shaped plumbing graphs and exact definiteness tests.

The double branched cover of a Montesinos link bounds the plumbing on a
star graph; its intersection form is the weighted adjacency matrix.
Definiteness is decided two independent ways that must agree: a Seifert
sign test on integer continuants and exact principal-minor alternation,
whose last minor is det Q.
Run: python3 demos/03_plumbing_graphs.py
"""

from qamont import (PlumbingGraph, adjacency_matrix, build_graph, determinant,
                    format_graph, parse_link, to_negative_form, to_standard_form)
from qamont.intmat import negative_definite_det
from qamont.plumbing import definite_det, negative_definite_by_sign

link = parse_link("M(1; 2, 2, 2)")
graph = build_graph(to_negative_form(to_standard_form(link)))
print(f"{link} plumbs into:")
print(format_graph(graph))
print("adjacency matrix:")
for row in adjacency_matrix(graph):
    print("  " + " ".join(f"{v:3d}" for v in row))

print(f"Seifert sign test (Euler number < 0): {negative_definite_by_sign(graph)}")
print(f"minor test (last minor, or None):     {negative_definite_det(adjacency_matrix(graph))}")
print(f"|det Q| = {abs(definite_det(graph))} equals det(link) = {determinant(link)}")

print()
print("An indefinite star for contrast (central weight 0):")
flat = PlumbingGraph(0, ((-2,), (-2,), (-2,), (-2,)))
print(format_graph(flat))
print(f"Seifert sign test (Euler number < 0): {negative_definite_by_sign(flat)}")
print(f"minor test (last minor, or None):     {negative_definite_det(adjacency_matrix(flat))}")
