"""Star-shaped plumbing graphs and exact definiteness tests.

The double branched cover of a Montesinos link bounds the plumbing on a
star graph; its intersection form is the weighted adjacency matrix.
A graph's definiteness has one rule, the leg-by-leg elimination along the
tree (each leg from its far end toward the centre, O(k), the one the
graph's guard runs), which also gives det Q.  The tests hold it to exact
principal-minor alternation on the dense matrix, whose last minor is
det Q (``tests/references.py``).  The Seifert reading needs no third test: the plumbing of a link's negative
form has Euler number e - p + sum (alpha - beta)/alpha, which is the
link's eps, so Q is negative definite exactly when eps < 0.
Run: python3 demos/03_plumbing_graphs.py
"""

from qamont import (adjacency_matrix, build_graph, determinant, epsilon, format_graph,
                    parse_link, to_negative_form, to_standard_form)
from qamont.plumbing import tree_det


def show(text):
    link = parse_link(text)
    graph = build_graph(to_negative_form(to_standard_form(link)))
    print(f"{link} plumbs into:")
    print(format_graph(graph))
    print("adjacency matrix:")
    for row in adjacency_matrix(graph):
        print("  " + " ".join(f"{v:3d}" for v in row))
    print(f"Seifert Euler number = eps(link):  {epsilon(link)}")
    print(f"leg-by-leg det (tree, or None):    {tree_det(graph)}")
    return link, graph


link, graph = show("M(1; 2, 2, 2)")
print(f"|det Q| = {abs(graph.definite_form.det)} equals det(link) = {determinant(link)}")

print()
print("An indefinite star for contrast (central weight 0, eps > 0):")
show("M(4; 2, 2, 2, 2)")
