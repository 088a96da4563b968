"""Lattice embeddings and the surjective-transpose obstruction.

An embedding sends the plumbing lattice into a negative diagonal lattice;
quasi-alternating links must admit one whose transpose is onto (all
invariant factors 1).  The search is exhaustive up to the sum of absolute
weights, one representative per signed-permutation orbit.
Run: python3 demos/05_lattice_embeddings.py
"""

from qamont import (PlumbingGraph, adjacency_matrix, embeddings_by_rank,
                    gram_matches, qa_lattice_obstruction, transpose_surjective)
from qamont.plumbing import definite_det

D4 = PlumbingGraph(-2, ((-2,), (-2,), (-2,)))
q = adjacency_matrix(D4)
print("All embeddings of the three-legged -2 star (D4 form) into rank 4:")
for _, embeddings in embeddings_by_rank(q, 4):
    for emb in embeddings:
        print(f"  rows {emb.matrix}  gram ok: {gram_matches(emb, q)}  "
              f"surjective transpose: {transpose_surjective(emb)}")

result = qa_lattice_obstruction(D4)
print(f"\nExhausting ranks 4 to {-sum(q[i][i] for i in range(len(q)))}: "
      f"{'Obstructed' if result.obstructed else 'NotObstructed'}")
print(f"|det| = {abs(definite_det(D4))} = 2^2, so the search keeps the placed columns"
      f" independent mod 2: {result.pruned} candidate columns were dependent"
      f" and cut, and {result.leaves} leaves remained.")
print("This is the computational reason M(1; 2, 2, 2) is not quasi-alternating.")

print()
vertex = PlumbingGraph(-4, ())
result = qa_lattice_obstruction(vertex)
print(f"A single -4 vertex instead finds a witness at rank {result.witness_n}:")
for row in result.witness.matrix:
    print(f"  {list(row)}")
print("(1,1,1,1) has unit 1x1 minors, so the transpose is onto.")
