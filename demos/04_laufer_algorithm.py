"""The rational-singularity computation sequence, step by step.

Starting from the all-ones cycle, a pairing >= 2 anywhere proves the
plumbed singularity is not rational (so the boundary is not an L-space);
otherwise unit pairings are absorbed until the fundamental cycle appears.
Run: python3 demos/04_laufer_algorithm.py
"""

from qamont import LauferVerdict, PlumbingGraph, laufer_run, parse_link, verify

E8 = PlumbingGraph(-2, ((-2,), (-2, -2), (-2, -2, -2, -2)))
print("E8 plumbing (central -2; legs [-2], [-2,-2], [-2,-2,-2,-2]):")
result = laufer_run(E8.definite_form)  # the graph's q, tested negative definite
print(f"  verdict: {result.verdict.value} after {result.steps} steps")
print(f"  fundamental cycle: {list(result.cycle)}  "
      "(the highest-root coefficients, 6 at the branch vertex)")

print()
sigma = PlumbingGraph(-1, ((-2,), (-3,), (-7,)))
print("Brieskorn sphere plumbing (central -1; legs [-2], [-3], [-7]):")
result = laufer_run(sigma.definite_form)
print(f"  verdict: {result.verdict.value} at step {result.steps}, "
      f"witness vertex {result.witness} (central pairing -1 + 3 = 2)")

print()
print("L-space detection on links: verify orients each link so that its")
print("plumbing is negative definite, then runs the sequence on it:")
for text in ("M(1; 2, 2, 2)", "M(2; 2, 2, 2, 2, 2)", "M(0; 3/2)"):
    evidence = verify(parse_link(text))
    lspace = evidence.laufer.verdict is LauferVerdict.RATIONAL
    print(f"  {text:<24} L-space: {lspace}  (verify: {evidence.branch.value})")
