"""The full pipeline: classify by strict inequalities, verify from scratch.

classify() reads the answer off the standard-form parameters; verify()
re-derives it by orienting the link, testing the L-space property, and
hunting for a surjective-transpose embedding.  The two agree on every
input; this tour shows each branch once, then sweeps a small family.
Run: python3 demos/06_classification_tour.py
"""

from qamont import (Branch, classify, enumerate_family, explain, format_link,
                    parse_link, render_explain, verify)

showcase = [
    "M(0; 5/2, 7/3)",      # condition (1): e < 1
    "M(2; 3, 3, 3)",       # condition (4) at e = p - 1
    "M(1; 3/2, 3)",        # determinant zero: the two-component unlink
    "M(2; 2, 2, 2, 2, 2)", # fails the L-space test immediately
    "M(1; 2, 2, 2)",       # L-space, but no embedding works
]
for text in showcase:
    link = parse_link(text)
    verdict = classify(link)
    evidence = verify(link)
    print(f"{text:<24} {verdict.status.value:<6} {verdict.reason.value:<16} "
          f"verified via {evidence.branch.value}")

print()
print("Full trace for the lattice-obstructed case:")
obstructed = parse_link("M(1; 2, 2, 2)")
print(render_explain(explain(obstructed, verify(obstructed))))

print()
print("Sweep of the p = 3, alpha <= 2 family (e from -1 to 3):")
agreements = 0
for link in enumerate_family(3, 2, -1, 3, p_min=3):
    verdict = classify(link)
    evidence = verify(link)
    agree = (verdict.status.value == "QA") == (evidence.branch is Branch.POSITIVE_CHECK)
    agreements += agree
    print(f"  {format_link(link):<18} {verdict.status.value:<6} "
          f"{evidence.branch.value:<18} agree: {agree}")
print(f"classification and verification agreed on all {agreements} links")
