"""Negative continued fractions: the calculus behind tangles and plumbing legs.

Every rational below -1 has a unique expansion with all coefficients <= -2,
and the expansion is exactly the list of weights of the corresponding
plumbing leg.  Run: python3 demos/01_continued_fractions.py
"""

from fractions import Fraction

from qamont import (build_graph, cf_expand, format_link, parse_link,
                    to_negative_form, to_standard_form)

print("Expansions of a few rationals below -1:")
for t in (Fraction(-2), Fraction(-7, 3), Fraction(-5, 4), Fraction(-17, 5)):
    print(f"  {str(t):>6}  ->  {list(cf_expand(t.numerator, t.denominator))}")

print()
print("The chain identity: -(n+1)/n expands to n copies of -2")
for n in range(1, 6):
    t = Fraction(-(n + 1), n)
    print(f"  {str(t):>6}  ->  {list(cf_expand(-(n + 1), n))}")

print()
print("Each tangle of a link's negative form expands into one plumbing leg:")
negative = to_negative_form(to_standard_form(parse_link("M(0; 17/5, 7/3, 2)")))
print(f"  negative form: {format_link(negative)}")
for t, leg in zip(negative.tangles, build_graph(negative).legs):
    print(f"  {str(t):>6}  ->  leg {list(leg)}")
