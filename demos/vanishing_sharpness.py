"""How sharp the vanishing bounds are, family by family and degree by degree.

The bound for r says that r_lam^mu = 0 when |lam ∩ hat(mu)| <
2|hat(mu)| - |lam|; the t and a bounds compare lam with mu itself
(``vanishing_check``). For each family and each degree d through 8 this
counts the pairs (lam, mu) with max(|lam|, |mu|) = d where the bound
holds with equality and the coefficient is positive (the bound is
attained), and the pairs where the bound holds but the coefficient is 0
(the bound cannot see the zero). A positive coefficient that breaks the
bound would contradict the theorem and stops the demo.

Run with: python demos/vanishing_sharpness.py
"""

from symfrob import coeff_table, hat, intersect, vanishing_check

MAXDEG = 8
FAMILIES = (("r", "r-bound"), ("t", "t-bound"), ("a", "a-bound"))


def slack(kind, lam, mu):
    """|lam ∩ target| - (2|target| - |lam|): the bound holds when it is >= 0."""
    target = hat(mu) if kind == "r-bound" else mu
    return sum(intersect(lam, target)) - (2 * sum(target) - sum(lam))


print(f"{'family':>6} {'degree':>6} {'pairs':>6} {'holds':>6} {'tight>0':>8} {'holds,=0':>9}")
for coeff_kind, kind in FAMILIES:
    index, matrix = coeff_table(coeff_kind, MAXDEG)
    counts = {d: [0, 0, 0, 0] for d in range(MAXDEG + 1)}
    for mu, row in zip(index, matrix):
        for lam, value in zip(index, row):
            gap = slack(kind, lam, mu)
            if (gap >= 0) != vanishing_check(kind, lam, mu):
                raise SystemExit(f"slack disagrees with vanishing_check at {lam}, {mu}")
            if value > 0 and gap < 0:
                raise SystemExit(f"{coeff_kind}[{lam}, {mu}] = {value} breaks the bound")
            row_counts = counts[max(sum(lam), sum(mu))]
            row_counts[0] += 1
            if gap < 0:
                continue
            row_counts[1] += 1
            if gap == 0 and value > 0:
                row_counts[2] += 1
            if value == 0:
                row_counts[3] += 1
    for d, (pairs, holds, tight, blind) in counts.items():
        print(f"{coeff_kind:>6} {d:>6} {pairs:>6} {holds:>6} {tight:>8} {blind:>9}")
