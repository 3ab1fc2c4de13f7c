"""How sharp the vanishing bounds are, family by family and degree by degree.

The bound for r says that r_lam^mu = 0 when |lam ∩ hat(mu)| <
2|hat(mu)| - |lam|; the t and a bounds compare lam with mu itself
(``vanishing_check``). For each family and each degree d through 8 this
counts the pairs (lam, mu) with max(|lam|, |mu|) = d where the bound
holds with equality and the coefficient is positive (the bound is
attained), and the pairs where the bound holds but the coefficient is 0
(the bound cannot see the zero). A positive coefficient that breaks the
bound would contradict the theorem and stops the demo.

A second table accounts for the zeros of r through degree 8, criterion by
criterion: the r bound, the length bound len(lam) <= |mu|, and the Durfee
criterion, which for nonempty lam certifies r_lam^mu = 0 when the Durfee
square of mu has side more than 2^(lam_1 - 1). It counts the zeros each
criterion certifies and those no criterion explains, and prints the first
of the latter in index order (mu, then lam), the first being
r_(1,1)^(2) = 0: the degree-2 part of s_2[H] is 2 h_2.

A third table takes the same count beyond the square tables, where the r
bound does most of its work (it certifies a zero only when |lam| <
2|hat(mu)|): every pair with |mu| <= 6 and |mu| < |lam| <= 2|mu|, read by
``restriction_coeff_eval`` at the cost of p(|mu|) classes, one row per
|mu| and one column per criterion (3,864 pairs in about 0.6 s). A
criterion that certifies a positive coefficient stops the demo.

Run with: python demos/vanishing_sharpness.py
"""

from symfrob import (
    coeff_table,
    durfee_criterion,
    format_partition,
    hat,
    intersect,
    partitions_of,
    restriction_coeff_eval,
    vanishing_check,
)

MAXDEG = 8
SWEEP_MU = 6
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


CRITERIA = ("r-bound", "length-bound", "durfee")
SHOWN = 8


def certifies(criterion, lam, mu):
    """Whether the criterion says r_lam^mu = 0."""
    if criterion == "durfee":
        return bool(lam) and not durfee_criterion(mu, lam[0])
    return not vanishing_check(criterion, lam, mu)


def account(values):
    """Count the zeros among (lam, mu, r) triples per criterion.

    Returns (positive, zeros, certified, unexplained); a criterion that
    certifies a positive value stops the demo.
    """
    positive = zeros = 0
    certified, unexplained = dict.fromkeys(CRITERIA, 0), []
    for lam, mu, value in values:
        found = [criterion for criterion in CRITERIA if certifies(criterion, lam, mu)]
        if value > 0 and found:
            raise SystemExit(f"r[{lam}, {mu}] = {value} breaks {', '.join(found)}")
        if value:
            positive += 1
            continue
        zeros += 1
        for criterion in found:
            certified[criterion] += 1
        if not found:
            unexplained.append((lam, mu))
    return positive, zeros, certified, unexplained


def print_unexplained(unexplained):
    print("first unexplained zeros:")
    for lam, mu in unexplained[:SHOWN]:
        print(f"  r_{format_partition(lam)}^{format_partition(mu)} = 0")


index, matrix = coeff_table("r", MAXDEG)
_, zeros, certified, unexplained = account(
    (lam, mu, value) for mu, row in zip(index, matrix) for lam, value in zip(index, row)
)
print()
print(f"zeros of r through degree {MAXDEG}: {zeros}")
for criterion, count in certified.items():
    print(f"{criterion:>13} certifies {count:>5}")
print(f"{'no criterion':>13} explains {len(unexplained):>5}")
print_unexplained(unexplained)


COLUMNS = (
    ("|mu|", 4), ("pairs", 6), ("r>0", 6), ("r=0", 6),
    ("r-bound", 8), ("length", 7), ("durfee", 7), ("none", 5),
)


def print_row(cells):
    print(" ".join(f"{cell:>{width}}" for cell, (_, width) in zip(cells, COLUMNS)))


print()
print(f"r beyond the square tables: |mu| <= {SWEEP_MU}, |mu| < |lam| <= 2|mu|")
print_row(name for name, _ in COLUMNS)
totals, unexplained = [0] * (len(COLUMNS) - 1), []
for n in range(1, SWEEP_MU + 1):
    positive, zeros, certified, missed = account(
        (lam, mu, restriction_coeff_eval(lam, mu))
        for mu in partitions_of(n)
        for size in range(n + 1, 2 * n + 1)
        for lam in partitions_of(size)
    )
    row = [positive + zeros, positive, zeros, *certified.values(), len(missed)]
    totals = [a + b for a, b in zip(totals, row)]
    unexplained += missed
    print_row([n, *row])
print_row(["all", *totals])
print_unexplained(unexplained)
