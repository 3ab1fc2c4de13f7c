"""The five coefficient families and the stable tables.

Run with: python demos/coefficient_tables.py
"""

from symfrob import (
    coeff,
    coeff_table,
    durfee_criterion,
    format_partition,
    stable_matrix,
    vanishing_check,
    witness_search,
)


def print_table(label, index, matrix):
    labels = [format_partition(lam) for lam in index]
    width = max(len(x) for x in labels) + 1
    print(f"\n{label} (rows: module index, columns: shape index)")
    print(" " * width + " ".join(f"{x:>{width}}" for x in labels))
    for name, row in zip(labels, matrix):
        print(f"{name:>{width}}" + " ".join(f"{v:>{width}}" for v in row))


# Point queries: the r family counts module multiplicities, so the values
# are nonnegative; u and b may be negative.
print("r[(2)  <- (2)]   =", coeff("r", (2,), (2,)))
print("t[(2,1)<- (2,1)] =", coeff("t", (2, 1), (2, 1)))
print("u[(3)  <- (1)]   =", coeff("u", (3,), (1,)))
print("b[(2,2)<- (1)]   =", coeff("b", (2, 2), (1,)))

index, r_table = coeff_table("r", 3)
print_table("restriction coefficients through degree 3", index, r_table)

# Stable tables: [a] is upper unitriangular and [b] is its inverse; the b
# construction cross-checks that internally.
index, a_table = stable_matrix("a", 4)
print_table("stable coefficients a", index, a_table)
index, b_table = stable_matrix("b", 4)
print_table("inverse stable coefficients b", index, b_table)

# Vanishing bound: positivity forces an overlap inequality.
lam, mu = (1,), (2,)
print("\nbound holds for lam=(1), mu=(2):", vanishing_check("t-bound", lam, mu))
print("and indeed t =", coeff("t", lam, mu))

# Durfee criterion: narrow witnesses exist exactly when the largest
# square in mu is small enough.
for mu in ((2, 2), (3, 3, 3)):
    ok = durfee_criterion(mu, 2)
    witness = witness_search(mu, 2)
    print(f"mu={mu}: square bound holds: {ok}, witness: {witness}")

# The bound is tight at k = 3: (4,4,4,4) has Durfee square 4 = 2^(3-1) and
# a witness of width 3. The first case past it, (5,5,5,5,5), has none, but
# that search runs through every lam with lam_1 <= 3 and |lam| <= 75, which
# took 38-54 s in measured runs (2-CPU VM, Python 3.11), so it is not run here.
mu = (4, 4, 4, 4)
witness = witness_search(mu, 3)
if witness != (3, 3, 3, 3, 3):
    raise SystemExit(f"expected the witness (3,3,3,3,3) for {mu} at k=3, got {witness}")
print(f"mu={mu}, k=3: square bound holds: {durfee_criterion(mu, 3)}, witness: {witness}")
