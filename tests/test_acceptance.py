"""Acceptance criteria, one test per criterion.

Every check is exact (integer or rational equality, no tolerances); each
criterion also carries a wall-clock budget that is asserted. The test
names double as the one-line pass/fail report under ``pytest -v``; with
``-s`` each criterion also prints an explicit PASS line with its timing.
"""

import time
from fractions import Fraction

from symfrob.frobenius import (
    coeff,
    coeff_table,
    durfee_criterion,
    frobenius_series,
    fsur,
    fsur_e_direct,
    fsur_expansion,
    fsur_h_direct,
    fsur_p_direct,
    fsurinv,
    fsurinv_h_direct,
    fsurinv_iterative,
    genfunc_identity_check,
    stable_matrix,
    vanishing_check,
    witness_search,
)
from symfrob.lyndon import factorize, is_lyndon, lyndon_words, pi_of_word, witt_count
from symfrob.oracles import frobenius_via_roots
from symfrob.partitions import (
    partitions_of,
    partitions_up_to,
    stable_pad,
)
from symfrob.symfunc import (
    BASES,
    SymFunc,
    character_value,
    from_basis,
    hall,
    kronecker,
    to_basis_int,
)

from helpers import (
    brute_lyndon_factorizations,
    divisible_by_e1_power,
    divisible_by_falling_factorial,
    falling_factorial_e1,
    random_symfunc,
    words_with_content,
)


def _report(number, label, start, budget):
    elapsed = time.time() - start
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"PASS criterion {number:02d} [{elapsed:.2f}s < {budget}s]: {label}")


def s(*lam):
    return from_basis("s", lam)


def h(*lam):
    return from_basis("h", lam)


def e(*lam):
    return from_basis("e", lam)


def p(*lam):
    return from_basis("p", lam)


def test_criterion_01_golden_values():
    start = time.time()
    assert fsur(h(2, 2)) == h(1) + h(2) + 3 * h(1, 1) + 2 * h(2, 1) + h(
        1, 1, 1
    ) + h(2, 2)
    assert fsur(e(5, 3)) == e(5) * e(3) + h(1) * e(4) * e(2) + h(2) * e(3) * e(
        1
    ) + h(3) * e(2)
    for n in range(1, 11):
        assert fsur(e(n)) == e(n), n
    for n in range(1, 13):
        divisor_sum = SymFunc.zero()
        for d in range(1, n + 1):
            if n % d == 0:
                divisor_sum = divisor_sum + p(d)
        assert fsur(p(n)) == divisor_sum, n
    _report(1, "golden values for fsur on h, e, p inputs", start, 1.0)


def test_criterion_02_route_equivalence():
    start = time.time()
    for lam in partitions_up_to(6):
        f = s(*lam)
        assert fsur_expansion(f) == fsur(f), ("expansion", lam)
    for lam in partitions_up_to(7):
        assert fsur_h_direct(lam) == fsur(from_basis("h", lam)), ("h", lam)
        assert fsur_e_direct(lam) == fsur(from_basis("e", lam)), ("e", lam)
    for lam in partitions_up_to(10):
        assert fsur_p_direct(lam) == fsur(from_basis("p", lam)), ("p", lam)
    _report(2, "fsur = expansion = direct formulas", start, 60.0)


def test_criterion_03_inverse_contract():
    start = time.time()
    for basis in BASES:
        for lam in partitions_up_to(7):
            f = from_basis(basis, lam)
            assert fsurinv(fsur(f)) == f, (basis, lam)
            assert fsur(fsurinv(f)) == f, (basis, lam)
            assert fsurinv_iterative(f) == fsurinv(f), (basis, lam)
    _report(3, "two-sided inverse on all five bases, both routes", start, 60.0)


def test_criterion_04_kronecker_identity():
    start = time.time()
    parts = partitions_up_to(4)
    for i, lam in enumerate(parts):
        for mu in parts[i:]:
            left = frobenius_series(s(*lam) * s(*mu), 6)
            right = kronecker(
                frobenius_series(s(*lam), 6), frobenius_series(s(*mu), 6)
            )
            assert left == right, (lam, mu)
    small = partitions_up_to(3)
    for lam in small:
        for mu in small:
            for nu in partitions_up_to(5):
                left = sum(
                    coeff("r", nup, nu)
                    * int(hall(s(*nup), s(*lam) * s(*mu)))
                    for nup in partitions_of(sum(lam) + sum(mu))
                )
                right = 0
                for lamp in partitions_of(sum(nu)):
                    r1 = coeff("r", lam, lamp)
                    if not r1:
                        continue
                    for mup in partitions_of(sum(nu)):
                        r2 = coeff("r", mu, mup)
                        if not r2:
                            continue
                        right += r1 * r2 * int(
                            hall(s(*nu), kronecker(s(*lamp), s(*mup)))
                        )
                assert left == right, (lam, mu, nu)
    _report(4, "product-to-Kronecker identity and its coefficient form", start, 60.0)


def test_criterion_05_oracle_agreement():
    start = time.time()
    for basis in BASES:
        for lam in partitions_up_to(6):
            f = from_basis(basis, lam)
            assert frobenius_via_roots(f, 6) == frobenius_series(f, 6), (basis, lam)
    _report(5, "roots-of-unity route equals the transform route", start, 30.0)


def _padded_restriction(lam, mu, n):
    """r coefficient at the size-n padding of mu, from the series definition."""
    component = frobenius_series(s(*lam), n).homogeneous_component(n)
    padded = stable_pad(mu, n)
    total = Fraction(0)
    for rho, c in component.terms():
        chi = character_value(padded, rho)
        if chi:
            total += chi * c
    assert total.denominator == 1
    return int(total)


def test_criterion_06_stable_coefficients():
    start = time.time()
    index, a_matrix = stable_matrix("a", 6)
    n = len(index)
    for i in range(n):
        assert a_matrix[i][i] == 1
        for j in range(i):
            assert a_matrix[i][j] == 0
    # b by the closed formula; construction itself verifies it equals the
    # inverse of the a table (InternalCheckError otherwise)
    index_b, b_matrix = stable_matrix("b", 6)
    assert index_b == index
    for i in range(n):
        for j in range(n):
            sign = (-1) ** ((sum(index[j]) - sum(index[i])) % 2)
            assert sign * b_matrix[i][j] >= 0, (index[i], index[j])
    # stabilization: padded restriction coefficients are constant once the
    # padding is valid and at least |lam|+|mu|+1, and equal the stable value
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5):
            stable = coeff("a", lam, mu)
            lowest = max(
                sum(lam) + sum(mu) + 1, (mu[0] if mu else 0) + sum(mu)
            )
            for pad_to in range(lowest, lowest + 3):
                assert _padded_restriction(lam, mu, pad_to) == stable, (
                    lam,
                    mu,
                    pad_to,
                )
    _report(6, "stable a/b tables, signs, and stabilization", start, 120.0)


def test_criterion_07_vanishing_sweeps():
    start = time.time()
    for kind, bound_kind, maxdeg in (
        ("r", "r-bound", 7),
        ("t", "t-bound", 7),
        ("a", "a-bound", 6),
    ):
        index, matrix = coeff_table(kind, maxdeg)
        for i, mu in enumerate(index):
            for j, lam in enumerate(index):
                if matrix[i][j] > 0:
                    assert vanishing_check(bound_kind, lam, mu), (kind, lam, mu)
    _report(7, "no counterexample to the three vanishing bounds", start, 120.0)


def test_criterion_08_durfee_criterion():
    start = time.time()
    for k in (1, 2):
        for n in range(10):
            for mu in partitions_of(n):
                found = witness_search(mu, k)
                if durfee_criterion(mu, k):
                    assert found is not None, (k, mu)
                    assert (not found) or found[0] <= k
                    assert coeff("r", found, mu) > 0
                else:
                    assert found is None, (k, mu)
    _report(8, "witness exists exactly when the Durfee bound holds", start, 120.0)


def test_criterion_09_lyndon_suite():
    start = time.time()
    assert pi_of_word((2, 1, 2, 1, 2, 1, 2, 1, 1, 1, 1)) == (4, 3, 1)
    from itertools import product as iproduct

    for length in range(9):
        for w in iproduct((1, 2, 3), repeat=length):
            brute = brute_lyndon_factorizations(w)
            assert len(brute) == 1 and brute[0] == factorize(w), w
    for ell in (1, 2, 3):
        words = lyndon_words(ell, 8)
        assert all(is_lyndon(w) for w in words)
        for n in range(1, 9):
            assert sum(1 for w in words if len(w) == n) == witt_count(ell, n)
    for ell in (1, 2):
        for bound in range(1, 5):
            assert genfunc_identity_check(ell, bound, "reciprocal"), (ell, bound)
    for bound in range(1, 7):
        assert genfunc_identity_check(1, bound, "product"), bound
    _report(9, "factorization, Witt counts, word-product identities", start, 60.0)


def test_criterion_10_inverse_corollaries():
    start = time.time()
    e1 = e(1)
    for ell in range(8):
        falling = SymFunc.one()
        for j in range(ell):
            falling = falling * (e1 - j)
        assert fsurinv(e1**ell) == falling, ell
    for r in range(11):
        assert fsurinv_h_direct(r) == fsurinv(
            from_basis("h", (r,) if r else ())
        ), r
    # product formula with the longest zero-free prefix statistic
    for lam in partitions_up_to(5):
        for k in range(7 - sum(lam)):
            if sum(lam) + k > 6:
                continue
            left = fsurinv(from_basis("e", lam) * e1**k)
            total = SymFunc.zero()
            for w in words_with_content(range(len(lam) + 1), [k] + list(lam)):
                prefix = []
                for letter in w:
                    if letter == 0:
                        break
                    prefix.append(letter)
                pi = pi_of_word(tuple(prefix))
                total = total + from_basis("e", pi) * (
                    (-1) ** ((sum(lam) - sum(pi)) % 2)
                )
            assert left == total * falling_factorial_e1(k), (lam, k)
    # divisibility corollary
    import random

    rng = random.Random(47)
    for k in range(1, 4):
        ff = falling_factorial_e1(k)
        for _ in range(8):
            f = random_symfunc(rng, 6 - k, basis="h", terms=3) * ff
            assert divisible_by_e1_power(fsur(f), k)
        for _ in range(8):
            f = random_symfunc(rng, 6, basis="h", terms=3)
            assert divisible_by_falling_factorial(f, k) == divisible_by_e1_power(
                fsur(f), k
            )
    _report(10, "inverse-transform corollaries in the e and h bases", start, 120.0)


def test_criterion_11_integrality():
    start = time.time()
    integral_bases = ("m", "e", "h", "s")
    for basis in BASES:
        for lam in partitions_up_to(7):
            f = from_basis(basis, lam)
            for g in (fsur(f), fsurinv(f)):
                for target in integral_bases:
                    to_basis_int(g, target)
    for lam in partitions_up_to(4):
        series = frobenius_series(s(*lam), 6)
        for target in integral_bases:
            to_basis_int(series, target)
    for kind in ("r", "t", "u", "a", "b"):
        coeff_table(kind, 4)  # integrality asserted on every entry
    _report(11, "all transform outputs integral in m, e, h, s", start, 60.0)
