"""Brute-force oracles used only by the tests.

Each oracle recomputes a quantity by a route independent of the library
code it checks: direct enumeration, series manipulation in an auxiliary
variable, or plain polynomial evaluation in finitely many variables.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from hypothesis import strategies as st

from symfrob.frobenius import fsur, fsurinv
from symfrob.partitions import (
    _PART_ENTRIES,
    canonical_key,
    conjugate,
    format_partition,
    partitions_of,
    partitions_up_to,
    z_value,
)
from symfrob.symfunc import (
    BASES,
    SymFunc,
    _p_in_h,
    from_basis,
    lyndon_sf,
    omega,
    to_basis,
)


def column_by_partition(pairs):
    """An integer column of (partition id, value) pairs as a partition-keyed dict."""
    return {_PART_ENTRIES[pid][0]: value for pid, value in pairs}


def m_in_p_by_transpose(n):
    """p-expansions of every m_mu of degree n, from the transpose of p in h.

    m is the Hall dual of h (Macdonald I.4), so [p_nu] m_mu is
    <p_nu, m_mu> / z_nu = [h_mu] p_nu / z_nu.
    """
    table = {mu: {} for mu in partitions_of(n)}
    for nu in partitions_of(n):
        for mu, c in column_by_partition(_p_in_h(nu)).items():
            table[mu][nu] = Fraction(c, z_value(nu))
    return {mu: SymFunc(terms) for mu, terms in table.items()}


@lru_cache(maxsize=None)
def character_by_beta_numbers(lam, mu):
    """chi_lam(mu) by the Murnaghan-Nakayama recursion on a list of beta numbers.

    Removing a border strip of size mu[0] subtracts mu[0] from one beta
    number, and the sign is the number of beta numbers jumped over.
    """
    if not lam:
        return 1
    k, rest = mu[0], mu[1:]
    n = len(lam)
    beta = [lam[i] + (n - 1 - i) for i in range(n)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = tuple(
            c - (n - 1 - i) for i, c in enumerate(newbeta) if c - (n - 1 - i) > 0
        )
        total += (-1) ** height * character_by_beta_numbers(newlam, rest)
    return total


def partition_up_to(n):
    """Hypothesis strategy: a partition of size at most n."""
    return st.integers(0, n).flatmap(lambda k: st.sampled_from(partitions_of(k)))


def brute_partitions(n, max_part=None):
    """Recursive enumeration of partitions of n, as a set of tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        return {()}
    out = set()
    for first in range(1, min(n, max_part) + 1):
        for rest in brute_partitions(n - first, first):
            out.add((first,) + rest)
    return out


def h_series_by_exponential(max_deg):
    """Coefficients of exp(sum_k p_k t^k / k) through t^max_deg.

    Returns a list indexed by degree whose entries are SymFunc values,
    the complete homogeneous functions by the classical series identity.
    """
    argument = [SymFunc.zero() for _ in range(max_deg + 1)]
    for k in range(1, max_deg + 1):
        argument[k] = from_basis("p", (k,)) * Fraction(1, k)
    result = [SymFunc.zero() for _ in range(max_deg + 1)]
    result[0] = SymFunc.one()
    term = list(result)
    m = 0
    while True:
        m += 1
        nxt = [SymFunc.zero() for _ in range(max_deg + 1)]
        for i in range(max_deg + 1):
            for j in range(1, max_deg + 1 - i):
                nxt[i + j] = nxt[i + j] + term[i] * argument[j]
        term = [x * Fraction(1, m) for x in nxt]
        if all(x.is_zero for x in term):
            break
        for i in range(max_deg + 1):
            result[i] = result[i] + term[i]
        if m > max_deg:
            break
    return result


def single_in_p(base, n):
    """h_n (base "h") or e_n (base "e") as the sum of +-p_lam / z_lam over lam of n."""
    return SymFunc(
        {
            lam: Fraction((-1) ** (n - len(lam)) if base == "e" else 1, z_value(lam))
            for lam in partitions_of(n)
        }
    )


def multiplicative_in_p(base, lam):
    """h_lam or e_lam as the Fraction SymFunc product of its single factors."""
    out = SymFunc.one()
    for part in lam:
        out = out * single_in_p(base, part)
    return out


def standard_series_by_sums(name, cutoff):
    """The named standard series summed degree by degree from its definition."""
    total = SymFunc.zero()
    for n in range(cutoff + 1):
        if name in ("H", "Hplus", "Hgeq2", "E", "Emin"):
            if n < {"Hplus": 1, "Hgeq2": 2}.get(name, 0):
                continue
            sign = (-1) ** n if name == "Emin" else 1
            total = total + single_in_p(name[0].lower(), n) * sign
        elif n and name == "Lsum":
            total = total + lyndon_sf(n)
        elif n and name == "Cadogan":
            total = total + omega(lyndon_sf(n)) * (-1) ** (n - 1)
    return total.truncate(cutoff)


def add_horizontal_strips(lam, k):
    """All partitions obtained from lam by adding a horizontal strip of size k."""
    lam = tuple(lam)
    rows = len(lam) + 1
    out = []

    def rec(i, remaining, built):
        if i == rows:
            if remaining == 0:
                out.append(tuple(p for p in built if p))
            return
        low = lam[i] if i < len(lam) else 0
        high = lam[i - 1] if i > 0 else low + remaining
        for new in range(low, min(high, low + remaining) + 1):
            if i > 0 and new > built[-1]:
                continue
            rec(i + 1, remaining - (new - low), built + [new])

    rec(0, k, [])
    return out


def add_vertical_strips(lam, k):
    """All partitions obtained from lam by adding a vertical strip of size k."""
    return [conjugate(mu) for mu in add_horizontal_strips(conjugate(lam), k)]


def schur_product_by_pieri(lam, k, kind="h"):
    """s_lam times h_k (or e_k), expanded by the Pieri rule."""
    adds = add_horizontal_strips if kind == "h" else add_vertical_strips
    total = SymFunc.zero()
    for mu in adds(lam, k):
        total = total + from_basis("s", mu)
    return total


def brute_lyndon_factorizations(w, bound=None):
    """All non-increasing factorizations of w into Lyndon words."""
    w = tuple(w)
    if not w:
        return [[]]
    out = []
    for i in range(1, len(w) + 1):
        head = w[:i]
        if not all(head < head[j:] for j in range(1, len(head))):
            continue
        if bound is not None and head > bound:
            continue
        for rest in brute_lyndon_factorizations(w[i:], head):
            out.append([head] + rest)
    return out


def evaluate_in_variables(f, num_vars):
    """Evaluate an exact SymFunc at t_1..t_num_vars, other variables zero.

    Returns a dict mapping exponent tuples to Fraction coefficients,
    computed by substituting each p_k with t_1^k + ... + t_n^k.
    """
    zero_key = (0,) * num_vars
    total: dict = {}
    for lam, c in f.terms():
        poly = {zero_key: Fraction(1)}
        for part in lam:
            nxt: dict = {}
            for exp, a in poly.items():
                for i in range(num_vars):
                    key = tuple(
                        x + (part if j == i else 0) for j, x in enumerate(exp)
                    )
                    nxt[key] = nxt.get(key, Fraction(0)) + a
            poly = nxt
        for exp, a in poly.items():
            total[exp] = total.get(exp, Fraction(0)) + c * a
    return {k: v for k, v in total.items() if v}


def random_symfunc(rng: random.Random, max_deg, basis="h", terms=4, coeff_range=3):
    """Small random integral element in the given basis."""
    from symfrob.partitions import partitions_up_to

    pool = partitions_up_to(max_deg)
    total = SymFunc.zero()
    for _ in range(terms):
        lam = rng.choice(pool)
        total = total + from_basis(basis, lam) * rng.randint(-coeff_range, coeff_range)
    return total


def falling_factorial_e1(k):
    """e_1 (e_1 - 1) ... (e_1 - k + 1)."""
    e1 = from_basis("e", (1,))
    out = SymFunc.one()
    for j in range(k):
        out = out * (e1 - j)
    return out


def divisible_by_e1_power(f, k):
    """Whether e_1^k divides f (every power sum term carries k parts 1)."""
    return all(lam.count(1) >= k for lam, _ in f.terms())


def _substitute_p1(f, value):
    out = {}
    for lam, c in f.terms():
        ones = lam.count(1)
        rest = tuple(p for p in lam if p != 1)
        contrib = c * Fraction(value) ** ones
        if contrib:
            out[rest] = out.get(rest, Fraction(0)) + contrib
    return {k: v for k, v in out.items() if v}


def divisible_by_falling_factorial(f, k):
    """Whether e_1 (e_1 - 1) ... (e_1 - k + 1) divides f.

    The factors are distinct monic linear polynomials in p_1, so f is
    divisible iff it vanishes under each substitution p_1 -> j.
    """
    return all(not _substitute_p1(f, j) for j in range(k))


def dual_jacobi_trudi(lam):
    """s_lam as the determinant in elementary functions, fully expanded."""
    lam_t = conjugate(lam)
    m = len(lam_t)
    if m == 0:
        return SymFunc.one()

    def e(r):
        if r < 0:
            return SymFunc.zero()
        return from_basis("e", (r,) if r else ())

    total = SymFunc.zero()
    for perm in permutations(range(m)):
        inversions = sum(
            1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j]
        )
        term = SymFunc.one()
        for i in range(m):
            term = term * e(lam_t[i] - i + perm[i])
        total = total + term * ((-1) ** inversions)
    return total


def words_with_content(letters, counts):
    """All words using letters[i] exactly counts[i] times."""
    letters = list(letters)
    counts = list(counts)
    word = []
    total = sum(counts)

    def rec():
        if len(word) == total:
            yield tuple(word)
            return
        for i, letter in enumerate(letters):
            if counts[i]:
                counts[i] -= 1
                word.append(letter)
                yield from rec()
                word.pop()
                counts[i] += 1

    yield from rec()


def canonical_listing(label, terms):
    """One text line: the label, then partition:num/den per term in canonical order."""
    items = sorted(dict(terms).items(), key=lambda item: canonical_key(item[0]))
    body = " ".join(
        f"{format_partition(lam)}:{c.numerator}/{c.denominator}" for lam, c in items
    )
    return f"{label} {body}"


def transforms_and_conversions_digest(maxdeg):
    """SHA-256 of the canonical listing of every transform and conversion.

    For each basis b and each lam with |lam| <= maxdeg the listing holds
    fsur and fsurinv of from_basis(b, lam) (their power sum terms) and
    to_basis(from_basis(b, lam), dst) for every target basis dst.
    """
    lines = []
    for lam in partitions_up_to(maxdeg):
        for src in BASES:
            f = from_basis(src, lam)
            name = f"{src}{format_partition(lam)}"
            lines.append(canonical_listing(f"fsur {name}", fsur(f).terms()))
            lines.append(canonical_listing(f"fsurinv {name}", fsurinv(f).terms()))
            for dst in BASES:
                lines.append(canonical_listing(f"{name} in {dst}", to_basis(f, dst)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
