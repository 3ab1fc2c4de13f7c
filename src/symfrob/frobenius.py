"""The Frobenius transform of symmetric functions and its relatives.

The surjective transform ``fsur`` is the Hall adjoint of plethysm by the
positive-degree complete homogeneous series; its inverse ``fsurinv`` is
the adjoint of plethysm by Cadogan's series. The adjoint engine keeps one
memoized column per power sum p_rho: the p expansion of the transform of
p_rho in exact ints, built from the column of rho without its last part.

Both transforms of p_rho are sums over the set partitions of the
positions of rho (``fsur_p_direct``, ``fsurinv_p_direct``), and both sums
can be taken one part at a time. For fsur each block B carries a label k
dividing every part of B, with weight k^(|B|-1) p_k. A new part r opens
a block with a label k | r, multiplying by p_k, or joins one of the
m_k(nu) blocks labelled k | r, multiplying by k. So fsur(p_r g) =
D_r fsur(g) with D_r = sum_{k|r} p_k (1 + k d/dp_k). For fsurinv only
blocks of equal parts c weigh, c^s giving (-1)^(s-1) (s-1)! c^(s-1) q_c
with q_c = sum_{k|c} mu(c/k) p_k. By the exponential formula the sum
over m of fsurinv(p_c^m) x^m / m! is exp((q_c / c) log(1 + c x)) =
(1 + c x)^(q_c / c), so fsurinv(p_c^m) is the falling-factorial product
of (q_c - i c) over i < m, and fsurinv(p_rho) is the product of these
over the distinct parts c of rho. ``_pleth_coeff`` takes one such factor
per new last part r of rho: D_r, or (q_r - i r) when i copies precede r.

A transform sums its input's int numerators along the columns. The full
transform is ``fsur(f)`` times the complete homogeneous series. The
coefficient families t and u are the Schur matrices of fsur and fsurinv;
r, a and b are Pieri strip sums over their memoized columns. Alongside
the adjoint engine this module carries the closed-form expansions of
fsur in the h, e and p bases and of fsurinv in the p basis, the word
formulas for the inverse in the e basis, vanishing bounds, and the
Durfee square criterion with its witness search. The p closed forms read
the m basis's set-partition sum ``symfunc._set_partition_sum`` with their
own block weights. The h and e ones, the closed form of fsurinv on one
h_r and the word-indexed product identities all read a product of
standard series at one monomial, and share ``_assignment_sum`` for it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import factorial, gcd, prod
from types import MappingProxyType

from .lyndon import content_vector, lyndon_words, pi_of_word
from .partitions import (
    _PART_ENTRIES,
    _count,
    _integers,
    _part_id,
    as_partition,
    conjugate,
    divisors,
    durfee,
    hat,
    intersect,
    mobius,
    multiset_union,
    partition_from_composition,
    partitions_of,
    partitions_up_to,
)
from .symfunc import (
    IntegralityError,
    InternalCheckError,
    SymFunc,
    _int_column_sum,
    _linear_combination,
    _s_scaled_in_p,
    _series_term,
    _set_partition_sum,
    from_basis,
    plethysm,
    skew,
    standard_series,
    to_basis_int,
)

COEFF_KINDS = ("r", "t", "u", "a", "b")

VANISHING_KINDS = ("r-bound", "t-bound", "a-bound")


# -- the adjoint engine ----------------------------------------------------


@lru_cache(maxsize=None)
def _pleth_coeff(series_name: str, rho) -> tuple:
    """The column of rho: the nonzero (id of nu, [p_nu] A(p_rho)) pairs.

    A is the Hall adjoint of plethysm by the named standard series g, so
    the column is the p expansion of fsur(p_rho) for Hplus and of
    fsurinv(p_rho) for Cadogan, in exact ints; [p_nu] A(p_rho) is
    <p_nu[g], p_rho> / z_nu. It is the column of rho[:-1] times the
    operator shift + sum over the steps (k, weight, slope) of p_k (weight
    + slope d/dp_k), r = rho[-1] the smallest part: for Hplus the steps
    (k, 1, k), k | r, and shift 0 (``D_r`` of the module docstring); for
    Cadogan the nonzero terms (k, mu(r/k), 0) of q_r and shift -i r, i the
    earlier copies of r (the factor q_r - i r). So each entry (nu, c) of
    the shorter column adds weight * c to nu with one more part k for
    each step, and (shift + sum of slope * m_k(nu)) * c to nu itself.
    Hplus and Cadogan are the series with a one-part step;
    any other raises ``ValueError``. Each nu is keyed by its partition id
    (``partitions._PART_ENTRIES``).
    """
    if series_name not in ("Hplus", "Cadogan"):
        raise ValueError(f"series {series_name!r} has no one-part step")
    if not rho:
        return ((_part_id(()), 1),)
    r = rho[-1]
    if series_name == "Hplus":
        steps, shift = [(k, 1, k) for k in divisors(r)], 0
    else:
        steps = [(k, mobius(r // k), 0) for k in divisors(r) if mobius(r // k)]
        shift = -(rho.count(r) - 1) * r
    column: dict = {}
    get = column.get
    for nu, c in _pleth_coeff(series_name, rho[:-1]):
        diagonal = shift
        for k, weight, slope in steps:
            key = _insert_part(nu, k)
            column[key] = get(key, 0) + weight * c
            if slope:
                diagonal += slope * _PART_ENTRIES[nu].count(k)
        if diagonal:
            column[nu] = get(nu, 0) + diagonal * c
    return tuple((nu, value) for nu, value in column.items() if value)


@lru_cache(maxsize=None)
def _insert_part(nu: int, k: int) -> int:
    """The id of the partition with id nu and one more part k.

    A column's step multiplies each entry of the shorter column by p_k.
    """
    return _part_id(multiset_union(_PART_ENTRIES[nu], (k,)))


def _adjoint_apply(f: SymFunc, series_name: str) -> SymFunc:
    """Apply the Hall adjoint of plethysm-by-series to the exact element f.

    Each column of ``_pleth_coeff`` is the transform of one power sum in
    ints, built one part at a time (``D_r`` for fsur, a falling-factorial
    factor for fsurinv; see the module docstring). So with f's int
    numerators over its denominator D the result's numerators are the
    int sums along the columns of f's terms, over the same D.
    """
    if f.cutoff is not None:
        raise ValueError("the transform is defined on exact symmetric functions")
    return SymFunc._build(*_int_column_sum(f, partial(_pleth_coeff, series_name)))


def fsur(f: SymFunc) -> SymFunc:
    """The surjective Frobenius transform (degree and leading term preserved)."""
    return _adjoint_apply(f, "Hplus")


def fsurinv(f: SymFunc) -> SymFunc:
    """Inverse of fsur, computed as the adjoint of plethysm by Cadogan's series."""
    return _adjoint_apply(f, "Cadogan")


def fsurinv_iterative(f: SymFunc) -> SymFunc:
    """Inverse of fsur by iterating the defect map f - fsur(f).

    The defect strictly drops degree, so the geometric-style sum is
    finite. Kept as an independent cross-check of fsurinv.
    """
    if f.cutoff is not None:
        raise ValueError("the transform is defined on exact symmetric functions")
    total = f
    cur = f
    while True:
        cur = cur - fsur(cur)
        if cur.is_zero:
            return total
        total = total + cur


def frobenius_series(f: SymFunc, cutoff: int) -> SymFunc:
    """The full Frobenius transform through the given degree: fsur(f) * H."""
    return fsur(f) * standard_series("H", cutoff)


@lru_cache(maxsize=None)
def _schur_plethysm(mu, series_name: str, cutoff: int) -> SymFunc:
    return plethysm(from_basis("s", mu), standard_series(series_name, cutoff))


def fsur_expansion(f: SymFunc) -> SymFunc:
    """fsur as a finite sum of multiply-then-skew operators.

    Each summand multiplies by a Schur function after skewing by its
    plethysm with h_2 + h_3 + ..., whose minimum degree 2|nu| bounds the
    sum at 2|nu| <= deg f.
    """
    if f.cutoff is not None:
        raise ValueError("the transform is defined on exact symmetric functions")
    if f.is_zero:
        return SymFunc.zero()
    degree = f.degree
    summands = []
    for m in range(degree // 2 + 1):
        for nu in partitions_of(m):
            skewed = skew(_schur_plethysm(nu, "Hgeq2", degree), f)
            if not skewed.is_zero:
                summands.append((1, from_basis("s", nu) * skewed))
    return _linear_combination(summands)


# -- closed-form expansions -------------------------------------------------


def _assignment_sum(lam, pairs) -> SymFunc:
    """The coefficient of x^lam in the product over the (series name,
    vector) pairs of sum_r ``_series_term(name, r)`` x^(r v).

    It is the sum over the multiplicity assignments M with sum_v M(v) v =
    lam of the product of the terms ``_series_term(name, M(v))`` over the
    pairs with M(v) > 0. The recursion fixes the multiplicity of one
    vector at a time, those of largest sum first, and counts each multiset
    of (name, M(v)) factors; each distinct product is built once. The
    zero lam has one assignment, the empty one, so its sum is 1.
    """
    pairs = sorted(pairs, key=lambda nv: -sum(nv[1]))
    found: Counter = Counter()

    def rec(idx, remaining, factors):
        if not any(remaining):
            found[tuple(sorted(factors))] += 1
            return
        if idx == len(pairs):
            return
        name, vec = pairs[idx]
        rec(idx + 1, remaining, factors)
        most = min(left // step for left, step in zip(remaining, vec) if step)
        for count in range(1, most + 1):
            rest = tuple(left - count * step for left, step in zip(remaining, vec))
            rec(idx + 1, rest, factors + ((name, count),))

    rec(0, lam, ())
    return _linear_combination(
        [
            (count, prod((_series_term(n, m) for n, m in key), start=SymFunc.one()))
            for key, count in found.items()
        ]
    )


def fsur_h_direct(lam) -> SymFunc:
    """fsur of a product of complete homogeneous functions, by direct expansion.

    Sums over multiplicity assignments on nonzero nonnegative vectors
    whose weighted column sums reproduce lam; each assignment contributes
    the product of h_M(v), the terms of H, over its positive multiplicities.
    """
    lam = partition_from_composition(lam)
    pairs = [("H", v) for v in product(*(range(part + 1) for part in lam)) if any(v)]
    return _assignment_sum(lam, pairs)


def fsur_e_direct(lam) -> SymFunc:
    """fsur of a product of elementary functions, by direct expansion.

    Same shape as the h rule but over 0/1 vectors; a multiplicity sits in
    an h factor (a term of H) when its vector has even support size, an e
    factor (a term of E) when odd.
    """
    lam = partition_from_composition(lam)
    pairs = [(("H", "E")[sum(v) % 2], v) for v in product((0, 1), repeat=len(lam)) if any(v)]
    return _assignment_sum(lam, pairs)


def _fsur_p_block(block) -> tuple:
    """fsur's weight of a block of size s: the sum of d^(s-1) p_d over d | gcd(block)."""
    return tuple((d, d ** (len(block) - 1)) for d in divisors(gcd(*block)))


def _fsurinv_p_block(block) -> tuple:
    """fsurinv's weight of one block: on c^s, (-1)^(s-1) (s-1)! c^(s-1) times
    the sum of mu(c/k) p_k over k | c; 0 on a block of unequal parts."""
    c, size = block[0], len(block)
    if block[-1] != c:
        return ()
    scale = (-1) ** (size - 1) * factorial(size - 1) * c ** (size - 1)
    return tuple((k, scale * mobius(c // k)) for k in divisors(c) if mobius(c // k))


def fsur_p_direct(lam) -> SymFunc:
    """fsur of a power sum product, by the set-partition divisor formula.

    Sums over set partitions of the index positions; a block of size s
    with part gcd g contributes the sum of d^(s-1) p_d over divisors d
    of g. This is the paper's form of the sum (``_set_partition_sum``),
    which the adjoint engine takes one part at a time instead, so the
    tests compare two derivations.
    """
    lam = partition_from_composition(lam)
    return SymFunc._build(dict(_set_partition_sum(_fsur_p_block, lam)))


def fsurinv_p_direct(lam) -> SymFunc:
    """fsurinv of a power sum product, by the set-partition Mobius formula.

    Sums over set partitions of the index positions; only blocks of equal
    parts contribute, a block c^s the sum of (-1)^(s-1) (s-1)! c^(s-1)
    mu(c/k) p_k over divisors k of c.
    """
    lam = partition_from_composition(lam)
    return SymFunc._build(dict(_set_partition_sum(_fsurinv_p_block, lam)))


# -- word formulas for the inverse ------------------------------------------


def _words_with_content(alpha):
    """All words over [len(alpha)] whose letter i appears alpha[i-1] times."""
    counts = list(alpha)
    total = sum(counts)
    word: list = []

    def rec():
        if len(word) == total:
            yield tuple(word)
            return
        for letter in range(1, len(counts) + 1):
            if counts[letter - 1]:
                counts[letter - 1] -= 1
                word.append(letter)
                yield from rec()
                word.pop()
                counts[letter - 1] += 1

    yield from rec()


def fsurinv_e_words(alpha) -> SymFunc:
    """fsurinv of an elementary product, as a signed sum over words.

    Every word with letter content alpha contributes the e function
    indexed by the multiplicity partition of its Lyndon factorization,
    signed by size minus number of factors.
    """
    alpha = tuple(map(_count, _integers(alpha)))
    total = sum(alpha)
    collected: Counter = Counter()
    for w in _words_with_content(alpha):
        pi = pi_of_word(w)
        collected[pi] += (-1) ** (total - sum(pi))
    return _linear_combination(
        [(c, from_basis("e", pi)) for pi, c in collected.items() if c]
    )


def fsurinv_h_direct(r: int) -> SymFunc:
    """fsurinv of a single complete homogeneous function: the sum over k of
    h_(r-2k) times (-1)^k e_k, the x^r coefficient of H(x) Emin(x^2)."""
    return _assignment_sum((_count(r),), [("H", (1,)), ("Emin", (2,))])


# -- generating function identities ------------------------------------------


def genfunc_identity_check(num_vars: int, bound: int, which: str) -> bool:
    """Check a word-indexed product identity for fsurinv, degree by degree.

    which="reciprocal": fsurinv applied coefficientwise to the reciprocal
    of a product of complete homogeneous series equals the corresponding
    product over Lyndon words. which="product": the direct product
    version, whose right side divides by the product over Lyndon words
    on the squared (pair) alphabet. Both sides are power series in
    num_vars commuting variables with symmetric function coefficients,
    compared at every x^alpha with |alpha| <= ``bound``. Each factor of
    the right side is one standard series, H or its inverse Emin, laid
    along a word's content vector, so its x^alpha coefficient is
    ``_assignment_sum`` over the words' (series, content vector) pairs.
    """
    num_vars, bound = _count(num_vars, 1), _count(bound, 1)
    if which not in ("reciprocal", "product"):
        raise ValueError(f"unknown identity {which!r}")
    name = "Emin" if which == "reciprocal" else "H"
    pairs = [(name, content_vector(w, num_vars)) for w in lyndon_words(num_vars, bound)]
    if which == "product":
        pair_alphabet = list(product(range(1, num_vars + 1), repeat=2))
        for w in lyndon_words(pair_alphabet, bound // 2):
            # A pair (i, j) adds one to the exponent of each of i and j.
            pairs.append(("Emin", content_vector([i for pair in w for i in pair], num_vars)))

    for alpha in product(range(bound + 1), repeat=num_vars):
        if sum(alpha) > bound:
            continue
        index = partition_from_composition(alpha)
        if which == "reciprocal":
            lhs = fsurinv(from_basis("e", index)) * ((-1) ** sum(alpha))
        else:
            lhs = fsurinv(from_basis("h", index))
        if lhs != _assignment_sum(alpha, pairs):
            return False
    return True


# -- coefficient families -----------------------------------------------------


@lru_cache(maxsize=None)
def _horizontal_strips(mu) -> tuple:
    """Every nu with mu/nu a horizontal strip: mu_(i+1) <= nu_i <= mu_i."""
    choices = [range(low, high + 1) for high, low in zip(mu, mu[1:] + (0,))]
    return tuple(tuple(part for part in nu if part) for nu in product(*choices))


@lru_cache(maxsize=None)
def _column(kind: str, lam):
    """Schur coefficients (mu -> int) of one family's map applied to s_lam.

    t: fsur; u: fsurinv; a: fsur, then skewed by H, which by Pieri sums
    t_lam^nu over nu with nu/mu a horizontal strip; b: skewed by Emin,
    then fsurinv, which inverts the a map because H * Emin = 1, and sums
    (-1)^|lam/kappa| u_kappa^mu over kappa with lam/kappa a vertical
    strip. The read-only mapping is shared by every caller.
    """
    if kind in ("t", "u"):
        transform = fsur if kind == "t" else fsurinv
        return MappingProxyType(to_basis_int(transform(from_basis("s", lam)), "s"))
    column: dict = {}
    if kind == "a":
        for nu, value in _column("t", lam).items():
            for mu in _horizontal_strips(nu):
                column[mu] = column.get(mu, 0) + value
    elif kind == "b":
        for kappa in map(conjugate, _horizontal_strips(conjugate(lam))):
            sign = (-1) ** (sum(lam) - sum(kappa))
            for mu, value in _column("u", kappa).items():
                column[mu] = column.get(mu, 0) + sign * value
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    return MappingProxyType({mu: value for mu, value in column.items() if value})


def coeff(kind: str, lam, mu) -> int:
    """One restriction-style coefficient, always an exact integer.

    The coefficient is the s_mu entry of the family's map applied to
    s_lam (see ``_column``). The r map is the full transform fsur * H, so
    its entry <s_lam, s_mu[H]> sums t_lam^nu over nu with mu/nu a
    horizontal strip. Shares its memo with ``coeff_table``.
    """
    return _coeff(kind, as_partition(lam), as_partition(mu))


def _coeff(kind: str, lam: tuple, mu: tuple) -> int:
    """``coeff`` on partitions already validated as canonical tuples."""
    if kind == "r":
        column = _column("t", lam)
        return sum(column.get(nu, 0) for nu in _horizontal_strips(mu))
    return _column(kind, lam).get(mu, 0)


def coeff_table(kind: str, maxdeg: int) -> tuple:
    """(index, matrix) for one coefficient family through the given degree.

    The index lists partitions of size 0..maxdeg in canonical order; the
    matrix entry [i][j] is the coefficient with row index mu = index[i]
    (the module side) and column index lam = index[j].
    """
    index = partitions_up_to(maxdeg)
    matrix = [[_coeff(kind, lam, mu) for lam in index] for mu in index]
    return index, matrix


def stable_matrix(kind: str, maxdeg: int) -> tuple:
    """(index, matrix) for the stable families a and b.

    The b table is the inverse of the a table. Through degree 6 the strip
    formula for b is checked by exact integer b·a = I, which for square
    matrices is b = a^-1; a mismatch is an internal error, never returned.
    """
    if kind not in ("a", "b"):
        raise ValueError("stable_matrix covers kinds 'a' and 'b'")
    index, matrix = coeff_table(kind, maxdeg)
    if kind == "b" and maxdeg <= 6:
        _, a_matrix = coeff_table("a", maxdeg)
        size = len(index)
        for i, row in enumerate(matrix):
            for j in range(size):
                entry = sum(row[k] * a_matrix[k][j] for k in range(size))
                if entry != (i == j):
                    raise InternalCheckError(
                        "b formula times the a table is not the identity "
                        f"at ({index[i]}, {index[j]})"
                    )
    return index, matrix


# -- vanishing and the Durfee criterion ---------------------------------------


def vanishing_check(kind: str, lam, mu) -> bool:
    """Whether the necessary positivity bound holds for the given family.

    r compares lam against mu with its first part removed; t and a
    compare against mu itself. A False return certifies the coefficient
    is zero.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    if kind not in VANISHING_KINDS:
        raise ValueError(f"unknown vanishing kind {kind!r}")
    target = hat(mu) if kind == "r-bound" else mu
    overlap = sum(intersect(lam, target))
    return overlap >= 2 * sum(target) - sum(lam)


def durfee_criterion(mu, k: int) -> bool:
    """Whether the Durfee square of mu is at most 2^(k-1)."""
    return durfee(as_partition(mu)) <= 2 ** (_count(k, 1) - 1)


def _e_values_at_unity(rho, rmax: int) -> tuple:
    """e_0..e_rmax evaluated on the cycle-type eigenvalue multiset of rho.

    The elementary generating polynomial at those eigenvalues is the
    product over parts p of (1 - (-t)^p), so the values come from one
    integer polynomial product.
    """
    coeffs = [0] * (rmax + 1)
    coeffs[0] = 1
    for part in rho:
        if part > rmax:
            continue
        sign = -((-1) ** part)
        for d in range(rmax, part - 1, -1):
            coeffs[d] += sign * coeffs[d - part]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _schur_at_unity(lam, rho) -> int:
    """Schur function of lam evaluated at the eigenvalues attached to rho.

    Dual Jacobi-Trudi determinant det(e_{lam'_i - i + j}) in elementary
    values, of side lam_1, taken by Bareiss fraction-free elimination:
    O(lam_1^3) integer steps, each division exact, a row swap flipping
    the sign.
    """
    lam_t = conjugate(lam)
    m = len(lam_t)
    if m == 0:
        return 1
    rmax = sum(lam)
    values = _e_values_at_unity(rho, rmax)
    rows = [
        [values[r] if 0 <= r <= rmax else 0 for r in range(part - i, part - i + m)]
        for i, part in enumerate(lam_t)
    ]
    sign, previous = 1, 1
    for k in range(m - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, m) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for row in rows[k + 1 :]:
            for j in range(k + 1, m):
                row[j] = (row[j] * pivot - row[k] * rows[k][j]) // previous
        previous = pivot
    return sign * rows[-1][-1]


def restriction_coeff_eval(lam, mu) -> int:
    """r coefficient by evaluation over cycle types (no plethysm).

    Averages the Schur evaluation at permutation eigenvalues against the
    character of mu. Used by the witness search where the transform route
    would need degree up to k*|mu|.
    """
    return _restriction_coeff_eval(as_partition(lam), as_partition(mu))


@lru_cache(maxsize=None)
def _restriction_coeff_eval(lam, mu) -> int:
    """|mu|! r is the int sum of chi_mu(rho) |mu|!/z_rho s_lam(rho) over rho."""
    size = factorial(sum(mu))
    total = sum(c * _schur_at_unity(lam, rho) for rho, c in _s_scaled_in_p(mu))
    value, remainder = divmod(total, size)
    if remainder:
        raise IntegralityError(
            f"r coefficient for {lam}, {mu} is {Fraction(total, size)}"
        )
    return value


def witness_search(mu, k: int):
    """Smallest-width witness lam with lam_1 <= k and positive r, or None.

    Search bound |lam| <= k * |mu|. r_lam^mu is <s_lam, s_mu[H]>; split
    H = A + B with A = 1 + h_1 + ... + h_k. Then s_mu[A + B] is the sum
    over nu of s_nu[A] s_{mu/nu}[B] (Macdonald I.8). For j > k every Schur
    term of s_alpha[h_j], |alpha| >= 1, has first row at least j: it is
    Schur positive and a summand of h_j^|alpha|, whose terms have at least
    j columns by Pieri's rule, and Schur products keep the longest first
    row of their factors. So only nu = mu pairs nonzero with s_lam when
    lam_1 <= k: r_lam^mu = <s_lam, s_mu[A]>, of degree at most k|mu|. The
    bound is loose: in the k=2 sweep of every |mu| <= 12 (254 witnesses,
    18 None) the largest witness is 11/24 of k*|mu|, at mu = (1^12), and
    every witness has |lam| <= |mu| - 1; a None still searches it all.
    """
    mu = as_partition(mu)
    k = _count(k, 1)
    for size in range(k * sum(mu) + 1):
        for lam in partitions_of(size, max_part=k):
            if _restriction_coeff_eval(lam, mu) > 0:
                return lam
    return None


# -- character-basis companions ------------------------------------------------


def tilde_h(lam) -> SymFunc:
    """Inverse transform of a complete homogeneous product."""
    return fsurinv(from_basis("h", as_partition(lam)))


def tilde_s(lam) -> SymFunc:
    """Inverse transform of the H-skewed Schur function."""
    lam = as_partition(lam)
    skewed = skew(standard_series("H", sum(lam)), from_basis("s", lam))
    return fsurinv(skewed)
