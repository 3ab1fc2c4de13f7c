"""The Frobenius transform of symmetric functions and its relatives.

The surjective transform ``fsur`` is the Hall adjoint of plethysm by the
positive-degree complete homogeneous series; its inverse ``fsurinv`` is
the adjoint of plethysm by Cadogan's series. The full transform is
``fsur(f)`` times the complete homogeneous series. The coefficient
families t and u are the Schur matrices of fsur and fsurinv; r, a and b
are Pieri strip sums over their memoized columns. Alongside the
adjoint engine this module carries the closed-form expansions in the h,
e and p bases, the word formulas for the inverse in the e basis,
vanishing bounds, and the Durfee square criterion with its witness
search.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import factorial, gcd, lcm
from types import MappingProxyType

from .lyndon import content_vector, lyndon_words, pi_of_word
from .partitions import (
    _PART_ENTRIES,
    _block_splits,
    _count,
    _part_id,
    as_partition,
    conjugate,
    divisors,
    durfee,
    hat,
    intersect,
    partition_from_composition,
    partitions_of,
    partitions_up_to,
    z_value,
)
from .symfunc import (
    IntegralityError,
    InternalCheckError,
    SymFunc,
    _int_column_sum,
    _linear_combination,
    _s_scaled_in_p,
    _series_coefficient,
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
def _block_weights(series_name: str, block) -> tuple:
    """(k, z_block [p_{block/k}] g) for each k dividing every part of block.

    g is the named standard series; each weight reads one coefficient of
    it. Only nonzero weights are listed; each must be an integer.
    """
    z = z_value(block)
    out = []
    for k in divisors(gcd(*block)):
        c = _series_coefficient(series_name, tuple(part // k for part in block))
        if not c:
            continue
        weight, remainder = divmod(z * c.numerator, c.denominator)
        if remainder:
            raise IntegralityError(
                f"weight of block {block} under p_{k}[{series_name}] is {z * c}"
            )
        out.append((k, weight))
    return tuple(out)


@lru_cache(maxsize=None)
def _pleth_coeff(series_name: str, rho) -> tuple:
    """The nonzero (id of nu, <p_nu[g], p_rho>) pairs, g the named standard series.

    Each value is z_rho [p_rho] p_nu[g], an exact int. Pairing a product
    against p_rho splits the positions of rho into one nonempty block per
    part of nu, and a part k covers a block when it divides every part of
    it, with weight z_block [p_{block/k}] g. The recursion takes the block
    holding rho[0]: rho[0] plus a sub-multiset sigma of the rest, whose
    positions can be chosen in prod_j comb(m_j(rest), m_j(sigma)) ways;
    any of the m_k(nu) parts equal to k may cover it. One entry serves
    every cutoff, since only the terms of g through degree |rho| enter.
    A series with a constant term is rejected: there nu is unbounded.
    Each nu is keyed by its partition id (``partitions._PART_ENTRIES``).
    """
    if _series_coefficient(series_name, ()):
        raise ValueError(f"series {series_name!r} has a constant term")
    if not rho:
        return ((_part_id(()), 1),)
    column: dict = {}
    get = column.get
    for sigma, ways, left in _block_splits(rho[1:]):
        weights = _block_weights(series_name, rho[:1] + sigma)
        if not weights:
            continue
        remainder = _pleth_coeff(series_name, left)
        for k, weight in weights:
            scale = ways * weight
            for nu, value in remainder:
                key, m_k = _insert_part(nu, k)
                column[key] = get(key, 0) + m_k * scale * value
    return tuple((nu, value) for nu, value in column.items() if value)


@lru_cache(maxsize=None)
def _insert_part(nu: int, k: int) -> tuple:
    """(id of nu with one more part k, the number of parts k it then has).

    nu is a partition id, like the result.
    """
    lam = _PART_ENTRIES[nu][0]
    i = 0
    while i < len(lam) and lam[i] > k:
        i += 1
    j = i
    while j < len(lam) and lam[j] == k:
        j += 1
    return _part_id(lam[:j] + (k,) + lam[j:]), j - i + 1


def _adjoint_apply(f: SymFunc, series_name: str) -> SymFunc:
    """Apply the Hall adjoint of plethysm-by-series to the exact element f.

    The p_nu coefficient of the result is (1/z_nu) sum_rho f_rho
    <p_nu[g], p_rho>. With f's int numerators over its denominator D,
    the sum runs in ints along each memoized column, keyed by partition
    id. With L the lcm of the z_nu of the nonzero totals, the result is
    total * (L / z_nu) over D * L, reduced once.
    """
    if f.cutoff is not None:
        raise ValueError("the transform is defined on exact symmetric functions")
    totals, denominator = _int_column_sum(f, partial(_pleth_coeff, series_name))
    entries = [(_PART_ENTRIES[nu], total) for nu, total in totals.items() if total]
    scale = lcm(*(z for (_, z), _ in entries))
    nums = {lam: total * (scale // z) for (lam, z), total in entries}
    return SymFunc._build(nums, denominator * scale)


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


def _assignments(vectors, target):
    """Multiplicity assignments M over the vectors with column sums = target.

    Yields Counter keys (h_values, e_values) where each entry of the pair
    is the sorted tuple of positive multiplicities landing in that slot;
    the caller decides each vector's slot via its attached tag.
    Vectors are (tag, vector) pairs with tag 0 (h slot) or 1 (e slot).
    """
    counter: Counter = Counter()
    ell = len(target)
    h_vals: list = []
    e_vals: list = []

    def rec(idx, remaining):
        if not any(remaining):
            counter[
                (
                    tuple(sorted(h_vals, reverse=True)),
                    tuple(sorted(e_vals, reverse=True)),
                )
            ] += 1
            return
        if idx == len(vectors):
            return
        tag, vec = vectors[idx]
        rec(idx + 1, remaining)
        cmax = min(remaining[t] // vec[t] for t in range(ell) if vec[t])
        bucket = h_vals if tag == 0 else e_vals
        for count in range(1, cmax + 1):
            rem = tuple(remaining[t] - count * vec[t] for t in range(ell))
            bucket.append(count)
            rec(idx + 1, rem)
            bucket.pop()

    rec(0, tuple(target))
    return counter


def fsur_h_direct(lam) -> SymFunc:
    """fsur of a product of complete homogeneous functions, by direct expansion.

    Sums over multiplicity assignments on nonzero nonnegative vectors
    whose weighted column sums reproduce lam; each assignment contributes
    the h product of its positive multiplicities.
    """
    lam = partition_from_composition(lam)
    if not lam:
        return SymFunc.one()
    vectors = [
        (0, v)
        for v in product(*(range(part + 1) for part in lam))
        if any(v)
    ]
    vectors.sort(key=lambda tv: -sum(tv[1]))
    assignments = _assignments(vectors, lam).items()
    return _linear_combination(
        [(count, from_basis("h", h_vals)) for (h_vals, _), count in assignments]
    )


def fsur_e_direct(lam) -> SymFunc:
    """fsur of a product of elementary functions, by direct expansion.

    Same shape as the h rule but over 0/1 vectors; a multiplicity sits in
    an h factor when its vector has even support size, an e factor when
    odd.
    """
    lam = partition_from_composition(lam)
    if not lam:
        return SymFunc.one()
    ell = len(lam)
    vectors = [
        (sum(v) % 2, v) for v in product((0, 1), repeat=ell) if any(v)
    ]
    vectors.sort(key=lambda tv: -sum(tv[1]))
    return _linear_combination(
        [
            (count, from_basis("h", h_vals) * from_basis("e", e_vals))
            for (h_vals, e_vals), count in _assignments(vectors, lam).items()
        ]
    )


@lru_cache(maxsize=None)
def _divisor_power_sum(g: int, size: int) -> SymFunc:
    return SymFunc._build({(d,): d ** (size - 1) for d in divisors(g)})


def fsur_p_direct(lam) -> SymFunc:
    """fsur of a power sum product, by the set-partition divisor formula.

    Sums over set partitions of the index positions; a block of size s
    with part gcd g contributes the sum of d^(s-1) p_d over divisors d
    of g.
    """
    return _fsur_p_direct(partition_from_composition(lam))


@lru_cache(maxsize=None)
def _fsur_p_direct(lam) -> SymFunc:
    """``fsur_p_direct`` on a partition tuple.

    As in ``_pleth_coeff`` the recursion takes the block holding lam[0]:
    lam[0] plus a sub-multiset sigma of the rest, chosen in ``ways`` ways
    (``_block_splits``); the rest is partitioned on its own.
    """
    if not lam:
        return SymFunc.one()
    summands = []
    for sigma, ways, left in _block_splits(lam[1:]):
        block = lam[:1] + sigma
        weight = _divisor_power_sum(gcd(*block), len(block))
        summands.append((ways, weight * _fsur_p_direct(left)))
    return _linear_combination(summands)


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
    alpha = tuple(map(_count, alpha))
    total = sum(alpha)
    collected: Counter = Counter()
    for w in _words_with_content(alpha):
        pi = pi_of_word(w)
        collected[pi] += (-1) ** (total - sum(pi))
    return _linear_combination(
        [(c, from_basis("e", pi)) for pi, c in collected.items() if c]
    )


def fsurinv_h_direct(r: int) -> SymFunc:
    """fsurinv of a single complete homogeneous function: alternating h e sum."""
    r = _count(r)
    summands = []
    for k in range(r // 2 + 1):
        h = from_basis("h", (r - 2 * k,) if r - 2 * k else ())
        e = from_basis("e", (k,) if k else ())
        summands.append(((-1) ** k, h * e))
    return _linear_combination(summands)


# -- generating function identities ------------------------------------------


def _tpoly_mul(a: dict, b: dict, bound: int) -> dict:
    out: dict = {}
    for expa, fa in a.items():
        da = sum(expa)
        for expb, fb in b.items():
            if da + sum(expb) > bound:
                continue
            key = tuple(x + y for x, y in zip(expa, expb))
            cur = out.get(key)
            out[key] = fb * fa if cur is None else cur + fa * fb
    return {k: v for k, v in out.items() if not v.is_zero}


def _series_factor(exponent, bound: int, kind: str, num_vars: int) -> dict:
    """Single-word factor: all h_r (kind "h") or (-1)^r e_r (kind "e") terms."""
    step = sum(exponent)
    out = {(0,) * num_vars: SymFunc.one()}
    r = 1
    while r * step <= bound:
        key = tuple(r * x for x in exponent)
        if kind == "h":
            out[key] = from_basis("h", (r,))
        else:
            out[key] = from_basis("e", (r,)) * ((-1) ** r)
        r += 1
    return out


def genfunc_identity_check(num_vars: int, bound: int, which: str) -> bool:
    """Check a word-indexed product identity for fsurinv, degree by degree.

    which="reciprocal": fsurinv applied coefficientwise to the reciprocal
    of a product of complete homogeneous series equals the corresponding
    product over Lyndon words. which="product": the direct product
    version, whose right side divides by the product over Lyndon words
    on the squared (pair) alphabet. Both sides are expanded as
    polynomials in num_vars commuting variables through total degree
    ``bound`` with exact symmetric function coefficients.
    """
    num_vars, bound = _count(num_vars, 1), _count(bound, 1)
    if which not in ("reciprocal", "product"):
        raise ValueError(f"unknown identity {which!r}")

    zero_key = (0,) * num_vars
    lhs: dict = {}
    for alpha in product(range(bound + 1), repeat=num_vars):
        if sum(alpha) > bound:
            continue
        index = partition_from_composition(alpha)
        if which == "reciprocal":
            value = fsurinv(from_basis("e", index)) * ((-1) ** sum(alpha))
        else:
            value = fsurinv(from_basis("h", index))
        if not value.is_zero:
            lhs[alpha] = value

    rhs: dict = {zero_key: SymFunc.one()}
    for w in lyndon_words(num_vars, bound):
        exponent = content_vector(w, num_vars)
        kind = "e" if which == "reciprocal" else "h"
        rhs = _tpoly_mul(rhs, _series_factor(exponent, bound, kind, num_vars), bound)
    if which == "product":
        pair_alphabet = [
            (i, j)
            for i in range(1, num_vars + 1)
            for j in range(1, num_vars + 1)
        ]
        for w in lyndon_words(pair_alphabet, bound // 2):
            exponent = [0] * num_vars
            for (i, j) in w:
                exponent[i - 1] += 1
                exponent[j - 1] += 1
            rhs = _tpoly_mul(
                rhs, _series_factor(tuple(exponent), bound, "e", num_vars), bound
            )
    return lhs == rhs


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
