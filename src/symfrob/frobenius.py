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
a and b are Pieri strip sums over their memoized columns, and r is read
from memoized |mu|-slices, each the t column pushed up the horizontal
strips to one size |mu|, so every coefficient read is one memo lookup
after validation. Alongside the adjoint engine this module carries
the closed-form expansions of fsur in the h, e and p bases and of
fsurinv in the p basis, the word formulas for the inverse in the e
basis, vanishing bounds, and the Durfee square criterion with its
witness search. The p closed forms read the m basis's set-partition sum
``symfunc._set_partition_sum`` with their own block weights. The h and e
ones, the closed form of fsurinv on one h_r and the word-indexed product
identities all read a product of standard series at one monomial, and
share ``_assignment_sum`` for it.
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
    _conjugate,
    _count,
    _integers,
    _part_id,
    as_partition,
    divisors,
    durfee,
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
    _basis_element,
    _check_exact,
    _int_column_sum,
    _int_expansion,
    _linear_combination,
    _series_term,
    _set_partition_sum,
    from_basis,
    plethysm,
    skew,
    standard_series,
    to_basis_int,
)

COEFF_KINDS = ("r", "t", "u", "a", "b")

_COLUMN_KINDS = COEFF_KINDS[1:]  # the kinds with one ``_column`` per lam

VANISHING_KINDS = ("r-bound", "t-bound", "a-bound", "length-bound")


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
    _check_exact(f)
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
    finite. Kept as an independent cross-check of fsurinv. The first
    ``fsur(cur)`` is the gate: it raises the TypeError or ValueError of
    an argument that is not an exact element before any other work.
    """
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
def _schur_plethysm(mu, cutoff: int) -> SymFunc:
    return plethysm(_basis_element("s", mu), standard_series("Hgeq2", cutoff))


def fsur_expansion(f: SymFunc) -> SymFunc:
    """fsur as a finite sum of multiply-then-skew operators.

    Each summand multiplies by a Schur function after skewing by its
    plethysm with h_2 + h_3 + ..., whose minimum degree 2|nu| bounds the
    sum at 2|nu| <= deg f.
    """
    _check_exact(f)
    if f.is_zero:
        return SymFunc.zero()
    degree = f.degree
    summands = []
    for m in range(degree // 2 + 1):
        for nu in partitions_of(m):
            skewed = skew(_schur_plethysm(nu, degree), f)
            if not skewed.is_zero:
                summands.append((1, _basis_element("s", nu) * skewed))
    return _linear_combination(summands)


# -- closed-form expansions -------------------------------------------------


def _assignment_sum(lam, pairs) -> SymFunc:
    """The coefficient of x^lam in the product over the (series name,
    vector) pairs of sum_r ``_series_term(name, r)`` x^(r v).

    It is the sum over the multiplicity assignments M with sum_v M(v) v =
    lam of the product of the terms ``_series_term(name, M(v))`` over the
    pairs with M(v) > 0. Each level of the recursion picks the next pair
    with M(v) > 0, those of largest sum first, and fixes M(v), so the
    depth is the number of factors, at most |lam|. It counts each
    multiset of (name, M(v)) factors; each distinct product is built once.
    The zero lam has one assignment, the empty one, so its sum is 1.
    """
    pairs = sorted(pairs, key=lambda nv: -sum(nv[1]))
    found: Counter = Counter()

    def rec(start, remaining, factors):
        if not any(remaining):
            found[tuple(sorted(factors))] += 1
            return
        for idx in range(start, len(pairs)):
            name, vec = pairs[idx]
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


def _words_with_content(counts):
    """Every word over [len(counts)] whose letter i appears counts[i-1]
    times, each once, in lexicographic order."""
    if not any(counts):
        yield ()
    for letter, count in enumerate(counts, 1):
        if count:
            rest = counts[: letter - 1] + (count - 1,) + counts[letter:]
            yield from ((letter,) + word for word in _words_with_content(rest))


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
        [(c, _basis_element("e", pi)) for pi, c in collected.items() if c]
    )


def fsurinv_h_direct(r: int) -> SymFunc:
    """fsurinv of a single complete homogeneous function: the sum over k of
    h_(r-2k) times (-1)^k e_k, the x^r coefficient of H(x) Emin(x^2), the
    one-variable "product" identity of ``genfunc_identity_check``."""
    r = _count(r)
    return _assignment_sum((r,), _lyndon_factors(1, r, "product"))


# -- generating function identities ------------------------------------------


def _lyndon_factors(num_vars: int, bound: int, which: str) -> list:
    """The (series name, content vector) factors of the right side of a
    word identity (``genfunc_identity_check``) through x-degree bound.

    One factor per Lyndon word w over [num_vars] of length <= bound: Emin
    along the content of w for "reciprocal", H for "product"; "product"
    adds Emin along each Lyndon word over the pair alphabet [num_vars]^2
    of length <= bound // 2, a pair (i, j) adding one to the exponent of
    each of i and j.
    """
    if which not in ("reciprocal", "product"):
        raise ValueError(f"unknown identity {which!r}")
    name = "Emin" if which == "reciprocal" else "H"
    pairs = [(name, content_vector(w, num_vars)) for w in lyndon_words(num_vars, bound)]
    if which == "product":
        pair_alphabet = list(product(range(1, num_vars + 1), repeat=2))
        for w in lyndon_words(pair_alphabet, bound // 2):
            pairs.append(("Emin", content_vector([i for pair in w for i in pair], num_vars)))
    return pairs


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
    along a word's content vector (``_lyndon_factors``), so its x^alpha
    coefficient is ``_assignment_sum`` over those factors.
    """
    num_vars, bound = _count(num_vars, 1), _count(bound, 1)
    pairs = _lyndon_factors(num_vars, bound, which)
    for alpha in product(range(bound + 1), repeat=num_vars):
        if sum(alpha) > bound:
            continue
        index = partition_from_composition(alpha)
        if which == "reciprocal":
            lhs = fsurinv(_basis_element("e", index)) * ((-1) ** sum(alpha))
        else:
            lhs = fsurinv(_basis_element("h", index))
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
def _upper_strips(nu, size: int) -> tuple:
    """Every mu of the given size with mu/nu a horizontal strip:
    nu_(i-1) >= mu_i >= nu_i, mu_1 >= nu_1 unbounded above.

    The inverse of ``_horizontal_strips``: mu is listed here exactly when
    nu is listed there. Each of mu_2, ..., mu_(len(nu)+1) adds at most the
    boxes left over, and mu_1 takes the rest, which must be at least nu_1.
    Callers pass |nu| <= size. It does not depend on lam, so every r slice
    shares it.
    """
    extra = size - sum(nu)
    choices = [range(low, min(high, low + extra) + 1) for high, low in zip(nu, nu[1:] + (0,))]
    first_low = nu[0] if nu else 0
    strips = []
    for rest in product(*choices):
        first = size - sum(rest)
        if first >= first_low:
            strips.append(tuple(part for part in (first,) + rest if part))
    return tuple(strips)


@lru_cache(maxsize=None)
def _column(kind: str, lam):
    """Schur coefficients (mu -> int) of one family's map applied to s_lam.

    t: fsur; u: fsurinv; a: fsur, then skewed by H, which by Pieri sums
    t_lam^nu over nu with nu/mu a horizontal strip; b: skewed by Emin,
    then fsurinv, which inverts the a map because H * Emin = 1, and sums
    (-1)^|lam/kappa| u_kappa^mu over kappa with lam/kappa a vertical
    strip. r has no column here: it is read by |mu|-slices of the t
    column (``_r_slice``). The read-only mapping is shared by every
    caller; kind is one of t, u, a and b: ``coeff`` calls it for the
    kinds in ``_COLUMN_KINDS`` only, and ``_entries`` after its own check
    against ``COEFF_KINDS``. t and u are the integral reader
    ``to_basis_int(·, "s")`` of the transform, which sums its int
    numerators along the character columns ``symfunc._p_column("s", ·)``,
    one border strip at a time (``symfunc._strip_step``), and the strip
    sums add ints, so no family builds a Fraction.

    Signs. fsur and fsurinv are the Hall adjoints of plethysm by Hplus and
    by Cadogan, so t_lam^mu = <s_lam, s_mu[Hplus]>, and Hplus is Schur
    positive: t >= 0, and so are its strip sums a and r. Let w~ be the
    involution p_k -> -p_k, (-1)^deg(f) omega(f) on homogeneous f, with
    w~(f[g]) = f[w~ g] and f[-Y] = (w~ f)[Y]. Cadogan = -w~(Lsum), so
    s_mu[Cadogan] = (-1)^|mu| w~(s_mu'[Lsum]) and
    u_lam^mu = (-1)^(|lam|-|mu|) <s_lam', s_mu'[Lsum]>. Lsum, the character
    of the free Lie algebra, is Schur positive (Reutenauer, ch. 8), and so
    is a Schur function composed with it (Macdonald I.8): (-1)^(|lam|-|mu|)
    u >= 0. The vertical-strip sum of b turns into a horizontal one over
    lam', so (-1)^(|lam|-|mu|) b_lam^mu = <s_lam', H s_mu'[Lsum]> >= 0.
    """
    if kind in ("t", "u"):
        transform = fsur if kind == "t" else fsurinv
        return MappingProxyType(to_basis_int(transform(_basis_element("s", lam)), "s"))
    column: dict = {}
    if kind == "a":
        for nu, value in _column("t", lam).items():
            for mu in _horizontal_strips(nu):
                column[mu] = column.get(mu, 0) + value
    else:
        for kappa in map(_conjugate, _horizontal_strips(_conjugate(lam))):
            sign = (-1) ** (sum(lam) - sum(kappa))
            for mu, value in _column("u", kappa).items():
                column[mu] = column.get(mu, 0) + sign * value
    return MappingProxyType({mu: value for mu, value in column.items() if value})


@lru_cache(maxsize=None)
def _r_slice(lam, m: int):
    """The r entries of lam at size m (mu -> int, every mu of size m),
    read-only like ``_column``.

    The r map is the full transform fsur * H, so by Pieri r_lam^mu =
    <s_lam, s_mu[H]> sums t_lam^nu over nu with mu/nu a horizontal strip.
    Pushed upward: each nonzero entry (nu, t) of the t column with |nu| <=
    m adds t to every mu of ``_upper_strips(nu, m)``. H has a term in
    every degree, so a slice can be nonzero at any m, beyond |lam| too;
    t > 0 on its column, so no entry is 0.
    """
    entries: dict = {}
    get = entries.get
    for nu, value in _column("t", lam).items():
        if sum(nu) <= m:
            for mu in _upper_strips(nu, m):
                entries[mu] = get(mu, 0) + value
    return MappingProxyType(entries)


def _entries(kind: str, lam: tuple, m: int):
    """The memoized map mu -> coefficient of (kind, lam) that holds every mu
    of size m: the |mu|-slice for r, the whole column for t, u, a and b.
    An unknown kind, hashable or not, raises ValueError before any memo."""
    if kind == "r":
        return _r_slice(lam, m)
    if kind not in COEFF_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    return _column(kind, lam)


def coeff(kind: str, lam, mu) -> int:
    """One restriction-style coefficient, always an exact integer.

    The coefficient is the s_mu entry of the family's map applied to
    s_lam: for t, u, a and b one memoized Schur column per lam (see
    ``_column``), for r one memoized slice per (lam, |mu|) (see
    ``_r_slice``), so a warm read is one memo lookup after validation.
    Shares its memos with ``coeff_table``.

    Every family has one sign (derived under ``_column``): r, t and a are
    multiplicities, never negative, and (-1)^(|lam|-|mu|) u and
    (-1)^(|lam|-|mu|) b are the multiplicities <s_lam', s_mu'[Lsum]> and
    <s_lam', H s_mu'[Lsum]>, so u_lam^mu and b_lam^mu have the sign of
    (-1)^(|lam|-|mu|) or vanish.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    # The column kinds skip _entries, which costs them a call and a sum(mu):
    # sent through it, session-warm op_p50_ms read 7.8% slower (2-CPU VM).
    if kind in _COLUMN_KINDS:
        return _column(kind, lam).get(mu, 0)
    return _entries(kind, lam, sum(mu)).get(mu, 0)


def coeff_table(kind: str, maxdeg: int) -> tuple:
    """(index, matrix) for one coefficient family through the given degree.

    The index lists partitions of size 0..maxdeg in canonical order; the
    matrix entry [i][j] is the coefficient with row index mu = index[i]
    (the module side) and column index lam = index[j]. Each (lam, |mu|)
    reads its column or r slice once (``_entries``).
    """
    index = partitions_up_to(maxdeg)
    reads = [[_entries(kind, lam, m) for m in range(maxdeg + 1)] for lam in index]
    matrix = [[read[sum(mu)].get(mu, 0) for read in reads] for mu in index]
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
    is zero. The length bound, len(lam) <= |mu|, holds for r and t: with
    n = |mu|, r_lam^mu is the multiplicity of V_mu in S^lam K^n, which is
    0 when len(lam) > n, and 0 <= t <= r. It does not hold for a:
    a_(1)^() = 1.

    The r bound is the t bound seen through Pieri. r_lam^mu, the mu entry
    of the |mu|-slice ``_r_slice(lam, |mu|)``, sums t_lam^nu over the nu
    with mu/nu a horizontal strip (``_horizontal_strips(mu)``), and t >=
    0, so r vanishes exactly when every such t does. The t bound at (lam,
    nu) holds when the slack |lam ∩ nu| - 2|nu| + |lam| is >= 0; a box
    added to nu raises |lam ∩ nu| by at most 1 and 2|nu| by 2, so the
    slack drops by at least 1. mu[1:], mu without its first part, is the
    least nu with mu/nu a horizontal strip (nu_i >= mu_(i+1)), and every
    other one contains it, so the r bound, the t bound at mu[1:], fails
    exactly when the t bound fails for every nu.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    if kind not in VANISHING_KINDS:
        raise ValueError(f"unknown vanishing kind {kind!r}")
    if kind == "length-bound":
        return len(lam) <= sum(mu)
    target = mu[1:] if kind == "r-bound" else mu
    overlap = sum(map(min, lam, target))
    return overlap >= 2 * sum(target) - sum(lam)


def durfee_criterion(mu, k: int) -> bool:
    """Whether the Durfee square of mu is at most 2^(k-1)."""
    return durfee(mu) <= 2 ** (_count(k, 1) - 1)


@lru_cache(maxsize=None)
def _e_values_at_unity(rho) -> tuple:
    """e_0..e_|rho| evaluated on the cycle-type eigenvalue multiset of rho.

    The elementary generating polynomial at those |rho| eigenvalues is the
    product over parts p of (1 - (-t)^p), of degree |rho|, so the values
    come from one integer polynomial product and e_r is 0 above |rho|.
    Memoized once per class: every lam evaluated at rho reads this table.
    """
    coeffs = [1] + [0] * sum(rho)
    for part in rho:
        sign = -((-1) ** part)
        for d in range(len(coeffs) - 1, part - 1, -1):
            coeffs[d] += sign * coeffs[d - part]
    return tuple(coeffs)


def _jacobi_trudi(parts, values) -> int:
    """The Jacobi-Trudi determinant det(v_(parts_i - i + j)), i, j <
    len(parts), of the value sequence v_r = values[r], 0 outside
    0 <= r < len(values).

    With parts = lam' and the e values of a specialization it is s_lam
    there (the dual Jacobi-Trudi identity, Macdonald I.3.5). Taken by
    Bareiss fraction-free elimination: O(len(parts)^3) integer steps,
    each division exact, a row swap flipping the sign. Not memoized: a
    search evaluates each (lam, rho) pair once.
    """
    m = len(parts)
    if m == 0:
        return 1
    rows = [
        [values[r] if 0 <= r < len(values) else 0 for r in range(part - i, part - i + m)]
        for i, part in enumerate(parts)
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

    r_lam^mu = dim Hom(V_mu, S^lam K^n), n = |mu|, is the sum over the
    classes rho of S_n of [p_rho] s_mu times s_lam at the eigenvalues of
    rho (Macdonald I.7.8): s_mu's p row is read over its denominator, the
    int total divided once. The witness search reads it where the
    transform route would need degree up to k*|mu|. The route memoizes
    one e-value table per class rho and nothing per (lam, mu) or (lam,
    rho) pair. This front validates lam and mu and hands them to
    ``_restriction_coeff_eval``, which the search calls directly.
    """
    return _restriction_coeff_eval(as_partition(lam), as_partition(mu))


def _restriction_coeff_eval(lam: tuple, mu: tuple) -> int:
    """``restriction_coeff_eval`` on partitions already validated as
    canonical tuples; it validates nothing, so a search over generated
    lam leaves no trace in the validation memo."""
    nums, den = _int_expansion(_basis_element("s", mu), "p")
    lam_t = _conjugate(lam)
    total = sum(c * _jacobi_trudi(lam_t, _e_values_at_unity(rho)) for rho, c in nums.items())
    value, remainder = divmod(total, den)
    if remainder:
        raise IntegralityError(f"r coefficient for {lam}, {mu} is {Fraction(total, den)}")
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
    Each lam is one ``_restriction_coeff_eval``, the unvalidated core of
    ``restriction_coeff_eval``: the search generates canonical lam, so it
    skips the validation memo, which keeps no entry per lam read. Each is
    a determinant of side lam_1 <= k per class of S_|mu|, read from that
    class's memoized e-value table; no (lam, mu) or (lam, rho) pair is
    kept. At k = 3 the tight case (4,4,4,4) gives (3,3,3,3,3), and
    (5,5,5,5,5) reads all 13,429 lam against 589 classes to answer None.
    k = 4 is out of reach by characters: its tight case (8^8) needs |mu|
    = 64, with p(64) = 1,741,630 classes, and its first vanishing case
    (9^9) needs |mu| = 81, with p(81) = 18,004,327.
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
    return fsurinv(from_basis("h", lam))


def tilde_s(lam) -> SymFunc:
    """Inverse transform of the H-skewed Schur function."""
    lam = as_partition(lam)
    skewed = skew(standard_series("H", sum(lam)), _basis_element("s", lam))
    return fsurinv(skewed)
