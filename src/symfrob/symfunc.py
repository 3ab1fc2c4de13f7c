"""Exact arithmetic in the ring of symmetric functions and its completion.

Elements are stored in the power sum basis with Fraction coefficients:
Kronecker products are diagonal there, plethysm is index substitution,
and the degree involution is a sign flip. A SymFunc with ``cutoff=None``
is an exact element of the polynomial ring; ``cutoff=N`` marks a
truncated series, known exactly through degree N with nothing stored
above. Pairing a series that is too short raises PrecisionError rather
than truncating silently.

A basis element is built in ints: its p-expansion times one scale (n!
for s_lam, the product of the part factorials for h_lam, that of the
multiplicity factorials for m_lam) is a memoized row of ints, and e_lam
is omega(h_lam), the same row signed. ``from_basis`` and ``omega`` keep
that row, and its Fraction terms are built only when read; the integer
column sums of the transforms and of the h, e and m conversions read the
row itself. Characters have one memo, ``_border_strip_sum``, keyed by
the bead mask of lam and the class mu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .partitions import (
    _PART_ENTRIES,
    _block_splits,
    _count,
    _integers,
    _part_id,
    as_partition,
    canonical_key,
    divisors,
    mobius,
    multiplicities,
    multiset_diff,
    multiset_union,
    partitions_of,
    z_value,
)

BASES = ("m", "e", "h", "p", "s")


class PrecisionError(Exception):
    """A series cutoff is too small for the exact answer requested."""


class InternalCheckError(Exception):
    """An internal cross-check failed; indicates a bug, not a usage error."""


class IntegralityError(InternalCheckError):
    """A coefficient that must be an integer is not."""


def _normalize_terms(terms, cutoff):
    """Validated terms: int and Fraction coefficients, an integral float
    read as its int; any other coefficient raises ValueError."""
    out = {}
    for lam, c in terms.items():
        lam = as_partition(lam)
        if not isinstance(c, (int, Fraction)):
            try:
                (c,) = _integers((c,))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"coefficients must be ints or Fractions, got {c!r}"
                ) from None
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            continue
        if cutoff is not None and sum(lam) > cutoff:
            raise ValueError(f"term of degree {sum(lam)} above cutoff {cutoff}")
        out[lam] = c
    return out


class SymFunc:
    """A symmetric function in the internal power sum representation.

    ``terms`` maps partition tuples to the Fraction coefficient of the
    corresponding power sum product, given as an int, a Fraction or an
    integral float (any other value raises ValueError). ``cutoff=None``
    marks an exact finite element; an integer cutoff marks a truncated
    series. The package's own builders pass ``_validate=False`` and a
    dict built normalized (nonzero Fraction values, none above the int
    cutoff).

    A basis element from ``from_basis`` holds its integer row instead:
    ``_row`` is ``(pairs, scale)``, the element being the sum of
    ``c / scale`` times ``p_nu`` over the pairs ``(nu, c)``, every c a
    nonzero int. Its Fraction terms are built the first time ``_terms``
    is read, and ``_int_column_sum`` reads the row without them.
    """

    __slots__ = ("_dict", "_row", "cutoff")

    def __init__(self, terms=None, cutoff=None, _validate=True):
        if _validate:
            cutoff = None if cutoff is None else _count(cutoff)
            terms = _normalize_terms(terms or {}, cutoff)
        self._dict = terms
        self._row = None
        self.cutoff = cutoff

    @classmethod
    def _from_row(cls, pairs, scale: int) -> "SymFunc":
        """The exact element sum of (c / scale) p_nu over the (nu, c) pairs."""
        f = cls.__new__(cls)
        f._dict = None
        f._row = (pairs, scale)
        f.cutoff = None
        return f

    @property
    def _terms(self) -> dict:
        """The partition -> Fraction dict, built from the row on first read."""
        terms = self._dict
        if terms is None:
            pairs, scale = self._row
            terms = self._dict = {nu: Fraction(c, scale) for nu, c in pairs}
        return terms

    @classmethod
    def zero(cls, cutoff=None):
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff=None):
        return cls({(): 1}, cutoff)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_series(self) -> bool:
        return self.cutoff is not None

    @property
    def degree(self) -> int:
        """Largest degree with a nonzero term (0 for the zero element)."""
        return max((sum(lam) for lam in self._terms), default=0)

    def terms(self):
        """Iterate (partition, coefficient) pairs, unspecified order."""
        return self._terms.items()

    def support(self) -> list:
        return sorted(self._terms, key=canonical_key)

    def coefficient(self, lam) -> Fraction:
        """Coefficient of p_lam; raises PrecisionError beyond the cutoff."""
        lam = as_partition(lam)
        if self.cutoff is not None and sum(lam) > self.cutoff:
            raise PrecisionError(
                f"degree {sum(lam)} is beyond the cutoff {self.cutoff}"
            )
        return self._terms.get(lam, Fraction(0))

    def homogeneous_component(self, n: int) -> "SymFunc":
        """The exact degree-n part (requires n within the cutoff)."""
        n = _count(n)
        if self.cutoff is not None and n > self.cutoff:
            raise PrecisionError(f"degree {n} is beyond the cutoff {self.cutoff}")
        terms = {lam: c for lam, c in self._terms.items() if sum(lam) == n}
        return SymFunc(terms, None, _validate=False)

    def truncate(self, n: int) -> "SymFunc":
        """View through degree n as a series with cutoff n."""
        n = _count(n)
        if self.cutoff is not None and n > self.cutoff:
            raise PrecisionError(
                f"cannot extend cutoff {self.cutoff} to {n}"
            )
        terms = {lam: c for lam, c in self._terms.items() if sum(lam) <= n}
        return SymFunc(terms, n, _validate=False)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, SymFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return SymFunc({(): Fraction(x)} if x else {}, None, _validate=False)
        return NotImplemented

    @staticmethod
    def _min_cutoff(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cutoff = self._min_cutoff(self.cutoff, other.cutoff)
        out = dict(self._terms)
        for lam, c in other._terms.items():
            total = out.get(lam, 0) + c
            if total:
                out[lam] = total
            else:
                del out[lam]
        if cutoff is not None:
            out = {lam: c for lam, c in out.items() if sum(lam) <= cutoff}
        return SymFunc(out, cutoff, _validate=False)

    __radd__ = __add__

    def __neg__(self):
        return SymFunc(
            {lam: -c for lam, c in self._terms.items()}, self.cutoff, _validate=False
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymFunc(
                {lam: c * other for lam, c in self._terms.items()} if other else {},
                self.cutoff,
                _validate=False,
            )
        if not isinstance(other, SymFunc):
            return NotImplemented
        cutoff = self._min_cutoff(self.cutoff, other.cutoff)
        out = {}
        other_terms = other._terms.items()
        for lam, a in self._terms.items():
            la = sum(lam)
            for mu, b in other_terms:
                if cutoff is not None and la + sum(mu) > cutoff:
                    continue
                key = multiset_union(lam, mu)
                out[key] = out.get(key, 0) + a * b
        return SymFunc({k: c for k, c in out.items() if c}, cutoff, _validate=False)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _count(n)
        result = SymFunc.one(self.cutoff)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if self is other:
            return True
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.cutoff == other.cutoff and self._terms == other._terms

    def __hash__(self):
        return hash((self.cutoff, frozenset(self._terms.items())))

    def __repr__(self):
        if self.is_zero:
            body = "0"
        else:
            bits = []
            terms = self._terms
            for lam in self.support():
                c = terms[lam]
                coef = "" if c == 1 and lam else str(c) + ("*" if lam else "")
                mono = "p[%s]" % ",".join(str(p) for p in lam) if lam else ""
                bits.append(coef + mono if (coef or mono) else "1")
            body = " + ".join(bits)
        tail = "" if self.cutoff is None else f" (cutoff {self.cutoff})"
        return f"<SymFunc {body}{tail}>"


# -- characters and basis expansions ------------------------------------


def character_value(lam, mu) -> int:
    """Irreducible symmetric group character chi_lam at the class mu.

    Both arguments must be partitions of one size, as tuples or lists.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"character needs |lam| = |mu|, got {lam} and {mu}")
    return _border_strip_sum(_beta_mask(lam), mu)


def _beta_mask(lam) -> int:
    """The beta set of lam as a bitmask, one bead at lam_i + (len(lam) - 1 - i)."""
    mask = 0
    for i, part in enumerate(reversed(lam)):
        mask |= 1 << (part + i)
    return mask


@lru_cache(maxsize=None)
def _border_strip_sum(mask: int, mu) -> int:
    """chi(mu) of the partition whose beta set is the bitmask mask.

    Murnaghan-Nakayama (Macdonald I.7): removing a border strip of size
    k = mu[0] moves a bead from b down to an empty position b - k, with
    the sign (-1)^(beads strictly between). The beads that can move are
    ``mask & ~(mask << k)``, above the lowest k positions. Beads filling
    0, 1, ... are zero parts, so each new mask is keyed with that run
    shifted out.
    """
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    movable = (mask & ~(mask << k)) >> k << k
    total = 0
    while movable:
        bead = movable & -movable
        movable ^= bead
        landing = bead >> k
        moved = mask ^ bead ^ landing
        zero_parts = (moved ^ (moved + 1)).bit_length() - 1
        value = _border_strip_sum(moved >> zero_parts, rest)
        if (mask & (bead - (landing << 1))).bit_count() & 1:
            total -= value
        else:
            total += value
    return total


@lru_cache(maxsize=None)
def _s_scaled_in_p(lam) -> tuple:
    """s_lam times |lam|!, in the p basis as (mu, int) pairs.

    n! s_lam is the sum over mu of n of chi_lam(mu) n!/z_mu p_mu, the
    character times the size of the class mu, an int (Macdonald I.7.8).
    """
    n = sum(lam)
    size = factorial(n)
    mask = _beta_mask(lam)
    out = []
    for mu in partitions_of(n):
        chi = _border_strip_sum(mask, mu)
        if chi:
            out.append((mu, chi * (size // z_value(mu))))
    return tuple(out)


@lru_cache(maxsize=None)
def _h_scaled_in_p(lam) -> tuple:
    """h_lam times prod_i lam_i!, in the p basis as (nu, int) pairs.

    k! h_k is the sum over rho of k of (k!/z_rho) p_rho, and k!/z_rho is
    the size of the class rho in the symmetric group, an int. The product
    over the parts of lam is taken one part at a time.
    """
    if not lam:
        return (((), 1),)
    k = lam[0]
    size = factorial(k)
    out: dict = {}
    for rho in partitions_of(k):
        c = size // z_value(rho)
        for nu, d in _h_scaled_in_p(lam[1:]):
            key = multiset_union(rho, nu)
            out[key] = out.get(key, 0) + c * d
    return tuple(out.items())


@lru_cache(maxsize=None)
def _p_in_h(nu) -> tuple:
    """p_nu in the h basis, as (id of mu, int) pairs.

    Newton's identity (Macdonald I.2.14') gives p_k as the sum over
    lam of k of (-1)^(l-1) k (l-1)! / prod_i m_i(lam)! h_lam, l = len(lam).
    p_nu is the product of these over its parts, taken one part at a time;
    h_lam h_mu is h of the multiset union. Each mu is keyed by its
    partition id (``partitions._PART_ENTRIES``).
    """
    if not nu:
        return ((_part_id(()), 1),)
    k = nu[0]
    out = {}
    for lam in partitions_of(k):
        c = (-1) ** (len(lam) - 1) * k * factorial(len(lam) - 1)
        for m in multiplicities(lam).values():
            c //= factorial(m)
        for mu, d in _p_in_h(nu[1:]):
            key = multiset_union(lam, _PART_ENTRIES[mu][0])
            out[key] = out.get(key, 0) + c * d
    return tuple((_part_id(mu), c) for mu, c in out.items() if c)


@lru_cache(maxsize=None)
def _p_in_m(nu) -> tuple:
    """p_nu in the m basis, as (id of mu, int) pairs.

    [m_mu] p_nu = <p_nu, h_mu>, the matrix L(p, m) of Macdonald I.6. p_nu
    is built one part k at a time: p_k m_mu is the sum of m_mu' over the
    mu' made by adding k to one part value v of mu (v = 0 appends k),
    each with coefficient m_{v+k}(mu'), the number of parts of mu' that
    p_k can have supplied. Each mu is keyed by its partition id.
    """
    if not nu:
        return ((_part_id(()), 1),)
    k = nu[0]
    out = {}
    for pid, c in _p_in_m(nu[1:]):
        mu = _PART_ENTRIES[pid][0]
        for v in (0, *multiplicities(mu)):
            key = multiset_union(multiset_diff(mu, (v,)) if v else mu, (v + k,))
            out[key] = out.get(key, 0) + c * key.count(v + k)
    return tuple((_part_id(mu), c) for mu, c in out.items())


@lru_cache(maxsize=None)
def _m_scaled_in_p(lam) -> tuple:
    """m_lam times prod_i m_i(lam)!, in the p basis as (nu, int) pairs.

    Mobius inversion over the set partitions pi of the positions of lam
    gives prod_i m_i(lam)! m_lam = sum_pi prod_B (-1)^(|B|-1) (|B|-1)!
    p_{lam_pi}, where lam_pi has one part per block B, the sum of the
    parts in it. As in ``frobenius._pleth_coeff`` the recursion takes the
    block holding lam[0]: lam[0] plus a sub-multiset sigma of the rest,
    chosen in prod_j comb(m_j(rest), m_j(sigma)) ways (``_block_splits``),
    with weight (-1)^len(sigma) len(sigma)!, merged into the one part
    lam[0] + |sigma| (|sigma| the sum of its parts).
    """
    if not lam:
        return (((), 1),)
    out = {}
    for sigma, ways, left in _block_splits(lam[1:]):
        c = (-1) ** len(sigma) * factorial(len(sigma)) * ways
        merged = (lam[0] + sum(sigma),)
        for nu, d in _m_scaled_in_p(left):
            key = multiset_union(merged, nu)
            out[key] = out.get(key, 0) + c * d
    return tuple((nu, c) for nu, c in out.items() if c)


def from_basis(basis: str, lam) -> SymFunc:
    """The basis element with the given index, as an exact SymFunc.

    The element keeps its integer row, its Fraction terms built when
    first read: an s, h or m element is ``_s_scaled_in_p``,
    ``_h_scaled_in_p`` or ``_m_scaled_in_p`` over its scale, and e_lam
    is omega(h_lam) (Macdonald I.2), h_lam's row signed by ``omega``.
    """
    lam = as_partition(lam)
    if basis == "p":
        pairs, scale = ((lam, 1),), 1
    elif basis == "s":
        pairs, scale = _s_scaled_in_p(lam), factorial(sum(lam))
    elif basis == "h":
        pairs, scale = _h_scaled_in_p(lam), prod(map(factorial, lam))
    elif basis == "e":
        return omega(from_basis("h", lam))
    elif basis == "m":
        pairs = _m_scaled_in_p(lam)
        scale = prod(map(factorial, multiplicities(lam).values()))
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return SymFunc._from_row(pairs, scale)


def _int_column_sum(f: SymFunc, column) -> tuple:
    """Sum f's coefficients along memoized integer columns: (totals, D).

    f is the sum of (a_nu / D) p_nu with int a_nu: a basis element gives
    its row and scale as they are, any other f the numerators over the
    common denominator D of its coefficients. totals[mu] is the int sum
    of a_nu * c over the terms nu of f and the pairs (mu, c) of
    ``column(nu)``, mu a partition id. Totals that cancel to 0 are kept;
    the callers drop them as they turn each id back into its partition.
    """
    if f._row is None:
        terms = f._terms
        denominator = lcm(*(c.denominator for c in terms.values()))
        pairs = (
            (nu, c.numerator * (denominator // c.denominator))
            for nu, c in terms.items()
        )
    else:
        pairs, denominator = f._row
    totals: dict = {}
    get = totals.get
    for nu, a in pairs:
        for mu, value in column(nu):
            totals[mu] = get(mu, 0) + a * value
    return totals, denominator


def to_basis(f: SymFunc, basis: str) -> dict:
    """Expand f in the given basis: mapping partition -> Fraction.

    For a series the expansion covers degrees up to the cutoff. The h and
    m coefficients sum each term f_nu p_nu along the integer column of
    p_nu in that basis (Newton's identity for h, ``_p_in_m`` for m), the
    e coefficients are the h coefficients of ``omega(f)`` (a basis
    element's integer row for all three), and the Schur coefficient of
    lam is the sum of chi_lam(nu) f_nu over f's terms nu of lam's degree.
    """
    if basis == "p":
        return dict(f._terms)
    if basis == "s":
        by_degree: dict = {}
        for nu, c in f._terms.items():
            by_degree.setdefault(sum(nu), []).append((nu, c))
        out = {}
        for n, terms in by_degree.items():
            for lam in partitions_of(n):
                mask = _beta_mask(lam)
                c = sum(_border_strip_sum(mask, nu) * a for nu, a in terms)
                if c:
                    out[lam] = c
        return out
    if basis == "e":
        return to_basis(omega(f), "h")
    if basis == "h":
        column = _p_in_h
    elif basis == "m":
        column = _p_in_m
    else:
        raise ValueError(f"unknown basis {basis!r}")
    totals, denominator = _int_column_sum(f, column)
    return {
        _PART_ENTRIES[mu][0]: Fraction(total, denominator)
        for mu, total in totals.items()
        if total
    }


def to_basis_int(f: SymFunc, basis: str) -> dict:
    """Like to_basis but demands integer coefficients (IntegralityError otherwise)."""
    out = {}
    for lam, c in to_basis(f, basis).items():
        if c.denominator != 1:
            raise IntegralityError(
                f"coefficient of {basis}_{lam} is {c}, expected an integer"
            )
        out[lam] = c.numerator
    return out


# -- pairings and operators ----------------------------------------------


def hall(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall inner product, diagonal on power sums with weight z_lam.

    One argument must be exact; a series argument must reach the exact
    argument's degree.
    """
    if f.cutoff is not None and g.cutoff is not None:
        raise ValueError("hall pairing of two truncated series is not defined")
    if f.cutoff is not None:
        f, g = g, f
    if g.cutoff is not None and g.cutoff < f.degree:
        raise PrecisionError(
            f"series cutoff {g.cutoff} below pairing degree {f.degree}"
        )
    total = Fraction(0)
    get = g._terms.get
    for lam, a in f._terms.items():
        b = get(lam)
        if b is not None:
            total += z_value(lam) * a * b
    return total


def kronecker(f: SymFunc, g: SymFunc) -> SymFunc:
    """Kronecker product: diagonal on power sums with eigenvalue z_lam."""
    cutoff = SymFunc._min_cutoff(f.cutoff, g.cutoff)
    out = {}
    small, large = (f._terms, g._terms)
    if len(small) > len(large):
        small, large = large, small
    for lam, a in small.items():
        b = large.get(lam)
        if b is not None and (cutoff is None or sum(lam) <= cutoff):
            out[lam] = z_value(lam) * a * b
    return SymFunc(out, cutoff, _validate=False)


def omega(f: SymFunc) -> SymFunc:
    """Degree involution: p_k -> (-1)^(k-1) p_k, so p_nu gains (-1)^(|nu| - len(nu)).

    A basis element keeps its integer row, signed, over its scale.
    """
    pairs = f._terms.items() if f._row is None else f._row[0]
    signed = tuple((nu, -c if (sum(nu) - len(nu)) & 1 else c) for nu, c in pairs)
    if f._row is None:
        return SymFunc(dict(signed), f.cutoff, _validate=False)
    return SymFunc._from_row(signed, f._row[1])


def skew(g: SymFunc, f: SymFunc) -> SymFunc:
    """Apply the skewing operator of g to f (the Hall adjoint of multiplying by g).

    In the power sum representation each p_k acts as k d/dp_k, so a term
    p_mu of g removes the multiset mu from terms of f with a falling
    factorial weight on the multiplicities.
    """
    if f.cutoff is not None:
        raise ValueError("skew acts on exact symmetric functions")
    if g.cutoff is not None and g.cutoff < f.degree:
        raise PrecisionError(
            f"series cutoff {g.cutoff} below skewed degree {f.degree}"
        )
    out = {}
    fdeg = f.degree
    f_terms = f._terms.items()
    for mu, b in g._terms.items():
        if sum(mu) > fdeg:
            continue
        mu_mult = multiplicities(mu)
        for nu, a in f_terms:
            nu_mult = multiplicities(nu)
            weight = 1
            for k, m in mu_mult.items():
                avail = nu_mult.get(k, 0)
                if avail < m:
                    weight = 0
                    break
                for step in range(m):
                    weight *= k * (avail - step)
            if not weight:
                continue
            key = multiset_diff(nu, mu)
            out[key] = out.get(key, 0) + a * b * weight
    return SymFunc({k: c for k, c in out.items() if c}, None, _validate=False)


def _pk_plethysm(k: int, g: SymFunc) -> SymFunc:
    """p_k[g]: every index partition of g with its parts scaled by k.

    A series g known through degree c gives p_k[g] known through k*c.
    """
    return SymFunc(
        {tuple(p * k for p in mu): c for mu, c in g._terms.items()},
        None if g.cutoff is None else k * g.cutoff,
        _validate=False,
    )


def plethysm(f: SymFunc, g: SymFunc) -> SymFunc:
    """Plethysm f[g]: substitute p_j -> p_{jk} in g for each p_k of f.

    Defined when f is exact, or when g has no constant term (then only
    finitely many terms of f touch each output degree).
    """
    has_constant = () in g._terms
    if f.cutoff is not None and has_constant:
        raise ValueError(
            "plethysm of a truncated series by a series with constant term"
        )
    cutoff = SymFunc._min_cutoff(f.cutoff, g.cutoff)
    pk = {k: _pk_plethysm(k, g) for lam in f._terms for k in set(lam)}
    out: dict = {}
    for lam, c in f._terms.items():
        if cutoff is not None and not has_constant and sum(lam) > cutoff:
            continue
        prod = SymFunc.one(cutoff)
        for part in lam:
            prod = prod * pk[part]
        for rho, a in prod._terms.items():
            out[rho] = out.get(rho, 0) + c * a
    return SymFunc({k: c for k, c in out.items() if c}, cutoff, _validate=False)


# -- standard series ------------------------------------------------------


@lru_cache(maxsize=None)
def lyndon_sf(n: int) -> SymFunc:
    """The degree-n Lyndon symmetric function (Mobius sum over divisor powers)."""
    n = _count(n, 1)
    terms = {}
    for d in divisors(n):
        mu = mobius(d)
        if mu:
            terms[(d,) * (n // d)] = Fraction(mu, n)
    return SymFunc(terms, None, _validate=False)


# The degree at which each standard series starts.
_SERIES_START = {"H": 0, "Hplus": 1, "Hgeq2": 2, "E": 0, "Emin": 0, "Lsum": 1, "Cadogan": 1}
# The zero coefficient, shared: most block weights of Lsum and Cadogan read it.
_ZERO = Fraction(0)


def _series_coefficient(name: str, lam) -> Fraction:
    """[p_lam] of the named standard series, lam a partition tuple.

    H, Hplus and Hgeq2 sum h_n and E sums e_n, from their start degree;
    Emin sums (-1)^n e_n. Their coefficient is 1/z_lam, times the omega
    sign (-1)^(|lam| - len(lam)) for e and (-1)^|lam| more for Emin. Lsum
    sums the Lyndon functions and Cadogan sums (-1)^(n-1) omega(lyndon_sf(n)),
    so theirs is the term of lam in lyndon_sf(|lam|), signed likewise.
    """
    if name not in _SERIES_START:
        raise ValueError(f"unknown series {name!r}")
    n = sum(lam)
    if n < _SERIES_START[name]:
        return _ZERO
    omega_sign = (-1) ** (n - len(lam))
    if name in ("Lsum", "Cadogan"):
        c = lyndon_sf(n)._terms.get(lam, _ZERO)
        if name == "Lsum" or not c:
            return c
        return c * omega_sign * (-1) ** (n - 1)
    if name[0] == "H":
        return Fraction(1, z_value(lam))
    sign = omega_sign if name == "E" else omega_sign * (-1) ** n
    return Fraction(sign, z_value(lam))


@lru_cache(maxsize=None)
def standard_series(name: str, cutoff: int) -> SymFunc:
    """The named generating series, exact through the cutoff.

    H (all complete homogeneous), Hplus (H - 1), Hgeq2 (H - 1 - h_1),
    E, Emin (alternating elementary), Lsum (sum of the Lyndon symmetric
    functions), Cadogan (the plethystic inverse of Hplus), and Lyndon
    (the single degree-``cutoff`` Lyndon function, which is exact).
    Every coefficient comes from ``_series_coefficient``; Lsum and
    Cadogan are supported on the rectangles (d^(n/d)) only.
    """
    cutoff = _count(cutoff)
    if name == "Lyndon":
        return lyndon_sf(cutoff)
    terms = {}
    for n in range(cutoff + 1):
        if name in ("Lsum", "Cadogan"):
            support = [(d,) * (n // d) for d in divisors(n)] if n else []
        else:
            support = partitions_of(n)
        for lam in support:
            c = _series_coefficient(name, lam)
            if c:
                terms[lam] = c
    return SymFunc(terms, cutoff, _validate=False)


def leading_term(f: SymFunc, basis: str = "s"):
    """(partition, coefficient) of the canonical leading term of the top degree."""
    if f.is_zero:
        raise ValueError("the zero element has no leading term")
    top = to_basis(f.homogeneous_component(f.degree), basis)
    lam = min(top, key=lambda t: tuple(-p for p in t))
    return lam, top[lam]


# -- serialization ---------------------------------------------------------


def to_serializable(f: SymFunc, basis: str) -> dict:
    """JSON-ready form with exact decimal strings and stable ordering."""
    coeffs = to_basis(f, basis)
    terms = [
        {
            "partition": list(lam),
            "num": str(coeffs[lam].numerator),
            "den": str(coeffs[lam].denominator),
        }
        for lam in sorted(coeffs, key=canonical_key)
    ]
    return {"basis": basis, "terms": terms, "cutoff": f.cutoff}


def from_serializable(data: dict) -> SymFunc:
    """Rebuild a SymFunc from its serialized form.

    Raises ValueError on a zero denominator or a term above the cutoff.
    """
    basis = data["basis"]
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    cutoff = None if data.get("cutoff") is None else _count(data["cutoff"])
    totals: dict = {}
    for term in data["terms"]:
        lam = as_partition(term["partition"])
        if cutoff is not None and sum(lam) > cutoff:
            raise ValueError(f"term of degree {sum(lam)} above cutoff {cutoff}")
        num, den = int(term["num"]), int(term["den"])
        if den == 0:
            raise ValueError(f"zero denominator in the term of {lam}")
        scale = Fraction(num, den)
        for nu, c in from_basis(basis, lam)._terms.items():
            totals[nu] = totals.get(nu, 0) + scale * c
    return SymFunc({k: c for k, c in totals.items() if c}, cutoff, _validate=False)
