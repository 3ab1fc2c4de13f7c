"""Exact arithmetic in the ring of symmetric functions and its completion.

Elements are stored in the power sum basis as int numerators over one
reduced denominator: Kronecker products are diagonal there, plethysm is
index substitution, and the degree involution is a sign flip. A SymFunc
with ``cutoff=None`` is an exact element of the polynomial ring;
``cutoff=N`` marks a truncated series, known exactly through degree N
with nothing stored above. Pairing a series that is too short raises
PrecisionError rather than truncating silently.

Every builder works in ints and reduces its result once, through the one
constructor ``SymFunc._build``. Basis elements are memoized. s_lam and
m_lam are rows of ints over one scale (n! for s_lam, the product of the
multiplicity factorials for m_lam); h_k is the Schur row s_(k), h_lam
is the product of its one-part elements, and e_lam is omega(h_lam). The
m row is the set-partition sum ``_set_partition_sum``, which the p
closed forms of ``frobenius`` read with other block weights. Characters
are computed twice, independently: the Schur rows top-down by bead mask
and class (``_border_strip_sum``), the Schur columns bottom-up, one
border strip at a time (``_strip_step``). Each standard series sums one
element per degree, ``_series_term``: h_n, e_n, (-1)^n e_n, the Lyndon
function L_n or (-1)^(n-1) omega(L_n). A Fraction is built only when a
coefficient is read. Every conversion out of p is one sum,
``_column_sum``, along the memoized integer columns ``_p_in_s``,
``_p_in_h`` and ``_p_in_m``. The integral reader ``to_basis_int`` feeds
it ints in every basis, and so does ``to_basis`` in h, e and m; its
Schur conversion feeds it f's Fraction terms (see ``to_basis`` for why).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod

from .partitions import (
    _PART_ENTRIES,
    _block_splits,
    _count,
    _decimal,
    _integers,
    _part_id,
    _z_value,
    as_partition,
    canonical_key,
    divisors,
    mobius,
    multiplicities,
    multiset_diff,
    multiset_union,
    partitions_of,
)

BASES = ("m", "e", "h", "p", "s")


class PrecisionError(Exception):
    """A series cutoff is too small for the exact answer requested."""


class InternalCheckError(Exception):
    """An internal cross-check failed; indicates a bug, not a usage error."""


class IntegralityError(InternalCheckError):
    """A coefficient that must be an integer is not."""


class SymFunc:
    """A symmetric function in the internal power sum representation.

    ``terms``, a mapping or None (any other value raises ValueError),
    maps partition tuples to the coefficient of the corresponding power
    sum product, given as an int, a Fraction or an integral float (any
    other value raises ValueError). ``cutoff=None`` marks an exact finite
    element; an integer cutoff marks a truncated series.

    The element is the sum of (_nums[nu] / _den) p_nu: every value of
    ``_nums`` is a nonzero int, ``_den`` > 0, gcd(_den, *_nums.values())
    is 1 and no key lies above the cutoff. The pair is unique, so
    equality and hashing compare it. ``_build``, the constructor of the
    package's builders and the only one that skips ``__init__``, drops
    zeros and reduces; ``zero`` and ``one`` are built by it too. Inside
    the package only ``_coerce`` (a scalar) and the roots-of-unity oracle
    ``oracles.frobenius_via_roots`` call the validating constructor.
    """

    __slots__ = ("_nums", "_den", "cutoff")

    def __init__(self, terms=None, cutoff=None):
        cutoff = None if cutoff is None else _count(cutoff)
        if terms is None:
            terms = {}
        elif not isinstance(terms, Mapping):
            raise ValueError(f"terms must be a mapping, got {terms!r}")
        out = {}
        for lam, c in terms.items():
            lam = as_partition(lam)
            if not isinstance(c, (int, Fraction)):
                try:
                    (c,) = _integers((c,))
                except ValueError:
                    raise ValueError(
                        f"coefficients must be ints or Fractions, got {c!r}"
                    ) from None
            if not c:
                continue
            if cutoff is not None and sum(lam) > cutoff:
                raise ValueError(f"term of degree {sum(lam)} above cutoff {cutoff}")
            out[lam] = c
        # Over the lcm of the denominators the pair is already reduced.
        den = lcm(*(c.denominator for c in out.values()))
        self._nums = {lam: c.numerator * (den // c.denominator) for lam, c in out.items()}
        self._den = den
        self.cutoff = cutoff

    @classmethod
    def _build(cls, nums: dict, den: int = 1, cutoff=None) -> "SymFunc":
        """The sum of (nums[nu] / den) p_nu, int values and den > 0, with
        zeros dropped and the pair divided by its gcd. The caller keeps
        every key within the cutoff and hands nums over: the element keeps
        the dict itself unless a zero or a common factor must go."""
        if not all(nums.values()):
            nums = {lam: c for lam, c in nums.items() if c}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {lam: c // g for lam, c in nums.items()}
                den //= g
        f = cls.__new__(cls)
        f._nums = nums
        f._den = den
        f.cutoff = cutoff
        return f

    @classmethod
    def zero(cls, cutoff=None):
        return cls._build({}, cutoff=None if cutoff is None else _count(cutoff))

    @classmethod
    def one(cls, cutoff=None):
        return cls._build({(): 1}, cutoff=None if cutoff is None else _count(cutoff))

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self) -> int:
        """Largest degree with a nonzero term (0 for the zero element)."""
        return max((sum(lam) for lam in self._nums), default=0)

    def terms(self):
        """Iterate (partition, Fraction coefficient) pairs, unspecified order."""
        den = self._den
        return {lam: Fraction(c, den) for lam, c in self._nums.items()}.items()

    def support(self) -> list:
        return sorted(self._nums, key=canonical_key)

    def coefficient(self, lam) -> Fraction:
        """Coefficient of p_lam; raises PrecisionError beyond the cutoff."""
        lam = as_partition(lam)
        _check_reach(self.cutoff, sum(lam))
        return Fraction(self._nums.get(lam, 0), self._den)

    def homogeneous_component(self, n: int) -> "SymFunc":
        """The exact degree-n part (requires n within the cutoff)."""
        n = _count(n)
        _check_reach(self.cutoff, n)
        nums = {lam: c for lam, c in self._nums.items() if sum(lam) == n}
        return SymFunc._build(nums, self._den)

    def truncate(self, n: int) -> "SymFunc":
        """View through degree n as a series with cutoff n."""
        n = _count(n)
        _check_reach(self.cutoff, n)
        nums = {lam: c for lam, c in self._nums.items() if sum(lam) <= n}
        return SymFunc._build(nums, self._den, n)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(x):
        """x as a SymFunc: an int, Fraction or float as an exact constant,
        under the constructor's coefficient rule (2.0 is 2, 0.5 raises
        ValueError); NotImplemented for any other type."""
        if isinstance(x, SymFunc):
            return x
        if isinstance(x, (int, float, Fraction)):
            return SymFunc({(): x})
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
        return _linear_combination(((1, self), (1, other)), cutoff)

    __radd__ = __add__

    def __neg__(self):
        nums = {lam: -c for lam, c in self._nums.items()}
        return SymFunc._build(nums, self._den, self.cutoff)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cutoff = self._min_cutoff(self.cutoff, other.cutoff)
        nums = _product(self._nums, other._nums, cutoff)
        return SymFunc._build(nums, self._den * other._den, cutoff)

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
        try:
            other = self._coerce(other)
        except ValueError:
            # A float that is not an integer equals no element.
            return False
        if other is NotImplemented:
            return NotImplemented
        return (self.cutoff, self._den, self._nums) == (other.cutoff, other._den, other._nums)

    def __hash__(self):
        # An exact constant hashes as its scalar, which it equals.
        if self.cutoff is None and self._nums.keys() <= {()}:
            return hash(Fraction(self._nums.get((), 0), self._den))
        return hash((self.cutoff, self._den, frozenset(self._nums.items())))

    def __repr__(self):
        if self.is_zero:
            body = "0"
        else:
            bits = []
            for lam in self.support():
                c = Fraction(self._nums[lam], self._den)
                coef = "" if c == 1 and lam else str(c) + ("*" if lam else "")
                mono = "p[%s]" % ",".join(str(p) for p in lam) if lam else ""
                bits.append(coef + mono if (coef or mono) else "1")
            body = " + ".join(bits)
        tail = "" if self.cutoff is None else f" (cutoff {self.cutoff})"
        return f"<SymFunc {body}{tail}>"


def _check_elements(*elements) -> None:
    """The one type check of the public functions that take an element:
    anything but a SymFunc raises TypeError, as under the operators."""
    for f in elements:
        if not isinstance(f, SymFunc):
            raise TypeError(f"expected a SymFunc, got {type(f).__name__}")


def _check_exact(f) -> None:
    """The one gate of the operations that read every term of f (the
    transforms, skewing, evaluation): ``_check_elements``, and a truncated
    series, whose terms past its cutoff are unknown, raises ValueError."""
    _check_elements(f)
    if f.cutoff is not None:
        raise ValueError("an exact symmetric function is needed, not a truncated series")


def _check_reach(cutoff, degree: int) -> None:
    """The one gate of a read through the given degree: a series whose
    cutoff lies below it raises PrecisionError; an exact element
    (``cutoff=None``) reaches every degree."""
    if cutoff is not None and degree > cutoff:
        raise PrecisionError(f"degree {degree} is beyond the series cutoff {cutoff}")


def _linear_combination(pairs, cutoff=None) -> SymFunc:
    """The sum of c * f over the (c, f) pairs, each c an int or a Fraction,
    over one common denominator and reduced once; terms above the cutoff
    are dropped."""
    den = lcm(*(c.denominator * f._den for c, f in pairs))
    out: dict = {}
    get = out.get
    for c, f in pairs:
        scale = c.numerator * (den // (c.denominator * f._den))
        for lam, a in f._nums.items():
            out[lam] = get(lam, 0) + scale * a
    if cutoff is not None:
        out = {lam: a for lam, a in out.items() if sum(lam) <= cutoff}
    return SymFunc._build(out, den, cutoff)


def _by_degree(terms) -> dict:
    """The (partition, coefficient) pairs of terms, grouped by degree."""
    groups: dict = {}
    for lam, c in terms:
        groups.setdefault(sum(lam), []).append((lam, c))
    return groups


def _product(a: dict, b: dict, cutoff) -> dict:
    """The int numerators of a product through the cutoff. Both factors are
    grouped by degree once, and the cutoff is tested once per pair of
    degrees, not once per pair of terms."""
    right = _by_degree(b.items())
    out: dict = {}
    get = out.get
    for m, left_terms in _by_degree(a.items()).items():
        for n, right_terms in right.items():
            if cutoff is not None and m + n > cutoff:
                continue
            for lam, x in left_terms:
                for mu, y in right_terms:
                    key = multiset_union(lam, mu)
                    out[key] = get(key, 0) + x * y
    return out


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
def _strip_step(lam: int, k: int) -> tuple:
    """p_k s_lam as (id of kappa, sign) pairs, lam an id: kappa adds a border
    strip of size k (Macdonald I.3 Ex. 11), a bead moving from b to an empty
    b + k in the beta set of lam with k more beads, with sign (-1)^(beads
    strictly between). A part of kappa is a bead less the beads below it."""
    mask = _beta_mask(_PART_ENTRIES[lam]) << k | (1 << k) - 1
    out = []
    for b in range(mask.bit_length()):
        if mask >> b & 1 and not mask >> (b + k) & 1:
            moved = mask ^ 1 << b ^ 1 << (b + k)
            beads = [c for c in range(moved.bit_length()) if moved >> c & 1]
            kappa = tuple(c - i for i, c in enumerate(beads) if c > i)[::-1]
            sign = (-1) ** (mask >> (b + 1) & (1 << (k - 1)) - 1).bit_count()
            out.append((_part_id(kappa), sign))
    return tuple(out)


@lru_cache(maxsize=None)
def _p_in_s(nu) -> tuple:
    """p_nu in the s basis, as (id of lam, chi_lam(nu)) pairs with the zeros
    left out (Macdonald I.7.8). Like ``_p_in_h`` it is built one part at a
    time: p_(nu_1) takes each entry of the column of nu[1:] one border
    strip up (``_strip_step``). Each lam is keyed by its partition id."""
    if not nu:
        return ((_part_id(()), 1),)
    out = {}
    for lam, c in _p_in_s(nu[1:]):
        for kappa, sign in _strip_step(lam, nu[0]):
            out[kappa] = out.get(kappa, 0) + sign * c
    return tuple((lam, c) for lam, c in out.items() if c)


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
            key = multiset_union(lam, _PART_ENTRIES[mu])
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
        mu = _PART_ENTRIES[pid]
        for v in (0, *multiplicities(mu)):
            key = multiset_union(multiset_diff(mu, (v,)) if v else mu, (v + k,))
            out[key] = out.get(key, 0) + c * key.count(v + k)
    return tuple((_part_id(mu), c) for mu, c in out.items())


@lru_cache(maxsize=None)
def _set_partition_sum(block_weight, lam) -> tuple:
    """The sum over the set partitions of the positions of lam of the
    product of the block weights, in the p basis as (nu, int) pairs.

    block_weight(B) is a tuple of (k, int) pairs, an int sum of one-part
    power sums p_k, so each product is an int sum of single p_nu. The
    recursion takes the block holding lam[0]: lam[0] plus a sub-multiset
    sigma of the rest, chosen in prod_j comb(m_j(rest), m_j(sigma)) ways
    (``_block_splits``); the rest is partitioned on its own.
    """
    if not lam:
        return (((), 1),)
    out = {}
    for sigma, ways, left in _block_splits(lam[1:]):
        for k, c in block_weight(lam[:1] + sigma):
            for nu, d in _set_partition_sum(block_weight, left):
                key = multiset_union((k,), nu)
                out[key] = out.get(key, 0) + ways * c * d
    return tuple((nu, c) for nu, c in out.items() if c)


def _m_block(block) -> tuple:
    """m's weight of a block B, (-1)^(|B|-1) (|B|-1)! p_(sum of B): by Mobius
    inversion (Macdonald I.6) prod_i m_i(lam)! m_lam is their set-partition sum."""
    return ((sum(block), (-1) ** (len(block) - 1) * factorial(len(block) - 1)),)


def from_basis(basis: str, lam) -> SymFunc:
    """The basis element with the given index, as an exact SymFunc.

    An s or m element is its integer row over its scale, reduced once and
    memoized: n! s_lam is the sum over rho of n of chi_lam(rho) n!/z_rho
    p_rho, the character times the size of the class rho (Macdonald
    I.7.8), and the m row is ``_set_partition_sum`` with ``_m_block``.
    h_k is s_(k), the Schur row of the trivial character (Macdonald
    I.3); h_lam is the product of its one-part elements, since h is
    multiplicative, and e_lam is omega(h_lam) (Macdonald I.2).
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    return _basis_element(basis, as_partition(lam))


@lru_cache(maxsize=None)
def _basis_element(basis: str, lam) -> SymFunc:
    """``from_basis`` on a validated basis name and partition tuple."""
    if basis == "p":
        return SymFunc._build({lam: 1})
    if basis == "e":
        return omega(_basis_element("h", lam))
    if basis == "h":
        if len(lam) > 1:
            return _basis_element("h", lam[:1]) * _basis_element("h", lam[1:])
        return _basis_element("s", lam)
    if basis == "s":
        size, mask = factorial(sum(lam)), _beta_mask(lam)
        row = {
            rho: _border_strip_sum(mask, rho) * (size // _z_value(rho))
            for rho in partitions_of(sum(lam))
        }
        return SymFunc._build(row, size)
    scale = prod(map(factorial, multiplicities(lam).values()))
    return SymFunc._build(dict(_set_partition_sum(_m_block, lam)), scale)


def _column_sum(pairs, column) -> dict:
    """Sum the (nu, a) pairs along memoized integer columns.

    The result maps each partition mu to the nonzero sum of a * c over
    the pairs and the pairs (id of mu, c) of ``column(nu)``, in whatever
    arithmetic the a carry; totals that cancel to 0 are dropped. Ids stay
    inside the column kernels.
    """
    totals: dict = {}
    get = totals.get
    for nu, a in pairs:
        for mu, value in column(nu):
            totals[mu] = get(mu, 0) + a * value
    return {_PART_ENTRIES[mu]: total for mu, total in totals.items() if total}


def _int_column_sum(f: SymFunc, column) -> tuple:
    """f's int numerators summed along the columns (``_column_sum``),
    with f's denominator D: (totals, D)."""
    return _column_sum(f._nums.items(), column), f._den


def _int_expansion(f: SymFunc, basis: str) -> tuple:
    """f in the basis as (totals, D): f is the sum of totals[lam] / D times
    the basis element of lam, each total a nonzero int and D f's own
    denominator. p reads f's numerators; s, h and m sum them along the
    integer column of p_nu in that basis (``_int_column_sum``); e sums
    ``omega(f)`` along the h columns. Any other basis raises ValueError."""
    if basis == "e":
        f, basis = omega(f), "h"
    if basis == "p":
        return f._nums, f._den
    if basis == "s":
        column = _p_in_s
    elif basis == "h":
        column = _p_in_h
    elif basis == "m":
        column = _p_in_m
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return _int_column_sum(f, column)


def to_basis(f: SymFunc, basis: str) -> dict:
    """Expand f in the given basis: mapping partition -> Fraction.

    For a series the expansion covers degrees up to the cutoff. Each
    coefficient sums f's terms along the integer column of p_nu in the
    basis (``_column_sum``): ``_p_in_s`` for s, Newton's identity for h,
    ``_p_in_m`` for m, and the h columns of ``omega(f)`` for e. The s
    branch feeds the column f's Fraction terms, not its int numerators,
    until the benchmark harness reads each child's own peak memory
    (ROADMAP items 1 and 2).
    """
    _check_elements(f)
    if basis == "s":
        return _column_sum(f.terms(), _p_in_s)
    totals, denominator = _int_expansion(f, basis)
    return {mu: Fraction(total, denominator) for mu, total in totals.items()}


def to_basis_int(f: SymFunc, basis: str) -> dict:
    """Like to_basis but demands integer coefficients (IntegralityError otherwise).

    Every basis, s included, sums f's int numerators along integer
    columns (``_int_expansion``) and divides each total by f's
    denominator once; no Fraction is built unless a total does not
    divide, for the error's text.
    """
    _check_elements(f)
    totals, denominator = _int_expansion(f, basis)
    out = {}
    for lam, total in totals.items():
        q, r = divmod(total, denominator)
        if r:
            raise IntegralityError(
                f"coefficient of {basis}_{lam} is {Fraction(total, denominator)}, "
                "expected an integer"
            )
        out[lam] = q
    return out


# -- pairings and operators ----------------------------------------------


def hall(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall inner product, diagonal on power sums with weight z_lam.

    One argument must be exact; a series argument must reach the exact
    argument's degree. The pairing is the sum of the p-coefficients of
    the Kronecker product, z_lam f_lam g_lam.
    """
    _check_elements(f, g)
    if f.cutoff is not None:
        f, g = g, f
    _check_exact(f)
    _check_reach(g.cutoff, f.degree)
    product = kronecker(f, g)
    return Fraction(sum(product._nums.values()), product._den)


def kronecker(f: SymFunc, g: SymFunc) -> SymFunc:
    """Kronecker product: diagonal on power sums with eigenvalue z_lam.

    A key of both elements lies within both cutoffs, so every product
    term lies within the smaller one."""
    _check_elements(f, g)
    cutoff = SymFunc._min_cutoff(f.cutoff, g.cutoff)
    out = {}
    small, large = f._nums, g._nums
    if len(small) > len(large):
        small, large = large, small
    for lam, a in small.items():
        b = large.get(lam)
        if b is not None:
            out[lam] = _z_value(lam) * a * b
    return SymFunc._build(out, f._den * g._den, cutoff)


def omega(f: SymFunc) -> SymFunc:
    """Degree involution: p_k -> (-1)^(k-1) p_k, so p_nu gains (-1)^(|nu| - len(nu)).

    A sign flip keeps the numerators reduced over the same denominator.
    """
    _check_elements(f)
    nums = {nu: -c if (sum(nu) - len(nu)) & 1 else c for nu, c in f._nums.items()}
    return SymFunc._build(nums, f._den, f.cutoff)


def skew(g: SymFunc, f: SymFunc) -> SymFunc:
    """Apply the skewing operator of g to f (the Hall adjoint of multiplying by g).

    On power sums p_mu^perp p_nu = (z_nu / z_(nu-mu)) p_(nu-mu) when the
    multiset mu lies inside nu, and 0 otherwise: <p_mu^perp p_nu, p_rho>
    = <p_nu, p_mu p_rho> = z_nu delta(nu = mu + rho), and p_rho pairs
    with itself to z_rho. So each pair of terms adds one integer z ratio
    (``z_value``).
    """
    _check_elements(g)
    _check_exact(f)
    _check_reach(g.cutoff, f.degree)
    out = {}
    f_terms = f._nums.items()
    for mu, b in g._nums.items():
        for nu, a in f_terms:
            try:
                rho = multiset_diff(nu, mu)
            except ValueError:
                continue
            out[rho] = out.get(rho, 0) + a * b * (_z_value(nu) // _z_value(rho))
    return SymFunc._build(out, g._den * f._den)


def _pk_plethysm(k: int, g: SymFunc) -> SymFunc:
    """p_k[g]: every index partition of g with its parts scaled by k.

    A series g known through degree c gives p_k[g] known through k*c.
    """
    nums = {tuple(p * k for p in mu): c for mu, c in g._nums.items()}
    return SymFunc._build(nums, g._den, None if g.cutoff is None else k * g.cutoff)


def plethysm(f: SymFunc, g: SymFunc) -> SymFunc:
    """Plethysm f[g]: substitute p_j -> p_{jk} in g for each p_k of f.

    Defined when f is exact, or when g has no constant term (then only
    finitely many terms of f touch each output degree).
    """
    _check_elements(f, g)
    has_constant = () in g._nums
    if f.cutoff is not None and has_constant:
        raise ValueError(
            "plethysm of a truncated series by a series with constant term"
        )
    cutoff = SymFunc._min_cutoff(f.cutoff, g.cutoff)
    pk = {k: _pk_plethysm(k, g) for lam in f._nums for k in set(lam)}
    products = []
    for lam, c in f._nums.items():
        if cutoff is not None and not has_constant and sum(lam) > cutoff:
            continue
        prod = SymFunc.one(cutoff)
        for part in lam:
            prod = prod * pk[part]
        products.append((Fraction(c, f._den), prod))
    return _linear_combination(products, cutoff)


# -- standard series ------------------------------------------------------


def lyndon_sf(n: int) -> SymFunc:
    """The degree-n Lyndon symmetric function (Mobius sum over divisor powers)."""
    n = _count(n, 1)
    return SymFunc._build({(d,) * (n // d): mobius(d) for d in divisors(n)}, n)


# The degree at which each standard series starts.
_SERIES_START = {"H": 0, "Hplus": 1, "Hgeq2": 2, "E": 0, "Emin": 0, "Lsum": 1, "Cadogan": 1}


def _series_term(name: str, n: int) -> SymFunc:
    """The degree-n term of the named standard series (Macdonald I.2): h_n
    for H, Hplus and Hgeq2, e_n for E, (-1)^n e_n for Emin, lyndon_sf(n)
    for Lsum and (-1)^(n-1) omega(lyndon_sf(n)) for Cadogan; any other name
    raises ValueError."""
    if name in ("H", "Hplus", "Hgeq2"):
        return _basis_element("h", (n,) if n else ())
    if name in ("E", "Emin"):
        term = _basis_element("e", (n,) if n else ())
        return -term if name == "Emin" and n & 1 else term
    if name == "Lsum":
        return lyndon_sf(n)
    if name == "Cadogan":
        return omega(lyndon_sf(n)) * (-1) ** (n - 1)
    raise ValueError(f"unknown series {name!r}")


def standard_series(name: str, cutoff: int) -> SymFunc:
    """The named generating series, exact through the cutoff.

    H (all complete homogeneous), Hplus (H - 1), Hgeq2 (H - 1 - h_1),
    E, Emin (alternating elementary), Lsum (sum of the Lyndon symmetric
    functions) and Cadogan (the plethystic inverse of Hplus); any other
    name, a str or not, raises ValueError. The series is the sum of its
    terms ``_series_term(name, n)`` from its start degree through the
    cutoff. The single Lyndon function of one degree is ``lyndon_sf``.
    """
    cutoff = _count(cutoff)
    if not isinstance(name, str) or name not in _SERIES_START:
        raise ValueError(f"unknown series {name!r}")
    return _standard_series(name, cutoff)


@lru_cache(maxsize=None)
def _standard_series(name: str, cutoff: int) -> SymFunc:
    """``standard_series`` on a known name and a validated cutoff."""
    terms = [(1, _series_term(name, n)) for n in range(_SERIES_START[name], cutoff + 1)]
    return _linear_combination(terms, cutoff)


def leading_term(f: SymFunc, basis: str = "s"):
    """(partition, coefficient) of the canonical leading term of the top
    degree; f must be exact and nonzero, as a series' top follows its cutoff."""
    _check_exact(f)
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


def _field(data: dict, key: str):
    """data[key]; data that is not a dict, or a missing key, raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with {key!r}, got {data!r}")
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"serialized form has no {key!r}") from None


def from_serializable(data: dict) -> SymFunc:
    """Rebuild a SymFunc from its serialized form.

    Raises ValueError on a blob or term that is not a JSON object, terms
    that are not a list, a missing key, a num or den that is not a decimal
    string, a zero denominator or a term above the cutoff.
    """
    basis = _field(data, "basis")
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    cutoff = None if data.get("cutoff") is None else _count(data["cutoff"])
    terms = _field(data, "terms")
    if not isinstance(terms, list):
        raise ValueError(f"terms must be a list, got {terms!r}")
    pairs = []
    for term in terms:
        lam = as_partition(_field(term, "partition"))
        if cutoff is not None and sum(lam) > cutoff:
            raise ValueError(f"term of degree {sum(lam)} above cutoff {cutoff}")
        num, den = (_decimal(_field(term, key), key) for key in ("num", "den"))
        if den == 0:
            raise ValueError(f"zero denominator in the term of {lam}")
        pairs.append((Fraction(num, den), _basis_element(basis, lam)))
    return _linear_combination(pairs, cutoff)
