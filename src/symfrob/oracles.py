"""Independent computation routes used only for cross-validation.

The full Frobenius transform can be computed without any plethysm by
evaluating the input at the eigenvalue multiset of a permutation of each
cycle type: the power sum p_k evaluates there to an integer divisor sum.
This module implements that route; it depends only on the partition and
symmetric function layers, never on the transform engine it checks, and
reads an element only through its public ``terms()``. Every class sum is
taken in ints: the terms over one common denominator, times the int
power values, with one Fraction per class at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .partitions import (
    _count,
    _z_value,
    as_partition,
    divisors,
    multiplicities,
    partitions_of,
)
from .symfunc import SymFunc, _check_exact

__all__ = [
    "eval_at_unity",
    "frobenius_via_roots",
    "power_value_at_unity",
]


def power_value_at_unity(k: int, mu) -> int:
    """p_k at the eigenvalues of a permutation of cycle type mu.

    Each part d of mu contributes its d-th roots of unity, whose k-th
    powers sum to d when d divides k and to 0 otherwise.
    """
    return _power_value(_count(k, 1), multiplicities(as_partition(mu)))


def _power_value(k: int, mult: dict) -> int:
    """``power_value_at_unity`` for a valid k and the part multiplicities of mu."""
    return sum(d * mult.get(d, 0) for d in divisors(k))


def _numerators(f: SymFunc) -> tuple:
    """(pairs, D) with f the sum of (a / D) p_lam over the (lam, a) pairs,
    each a an int, read from ``f.terms()`` over the lcm D of their
    denominators. f must be an exact element: anything but a SymFunc
    raises TypeError, a series ValueError."""
    _check_exact(f)
    terms = f.terms()
    den = lcm(*(c.denominator for _, c in terms))
    return [(lam, c.numerator * (den // c.denominator)) for lam, c in terms], den


def _class_sum(pairs, mu) -> int:
    """The sum of a * prod_(k in lam) p_k(mu) over the (lam, a) int pairs,
    each p_k(mu) computed once."""
    mult = multiplicities(mu)
    values: dict = {}
    total = 0
    for lam, a in pairs:
        for part in lam:
            if part not in values:
                values[part] = _power_value(part, mult)
            a *= values[part]
            if not a:
                break
        total += a
    return total


def eval_at_unity(f: SymFunc, mu) -> Fraction:
    """Evaluate the exact symmetric function f at the cycle-type eigenvalues."""
    pairs, den = _numerators(f)
    return Fraction(_class_sum(pairs, as_partition(mu)), den)


def frobenius_via_roots(f: SymFunc, cutoff: int) -> SymFunc:
    """The full Frobenius transform through the cutoff, by evaluation only.

    The coefficient of p_mu is f at the eigenvalues of a permutation of
    cycle type mu, over z_mu. f's terms are read once, as int numerators
    over one common denominator D, and each class sums ints
    (``_class_sum``); one Fraction per class divides by D z_mu.

    The result goes through the validating constructor ``SymFunc(...)``,
    the one builder in the package besides a scalar's ``_coerce`` that
    does not use ``SymFunc._build``: it reduces Fractions of its own, so
    the oracle shares no reduction with the ``_build``-made engine output
    it is compared with, and a fault in ``_build`` cannot hide on both
    sides. This module reads elements only through ``terms()`` and
    imports nothing from ``frobenius``.
    """
    cutoff = _count(cutoff)
    pairs, den = _numerators(f)
    terms = {}
    for n in range(cutoff + 1):
        for mu in partitions_of(n):
            total = _class_sum(pairs, mu)
            if total:
                terms[mu] = Fraction(total, den * _z_value(mu))
    return SymFunc(terms, cutoff)
