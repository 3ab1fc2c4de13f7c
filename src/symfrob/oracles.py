"""Independent computation routes used only for cross-validation.

The full Frobenius transform can be computed without any plethysm by
evaluating the input at the eigenvalue multiset of a permutation of each
cycle type: the power sum p_k evaluates there to an integer divisor sum.
This module implements that route; it depends only on the partition and
symmetric function layers, never on the transform engine it checks.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import (
    _count,
    _z_value,
    as_partition,
    divisors,
    multiplicities,
    partitions_of,
)
from .symfunc import SymFunc, _check_elements

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
    mult = multiplicities(as_partition(mu))
    return sum(d * mult.get(d, 0) for d in divisors(_count(k, 1)))


def eval_at_unity(f: SymFunc, mu) -> Fraction:
    """Evaluate the exact symmetric function f at the cycle-type eigenvalues."""
    _check_elements(f)
    if f.cutoff is not None:
        raise ValueError("evaluation needs an exact symmetric function")
    mu = as_partition(mu)
    total = Fraction(0)
    cache: dict = {}
    for lam, c in f.terms():
        value = 1
        for part in lam:
            if part not in cache:
                cache[part] = power_value_at_unity(part, mu)
            value *= cache[part]
            if not value:
                break
        if value:
            total += c * value
    return total


def frobenius_via_roots(f: SymFunc, cutoff: int) -> SymFunc:
    """The full Frobenius transform through the cutoff, by evaluation only.

    The result goes through the validating constructor ``SymFunc(...)``,
    the one builder in the package besides a scalar's ``_coerce`` that
    does not use ``SymFunc._build``: it reduces Fractions of its own, so
    the oracle shares no reduction with the ``_build``-made engine output
    it is compared with, and a fault in ``_build`` cannot hide on both
    sides. This module imports nothing from ``frobenius``.
    """
    cutoff = _count(cutoff)
    terms = {}
    for n in range(cutoff + 1):
        for mu in partitions_of(n):
            value = eval_at_unity(f, mu)
            if value:
                terms[mu] = value / _z_value(mu)
    return SymFunc(terms, cutoff)
