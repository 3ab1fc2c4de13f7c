"""Integer partition utilities: validation, enumeration, statistics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition. Everything here is pure, so the
enumerations are cached and shared freely.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb, factorial


def _integers(parts) -> tuple:
    """The entries of *parts* as ints; parts that are not iterable, an
    entry that is not integral (None, a list, 2.5), an infinity, a NaN or
    a bool (which JSON and Python read as 0 or 1) raises ValueError.
    Entries that are all exact ints, the common case, return as they are."""
    try:
        raw = tuple(parts)
    except TypeError:
        raise ValueError(f"parts must be integers, got {parts!r}") from None
    if {*map(type, raw)} <= {int}:
        return raw
    try:
        out = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != raw or bool in map(type, raw):
        raise ValueError(f"parts must be integers, got {raw}")
    return out


def _count(value, least=0) -> int:
    """*value* as an int of at least *least*: 2.0 gives 2, while 2.5, "2",
    True or a smaller value raise ValueError."""
    if type(value) is int and value >= least:
        return value
    try:
        (count,) = _integers((value,))
    except ValueError:
        count = None
    if count is None or count < least:
        raise ValueError(f"counts must be integers >= {least}, got {value!r}")
    return count


def _decimal(text, name) -> int:
    """The int written in *text* as an optional "-" and ASCII digits; any
    other text, such as "1_0", " 1" or a non-ASCII digit, raises ValueError."""
    if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{name} must be a decimal string, got {text!r}")
    return int(text)


def as_partition(parts) -> tuple:
    """Validate *parts* as a partition and return it as a tuple."""
    lam = _integers(parts)
    if list(lam) != sorted(lam, reverse=True):
        raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    if lam and lam[-1] < 1:
        raise ValueError(f"partition parts must be positive, got {lam}")
    return lam


def partition_from_composition(parts) -> tuple:
    """Sort a sequence of nonnegative integers into a partition, dropping zeros."""
    return tuple(sorted((p for p in map(_count, _integers(parts)) if p), reverse=True))


def conjugate(lam) -> tuple:
    """Transpose of the Young diagram."""
    lam = tuple(lam)
    if not lam:
        return ()
    out = []
    for i in range(lam[0]):
        out.append(sum(1 for p in lam if p > i))
    return tuple(out)


def intersect(lam, mu) -> tuple:
    """Componentwise minimum (intersection of Young diagrams)."""
    return tuple(min(a, b) for a, b in zip(lam, mu))


def is_subpartition(lam, mu) -> bool:
    """True when the diagram of lam fits inside the diagram of mu."""
    return intersect(lam, mu) == tuple(lam)


def durfee(mu) -> int:
    """Side of the largest square fitting in the diagram: max d with mu_d >= d."""
    d = 0
    for i, p in enumerate(mu, start=1):
        if p >= i:
            d = i
    return d


def multiplicities(lam) -> dict:
    """Mapping part value -> number of occurrences."""
    out: dict = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


@lru_cache(maxsize=None)
def z_value(lam) -> int:
    """Centralizer order: product over parts i of i^m_i * m_i!."""
    z = 1
    for i, m in multiplicities(lam).items():
        z *= i**m * factorial(m)
    return z


# The partition id table. The integer column memos (the plethysm
# coefficients, the p-to-h and p-to-m columns) key their entries by a
# small int id instead of the partition tuple, which is cheaper to hash.
# Ids are handed out in discovery order, ``_PART_ENTRIES[id]`` is the
# partition of an id, and ids never leave the package.
# Only ``symfrob.clear_caches()`` empties the table, in the same call that
# clears every lru_cache memo, since those are the only holders of ids.
_PART_IDS: dict = {}
_PART_ENTRIES: list = []


def _part_id(lam) -> int:
    """The id of the partition tuple lam, handed out on first sight."""
    pid = _PART_IDS.get(lam)
    if pid is None:
        pid = _PART_IDS[lam] = len(_PART_ENTRIES)
        _PART_ENTRIES.append(lam)
    return pid


def _clear_part_ids() -> None:
    _PART_IDS.clear()
    _PART_ENTRIES.clear()


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    n = _count(n, 1)
    result, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def _partitions_of(n: int, max_part: int) -> tuple:
    if n == 0:
        return ((),)
    out = []
    for k in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - k, k):
            out.append((k,) + rest)
    return tuple(out)


def partitions_of(n: int, max_part=None) -> list:
    """All partitions of n in canonical order (descending lexicographic).

    The optional ``max_part`` bounds the largest part.
    """
    n = _count(n)
    return list(_partitions_of(n, n if max_part is None else min(_count(max_part), n)))


def partitions_up_to(n: int) -> list:
    """Partitions of 0..n in canonical order: ascending size, then descending lex."""
    n = _count(n)
    out = []
    for m in range(n + 1):
        out.extend(_partitions_of(m, m))
    return out


def canonical_key(lam):
    """Sort key for canonical order: ascending size, descending lex within a size."""
    return (sum(lam), tuple(-p for p in lam))


def stable_pad(mu, n: int) -> tuple:
    """Prepend n - |mu| as a new largest part; requires n >= mu_1 + |mu|."""
    mu = as_partition(mu)
    first = _count(n) - sum(mu)
    if mu and first < mu[0]:
        raise ValueError(f"cannot pad {mu} to size {n}: new part {first} < {mu[0]}")
    return (first,) + mu if first else ()


def hat(mu) -> tuple:
    """Drop the first (largest) part."""
    return tuple(mu)[1:]


def parse_partition(text: str) -> tuple:
    """Parse "[3,2,1]" (brackets optional, "[]" or "" is the empty partition)."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    try:
        parts = [_decimal(tok.strip(), "a part") for tok in s.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return as_partition(parts)


def format_partition(lam) -> str:
    """Canonical bracketed form, "[]" for the empty partition."""
    return "[" + ",".join(str(p) for p in lam) + "]"


# Multiset helpers on partition tuples (used by the symmetric function core).

def multiset_union(lam, mu) -> tuple:
    return tuple(sorted(lam + mu, reverse=True))


def multiset_diff(lam, mu) -> tuple:
    """Remove the parts of mu from lam; raises if mu is not contained."""
    remaining = list(lam)
    for p in mu:
        remaining.remove(p)
    return tuple(remaining)


@lru_cache(maxsize=None)
def _block_splits(rest) -> tuple:
    """(sigma, ways, rest - sigma) for each sub-multiset sigma of the partition rest.

    ways = prod_j comb(m_j(rest), m_j(sigma)) counts the position subsets
    of rest holding sigma. The entries are partition tuples, never ids.
    """
    out = [((), 1, ())]
    for value, mult in multiplicities(rest).items():
        out = [
            (sigma + (value,) * k, ways * comb(mult, k), left + (value,) * (mult - k))
            for sigma, ways, left in out
            for k in range(mult + 1)
        ]
    return tuple(out)
