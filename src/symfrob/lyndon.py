"""Words over a totally ordered alphabet: Lyndon testing, factorization,
enumeration, and Witt counts.

Words are plain tuples of letters. Letters only need a total order, so
integer alphabets [1..k] and pair alphabets [(1,1),(1,2),...] both work.
"""

from __future__ import annotations

from collections import Counter

from .partitions import _count, divisors, mobius
from .symfunc import InternalCheckError


def is_lyndon(w) -> bool:
    """True iff w is nonempty and strictly smaller than each proper suffix."""
    w = tuple(w)
    if not w:
        return False
    return all(w < w[i:] for i in range(1, len(w)))


def factorize(w) -> list:
    """Chen-Fox-Lyndon factorization by Duval's linear scan.

    Returns the unique non-increasing list of Lyndon words whose
    concatenation is w.
    """
    w = tuple(w)
    out = []
    k, n = 0, len(w)
    while k < n:
        i, j = k, k + 1
        while j < n and w[i] <= w[j]:
            i = k if w[i] < w[j] else i + 1
            j += 1
        while k <= i:
            out.append(w[k : k + j - i])
            k += j - i
    return out


def pi_of_word(w) -> tuple:
    """Multiplicities of the distinct Lyndon factors of w, sorted decreasing."""
    counts = Counter(factorize(w))
    return tuple(sorted(counts.values(), reverse=True))


def _as_alphabet(alphabet) -> list:
    """The letters in order; a size, or a string read as one, means [1..size].

    An empty alphabet or a repeated letter raises ValueError, as a size
    below 1 does.
    """
    if isinstance(alphabet, str) or not hasattr(alphabet, "__iter__"):
        return list(range(1, _count(alphabet, 1) + 1))
    letters = sorted(alphabet)
    if not letters:
        raise ValueError("an alphabet needs at least one letter")
    if any(a == b for a, b in zip(letters, letters[1:])):
        raise ValueError(f"alphabet {letters} repeats a letter")
    return letters


def lyndon_words(alphabet, max_len: int) -> list:
    """All Lyndon words of length <= max_len over the alphabet, in lex order.

    ``alphabet`` is either a size (meaning [1..size]) or an iterable of
    letters. Generation is Duval's successor algorithm on letter indices.
    """
    letters = _as_alphabet(alphabet)
    k = len(letters)
    max_len = _count(max_len)
    if not max_len:
        return []
    out = []
    w = [0]
    while w:
        out.append(tuple(letters[c] for c in w))
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def content_vector(w, alphabet) -> tuple:
    """Counts of each alphabet letter in w, in alphabet order."""
    letters = _as_alphabet(alphabet)
    counts = Counter(w)
    unknown = set(counts) - set(letters)
    if unknown:
        raise ValueError(f"letters {sorted(unknown)} not in alphabet")
    return tuple(counts.get(a, 0) for a in letters)


def enumerate_lyndon(alphabet, max_total: int) -> dict:
    """Lyndon words of length <= max_total grouped by content vector."""
    grouped: dict = {}
    for w in lyndon_words(alphabet, max_total):
        grouped.setdefault(content_vector(w, alphabet), []).append(w)
    return grouped


def witt_count(alphabet_size: int, n: int) -> int:
    """Number of Lyndon words of length n over a totally ordered alphabet."""
    alphabet_size, n = _count(alphabet_size, 1), _count(n, 1)
    total = sum(mobius(d) * alphabet_size ** (n // d) for d in divisors(n))
    if total % n:
        raise InternalCheckError(f"Witt sum {total} is not divisible by {n}")
    return total // n


def parse_word(text: str) -> tuple:
    """Parse a word: a digit string like "2121", or comma-separated integers."""
    s = text.strip()
    if not s:
        return ()
    if "," in s:
        return tuple(int(tok) for tok in s.split(","))
    if not s.isdigit():
        raise ValueError(f"cannot parse word from {text!r}")
    return tuple(int(ch) for ch in s)


def format_word(w) -> str:
    """Digit string for single-digit integer letters, pairs as "(i,j)"."""
    if all(isinstance(a, tuple) for a in w):
        return "".join("(%s,%s)" % a for a in w)
    if all(isinstance(a, int) and 1 <= a <= 9 for a in w):
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def format_factorization(w) -> str:
    """Factorization rendered like "(2)(12)(12)(1)"."""
    return "".join("(" + format_word(f) + ")" for f in factorize(w))
