from itertools import product

import pytest

from symfrob.lyndon import (
    content_vector,
    enumerate_lyndon,
    factorize,
    format_factorization,
    format_word,
    is_lyndon,
    lyndon_words,
    parse_word,
    pi_of_word,
    witt_count,
)
from symfrob.symfunc import lyndon_sf

from helpers import brute_lyndon_factorizations, evaluate_in_variables


def test_is_lyndon_examples():
    assert is_lyndon((1,))
    assert is_lyndon((1, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert not is_lyndon(())


def test_factorize_worked_example():
    w = parse_word("21212121111")
    assert factorize(w) == [
        (2,),
        (1, 2),
        (1, 2),
        (1, 2),
        (1,),
        (1,),
        (1,),
        (1,),
    ]
    assert format_factorization(w) == "(2)(12)(12)(12)(1)(1)(1)(1)"
    assert pi_of_word(w) == (4, 3, 1)


def test_factorize_edges():
    assert factorize(()) == []
    assert factorize((1, 1, 1)) == [(1,), (1,), (1,)]
    assert pi_of_word((1, 1, 1, 1)) == (4,)
    for w in lyndon_words(3, 5):
        assert pi_of_word(w) == (1,)


def test_factorization_validates_over_two_letters():
    for length in range(13):
        for w in product((1, 2), repeat=length):
            factors = factorize(w)
            assert tuple(x for f in factors for x in f) == w
            assert all(is_lyndon(f) for f in factors)
            assert all(factors[i] >= factors[i + 1] for i in range(len(factors) - 1))
            # corrected invariant: |pi(w)| counts the Lyndon factors
            assert sum(pi_of_word(w)) == len(factors)


def test_duval_matches_brute_force():
    for length in range(9):
        for w in product((1, 2, 3), repeat=length):
            all_factorizations = brute_lyndon_factorizations(w)
            assert len(all_factorizations) == 1, w
            assert all_factorizations[0] == factorize(w), w


def test_enumeration_counts_match_witt():
    assert witt_count(2, 2) == 1
    assert witt_count(2, 3) == 2
    for ell in (1, 2, 3):
        words = lyndon_words(ell, 8)
        by_length = {}
        for w in words:
            by_length.setdefault(len(w), []).append(w)
        for n in range(1, 9):
            assert len(by_length.get(n, [])) == witt_count(ell, n), (ell, n)
            assert all(is_lyndon(w) for w in by_length.get(n, []))


def test_single_letter_alphabet():
    assert lyndon_words(1, 5) == [(1,)]
    assert lyndon_words(1, 0) == []
    assert witt_count(1, 2) == 0


@pytest.mark.parametrize("alphabet", [[1, 1], [], (2, 1, 2), [(1, 2), (1, 2)]])
def test_empty_or_repeated_alphabet_is_rejected(alphabet):
    # Duval's successor needs distinct letters: over [1, 1] it yields the
    # non-Lyndon word (1, 1) and (1,) twice.
    with pytest.raises(ValueError, match="alphabet"):
        lyndon_words(alphabet, 2)
    with pytest.raises(ValueError, match="alphabet"):
        content_vector((), alphabet)
    with pytest.raises(ValueError, match="alphabet"):
        enumerate_lyndon(alphabet, 2)


def test_enumerate_lyndon_grouping():
    grouped = enumerate_lyndon(2, 3)
    assert grouped[(1, 1)] == [(1, 2)]
    assert grouped[(2, 1)] == [(1, 1, 2)]
    assert grouped[(1, 2)] == [(1, 2, 2)]
    for content, words in grouped.items():
        for w in words:
            assert content_vector(w, 2) == content


def test_pair_alphabet_lexicographic():
    alphabet = [(i, j) for i in (1, 2) for j in (1, 2)]
    words = lyndon_words(alphabet, 2)
    assert ((1, 1),) in words
    assert ((1, 1), (1, 2)) in words
    assert (((1, 2), (1, 1))) not in words
    for w in words:
        assert is_lyndon(w)


def test_witt_symmetric_functions_evaluate_to_lyndon_words():
    # The sum of the degree-<=N Lyndon functions, evaluated at ell
    # variables, lists every Lyndon word of length <= N by content.
    for ell in (1, 2, 3):
        for top in range(1, 7):
            total = lyndon_sf(1)
            for n in range(2, top + 1):
                total = total + lyndon_sf(n)
            values = evaluate_in_variables(total, ell)
            expected = {}
            for w in lyndon_words(ell, top):
                key = content_vector(w, ell)
                expected[key] = expected.get(key, 0) + 1
            assert values == expected, (ell, top)


def test_word_parse_and_format():
    assert parse_word("2121") == (2, 1, 2, 1)
    assert parse_word("10,2,3") == (10, 2, 3)
    assert format_word((1, 2, 1)) == "121"
    assert format_word((10, 2)) == "10,2"
    assert format_word(((1, 2), (2, 1))) == "(1,2)(2,1)"
    with pytest.raises(ValueError):
        parse_word("12a")
