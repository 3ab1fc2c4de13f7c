import math
from collections import Counter
from itertools import combinations

import pytest

import symfrob
from symfrob.frobenius import coeff, fsur_h_direct
from symfrob.partitions import (
    _block_splits,
    _count,
    as_partition,
    canonical_key,
    conjugate,
    durfee,
    format_partition,
    hat,
    intersect,
    is_subpartition,
    parse_partition,
    partition_from_composition,
    partitions_of,
    partitions_up_to,
    stable_pad,
    z_value,
)
from symfrob.symfunc import SymFunc

from helpers import brute_partitions


def test_as_partition_validates():
    assert as_partition([3, 2, 2]) == (3, 2, 2)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, 0])
    assert as_partition([2.0, 1]) == (2, 1)
    # A non-integral part raises instead of being truncated.
    with pytest.raises(ValueError):
        as_partition([2.5, 1.9])
    with pytest.raises(ValueError):
        coeff("t", [2.7], [2.2])
    with pytest.raises(ValueError):
        SymFunc({(1.5,): 1})
    # A bool is an int in Python, but not a part.
    for parts in ([True], [2, True], [False]):
        with pytest.raises(ValueError, match="parts must be integers"):
            as_partition(parts)


def test_count_rejects_booleans():
    assert _count(3) == 3
    assert _count(3.0, 1) == 3
    for flag in (True, False):
        with pytest.raises(ValueError, match="counts must be integers"):
            _count(flag)


def _serialized(part):
    return {"basis": "s", "terms": [{"partition": part, "num": "1", "den": "1"}]}


@pytest.mark.parametrize(
    "name,args",
    [
        ("as_partition", ([None],)),
        ("as_partition", ([[1]],)),
        ("as_partition", (5,)),
        ("from_basis", ("s", None)),
        ("coeff", ("r", [None], (1,))),
        ("witness_search", ([None], 1)),
        ("character_value", ([None], (1,))),
        ("stable_pad", (5, 3)),
        ("tilde_h", (5,)),
        ("durfee_criterion", (5, 1)),
        ("fsur_h_direct", (5,)),
        ("partition_from_composition", (5,)),
        ("fsurinv_e_words", (5,)),
        *(("from_serializable", (_serialized(part),)) for part in (None, 5, [None], [[1]])),
    ],
)
def test_parts_that_are_not_integers_raise_value_error(name, args):
    # A part int() cannot take, or parts that are not a sequence at all.
    with pytest.raises(ValueError, match="parts must be integers"):
        getattr(symfrob, name)(*args)


def test_partition_from_composition():
    assert partition_from_composition([0, 3, 1, 0, 2]) == (3, 2, 1)
    assert partition_from_composition([]) == ()
    with pytest.raises(ValueError):
        partition_from_composition([1, -1])
    with pytest.raises(ValueError):
        partition_from_composition([2.5, 0, 1.2])
    with pytest.raises(ValueError):
        fsur_h_direct((1.7,))


@pytest.mark.parametrize(
    "lam,expected",
    [((), ()), ((3, 1), (2, 1, 1)), ((2, 2), (2, 2))],
)
def test_conjugate_examples(lam, expected):
    assert conjugate(lam) == expected


def test_conjugate_involution():
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == sum(lam)


@pytest.mark.parametrize(
    "lam,mu,expected",
    [((3, 1), (2, 2), (2, 1)), ((5,), (1, 1, 1), (1,))],
)
def test_intersect_examples(lam, mu, expected):
    assert intersect(lam, mu) == expected


def test_intersect_properties():
    parts = partitions_up_to(6)
    for lam in parts:
        assert intersect(lam, lam) == lam
        for mu in parts:
            meet = intersect(lam, mu)
            assert meet == intersect(mu, lam)
            assert is_subpartition(meet, lam) and is_subpartition(meet, mu)
    for lam in partitions_of(5):
        for mu in partitions_of(4):
            for nu in partitions_of(3):
                assert intersect(intersect(lam, mu), nu) == intersect(
                    lam, intersect(mu, nu)
                )


@pytest.mark.parametrize(
    "mu,expected", [((), 0), ((3, 2, 2), 2), ((1, 1, 1, 1), 1)]
)
def test_durfee_examples(mu, expected):
    assert durfee(mu) == expected


def test_durfee_conjugation_invariant():
    for n in range(10):
        for mu in partitions_of(n):
            assert durfee(mu) == durfee(conjugate(mu))


@pytest.mark.parametrize("lam,expected", [((1, 1), 2), ((2,), 2), ((3, 1, 1), 6)])
def test_z_examples(lam, expected):
    assert z_value(lam) == expected


def test_class_sizes_partition_symmetric_group():
    for n in range(11):
        total = sum(
            math.factorial(n) // z_value(lam) for lam in partitions_of(n)
        )
        assert total == math.factorial(n)


def test_partitions_of_against_brute_enumeration():
    assert partitions_of(0) == [()]
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(8)) == 22
    for n in range(11):
        listed = partitions_of(n)
        assert set(listed) == brute_partitions(n)
        assert len(set(listed)) == len(listed)


def test_partitions_canonical_order():
    for n in range(9):
        listed = partitions_of(n)
        assert listed == sorted(listed, reverse=True)
    up_to = partitions_up_to(5)
    assert up_to == sorted(up_to, key=canonical_key)
    assert up_to[:4] == [(), (1,), (2,), (1, 1)]


def test_stable_pad_and_hat():
    assert stable_pad((2, 1), 7) == (4, 2, 1)
    assert hat((4, 2, 1)) == (2, 1)
    for mu, n in (((2, 1), 4), ((1, 2), 5), ([2.5], 5)):
        with pytest.raises(ValueError):
            stable_pad(mu, n)
    for mu in partitions_up_to(5):
        first = (mu[0] if mu else 0) + sum(mu)
        for n in range(first, first + 3):
            padded = stable_pad(mu, n)
            assert hat(padded) == mu
            assert sum(padded) == n


def test_parse_and_format():
    assert parse_partition("[3,2,1]") == (3, 2, 1)
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("[]") == ()
    assert parse_partition("") == ()
    assert format_partition((3, 2, 1)) == "[3,2,1]"
    assert format_partition(()) == "[]"
    with pytest.raises(ValueError):
        parse_partition("[1,2]")
    with pytest.raises(ValueError):
        parse_partition("[a]")
    for lam in partitions_up_to(6):
        assert parse_partition(format_partition(lam)) == lam


@pytest.mark.parametrize("text", ["[1_0]", "[+1]", "[1.0]", "[\u0663]", "[\u00b2]", "[1,,1]"])
def test_parse_partition_reads_ascii_decimals_only(text):
    # int() read "1_0" as 10, "+1" as 1 and "\u0663" (Arabic-Indic three) as 3.
    with pytest.raises(ValueError, match="cannot parse partition"):
        parse_partition(text)
    assert parse_partition(" [ 3 , 2 ] ") == (3, 2)


@pytest.mark.parametrize("part", [math.inf, -math.inf, math.nan])
def test_non_finite_parts_raise_value_error(part):
    # int() raised OverflowError on an infinity.
    with pytest.raises(ValueError, match="parts must be integers"):
        as_partition([part])
    with pytest.raises(ValueError, match="counts must be integers"):
        _count(part)


def test_block_splits_enumerate_each_sub_multiset_once():
    for rest in partitions_up_to(8):
        splits = _block_splits(rest)
        # Each sub-multiset, counted over the position subsets holding it.
        by_positions = Counter(
            tuple(rest[i] for i in chosen)
            for size in range(len(rest) + 1)
            for chosen in combinations(range(len(rest)), size)
        )
        sigmas = [sigma for sigma, _, _ in splits]
        assert len(sigmas) == len(set(sigmas)), rest
        assert {sigma: ways for sigma, ways, _ in splits} == dict(by_positions), rest
        assert sum(ways for _, ways, _ in splits) == 2 ** len(rest), rest
        for sigma, _, left in splits:
            assert as_partition(sigma) == sigma and as_partition(left) == left
            assert tuple(sorted(sigma + left, reverse=True)) == rest, (rest, sigma, left)
