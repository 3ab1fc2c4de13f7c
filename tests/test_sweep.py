"""A seeded cross-route sweep above the exhaustive degrees.

The exhaustive checks stop at degrees 5-12; here each test draws inputs
from ``random.Random(SEED)`` at higher degrees and compares two
independent routes to the same exact answer. Every assertion message
names its input, so a failure reproduces from the seed and that input.
The whole sweep runs cold in well under 3 s.
"""

import random

import symfrob
from symfrob.frobenius import (
    coeff,
    fsur,
    fsur_p_direct,
    fsurinv,
    fsurinv_iterative,
    fsurinv_p_direct,
    restriction_coeff_eval,
)
from symfrob.partitions import partitions_of
from symfrob.symfunc import _p_in_s, character_value, from_basis

from helpers import column_by_partition, random_symfunc

SEED = 20261022


def random_partition(rng, n, max_len=None):
    """A uniformly drawn partition of n, with at most max_len parts if given."""
    shapes = [lam for lam in partitions_of(n) if max_len is None or len(lam) <= max_len]
    return rng.choice(shapes)


def test_sweep_schur_columns_match_row_characters_at_degrees_13_to_16():
    # Columns are built bottom-up one border strip at a time, rows
    # top-down by _border_strip_sum; each drawn column is read whole.
    symfrob.clear_caches()
    rng = random.Random(SEED)
    for n in range(13, 17):
        for _ in range(4):
            nu = random_partition(rng, n)
            column = column_by_partition(_p_in_s(nu))
            for lam in partitions_of(n):
                assert column.get(lam, 0) == character_value(lam, nu), (lam, nu)


def test_sweep_p_direct_formulas_match_the_engine():
    symfrob.clear_caches()
    rng = random.Random(SEED)
    for _ in range(24):
        alpha = random_partition(rng, rng.randint(8, 16), max_len=7)
        p_alpha = from_basis("p", alpha)
        assert fsur_p_direct(alpha) == fsur(p_alpha), ("fsur", alpha)
        assert fsurinv_p_direct(alpha) == fsurinv(p_alpha), ("fsurinv", alpha)


def test_sweep_iterative_inverse_matches_fsurinv():
    symfrob.clear_caches()
    rng = random.Random(SEED)
    for basis in ("s", "h", "e", "p") * 2:
        f = random_symfunc(rng, 14, basis=basis)
        assert fsurinv_iterative(f) == fsurinv(f), (basis, f)


def test_sweep_r_column_route_matches_the_evaluation_route():
    symfrob.clear_caches()
    rng = random.Random(SEED)
    for _ in range(12):
        n = rng.randint(10, 14)
        lam = random_partition(rng, n)
        mu = random_partition(rng, rng.randint(n - 4, n))
        assert coeff("r", lam, mu) == restriction_coeff_eval(lam, mu), (lam, mu)
