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
    fsur_e_direct,
    fsur_h_direct,
    fsur_p_direct,
    fsurinv,
    fsurinv_iterative,
    fsurinv_p_direct,
    restriction_coeff_eval,
)
from symfrob.partitions import partitions_of
from symfrob.symfunc import SymFunc, _p_column, character_value, from_basis, hall

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
            column = column_by_partition(_p_column("s", nu))
            for lam in partitions_of(n):
                assert column.get(lam, 0) == character_value(lam, nu), (lam, nu)


def test_sweep_h_and_m_columns_match_their_definitions_at_degrees_13_to_16():
    # The h column sums back to p_nu, and the m column is the pairing
    # with h, the Hall dual of m (Macdonald I.6); the exhaustive checks
    # of both stop at degree 9.
    symfrob.clear_caches()
    rng = random.Random(SEED)
    for n in range(13, 17):
        for _ in range(2):
            nu = random_partition(rng, n)
            p_nu = from_basis("p", nu)
            total = SymFunc.zero()
            for mu, c in column_by_partition(_p_column("h", nu)).items():
                total = total + from_basis("h", mu) * c
            assert total == p_nu, ("h", nu)
            column = column_by_partition(_p_column("m", nu))
            for mu in partitions_of(n):
                assert column.get(mu, 0) == hall(p_nu, from_basis("h", mu)), ("m", nu, mu)


def test_sweep_p_direct_formulas_match_the_engine():
    symfrob.clear_caches()
    rng = random.Random(SEED)
    for _ in range(24):
        alpha = random_partition(rng, rng.randint(8, 16), max_len=7)
        p_alpha = from_basis("p", alpha)
        assert fsur_p_direct(alpha) == fsur(p_alpha), ("fsur", alpha)
        assert fsurinv_p_direct(alpha) == fsurinv(p_alpha), ("fsurinv", alpha)


def test_sweep_e_and_h_direct_formulas_match_the_engine():
    symfrob.clear_caches()
    rng = random.Random(SEED)
    for _ in range(8):
        alpha = random_partition(rng, rng.randint(9, 12), max_len=6)
        assert fsur_e_direct(alpha) == fsur(from_basis("e", alpha)), ("e", alpha)
    for _ in range(6):
        alpha = random_partition(rng, rng.randint(10, 14), max_len=3)
        assert fsur_h_direct(alpha) == fsur(from_basis("h", alpha)), ("h", alpha)


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
