import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symfrob
from symfrob.frobenius import fsur, fsur_p_direct, fsurinv, fsurinv_p_direct
from symfrob.partitions import (
    conjugate,
    multiplicities,
    partitions_of,
    partitions_up_to,
    z_value,
)
from symfrob.symfunc import (
    BASES,
    IntegralityError,
    PrecisionError,
    _SERIES_START,
    SymFunc,
    _m_block,
    _p_in_h,
    _p_in_m,
    _s_scaled_in_p,
    _series_term,
    _set_partition_sum,
    character_value,
    from_basis,
    from_serializable,
    hall,
    kronecker,
    leading_term,
    lyndon_sf,
    omega,
    plethysm,
    skew,
    standard_series,
    to_basis,
    to_basis_int,
    to_serializable,
)

from helpers import (
    character_by_beta_numbers,
    column_by_partition,
    dual_jacobi_trudi,
    h_series_by_exponential,
    m_in_p_by_transpose,
    multiplicative_in_p,
    partition_up_to,
    random_symfunc,
    schur_product_by_pieri,
    standard_series_by_sums,
)


def s(*lam):
    return from_basis("s", lam)


def h(*lam):
    return from_basis("h", lam)


def e(*lam):
    return from_basis("e", lam)


def p(*lam):
    return from_basis("p", lam)


# -- basis conversions ------------------------------------------------------


def test_h_in_p_matches_exponential_series():
    oracle = h_series_by_exponential(6)
    for n in range(7):
        assert h(*((n,) if n else ())) == oracle[n]
    assert to_basis(h(2), "p") == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}


def test_h_and_e_match_the_fraction_product_route():
    for basis in ("h", "e"):
        for lam in partitions_up_to(9):
            assert from_basis(basis, lam) == multiplicative_in_p(basis, lam), (basis, lam)


def test_schur_in_p_frozen_example():
    assert to_basis(s(2, 1), "p") == {
        (1, 1, 1): Fraction(1, 3),
        (3,): Fraction(-1, 3),
    }


def test_degree_one_collapse():
    assert e(1) == h(1) == p(1) == s(1)


def test_round_trips_all_bases():
    for basis in BASES:
        for lam in partitions_up_to(5):
            f = from_basis(basis, lam)
            assert to_basis(f, basis) == {lam: Fraction(1)}, (basis, lam)


@settings(max_examples=30, deadline=None)
@given(basis=st.sampled_from(BASES), lam=partition_up_to(8))
def test_round_trip_property(basis, lam):
    assert to_basis(from_basis(basis, lam), basis) == {lam: Fraction(1)}


def test_hall_h_m_duality_property():
    for n in range(9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                pairing = hall(from_basis("h", lam), from_basis("m", mu))
                assert pairing == (lam == mu), (lam, mu)


def test_p_in_h_sums_to_power_sum():
    for nu in partitions_up_to(8):
        total = SymFunc.zero()
        for mu, c in column_by_partition(_p_in_h(nu)).items():
            assert type(c) is int, (nu, mu)
            total = total + from_basis("h", mu) * c
        assert total == from_basis("p", nu), nu


def test_p_in_m_is_pairing_with_h():
    for nu in partitions_up_to(8):
        column = column_by_partition(_p_in_m(nu))
        assert all(type(c) is int for c in column.values()), nu
        assert set(column) <= set(partitions_of(sum(nu))), nu
        for mu in partitions_of(sum(nu)):
            want = hall(from_basis("p", nu), from_basis("h", mu))
            assert column.get(mu, 0) == want, (nu, mu)


def test_m_in_p_matches_the_transpose_of_p_in_h():
    for n in range(10):
        for mu, want in m_in_p_by_transpose(n).items():
            assert from_basis("m", mu) == want, mu


def test_m_of_a_single_part_enumerates_no_partitions(monkeypatch):
    # m_(40) is p_40, read from one block of the set-partition recursion.
    symfrob.clear_caches()
    requested = []
    enumerate_partitions = symfrob.partitions._partitions_of

    def recording(n, max_part):
        requested.append(n)
        return enumerate_partitions(n, max_part)

    monkeypatch.setattr(symfrob.partitions, "_partitions_of", recording)
    assert from_basis("m", (40,)) == from_basis("p", (40,))
    assert 40 not in requested


def _hall_dual_expansion(f, basis):
    """[basis_mu] f as the pairing of f with the Hall dual basis element."""
    dual = {"m": "h", "h": "m", "s": "s"}[basis]
    out = {}
    for n in {sum(nu) for nu, _ in f.terms()}:
        for mu in partitions_of(n):
            c = hall(f, from_basis(dual, mu))
            if c:
                out[mu] = c
    return out


def _assert_matches_hall_duality(f):
    for basis in ("m", "h", "s"):
        assert to_basis(f, basis) == _hall_dual_expansion(f, basis), (f, basis)


def test_h_and_m_expansions_match_hall_duality():
    for src in ("s", "p", "h", "e"):
        for lam in partitions_up_to(7):
            _assert_matches_hall_duality(from_basis(src, lam))
    _assert_matches_hall_duality(SymFunc.zero())
    series = s(3, 1) - Fraction(2, 3) * p(4, 1) + e(2)
    _assert_matches_hall_duality(series.truncate(5))
    _assert_matches_hall_duality(standard_series("Cadogan", 6))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(BASES),
            partition_up_to(6),
            st.fractions(min_value=-5, max_value=5, max_denominator=7),
        ),
        max_size=4,
    )
)
def test_h_and_m_expansions_match_hall_duality_property(combination):
    f = SymFunc.zero()
    for basis, lam, c in combination:
        f = f + from_basis(basis, lam) * c
    _assert_matches_hall_duality(f)


def test_h_e_m_conversion_skips_the_p_expansion_memos():
    f = s(4, 3, 2) + Fraction(1, 2) * p(9) - h(5, 4)
    symfrob.clear_caches()
    for basis in ("h", "e", "m"):
        to_basis(f, basis)
    stats = symfrob.cache_stats()
    for memo in ("_basis_element", "_set_partition_sum"):
        assert stats[f"symfrob.symfunc.{memo}"]["entries"] == 0, memo


def test_integral_transition_between_integral_bases():
    for src in ("m", "e", "h", "s"):
        for dst in ("m", "e", "h", "s"):
            for lam in partitions_up_to(5):
                to_basis_int(from_basis(src, lam), dst)


def test_to_basis_int_rejects_rationals():
    with pytest.raises(IntegralityError):
        to_basis_int(h(2), "p")


# -- ring operations --------------------------------------------------------


def test_product_pieri_oracle():
    assert s(1) * s(1) == schur_product_by_pieri((1,), 1, "h")
    assert s(1) * s(1) == s(2) + s(1, 1)
    for lam in partitions_up_to(4):
        for k in range(1, 4):
            assert from_basis("s", lam) * h(k) == schur_product_by_pieri(lam, k, "h")
            assert from_basis("s", lam) * e(k) == schur_product_by_pieri(lam, k, "e")


def test_coefficients_are_ints_fractions_or_integral_floats():
    f = SymFunc({(2, 1): Fraction(1, 3), (1,): -4, (3,): 2.0})
    assert f == SymFunc({(2, 1): Fraction(1, 3), (1,): -4, (3,): 2})
    assert all(type(c) is Fraction for _, c in f.terms())
    for bad in (0.1, 2.5, float("nan"), float("inf"), "1/2", "3", None, 1j):
        with pytest.raises(ValueError):
            SymFunc({(1,): bad})


def test_scalars_follow_the_coefficient_rule():
    f = SymFunc({(1,): 2.0}) + s(2, 1)
    assert f * 2.0 == f * 2 == 2.0 * f
    assert f + 2.0 == f + 2 == 2.0 + f
    assert f - 2.0 == f - 2 and 2.0 - f == 2 - f
    assert SymFunc.one() * 3 == 3.0 and SymFunc.zero() == 0.0
    for bad in (0.5, float("nan"), float("inf")):
        for apply in (lambda: f * bad, lambda: f + bad, lambda: bad - f):
            with pytest.raises(ValueError):
                apply()
        assert f != bad
    for other in ("2", None, 1j, [1]):
        assert f.__mul__(other) is NotImplemented
        assert f.__add__(other) is NotImplemented
        assert f.__eq__(other) is NotImplemented
    with pytest.raises(TypeError):
        f * "2"


def test_an_exact_constant_hashes_as_its_scalar():
    for c in (0, 2, -3, Fraction(1, 2), 4.0):
        constant = SymFunc.one() * c
        assert constant == c and hash(constant) == hash(c), c
        assert len({constant, c}) == 1, c
    assert SymFunc.one(3) != 1


def test_multiplicative_identities():
    f = s(2, 1) - 3 * p(3)
    assert SymFunc.one() * f == f
    assert h(1) * h(1) == h(1, 1)
    assert (f * 0).is_zero


def test_ring_laws_on_random_elements():
    rng = random.Random(7)
    for _ in range(10):
        f = random_symfunc(rng, 3, basis="h")
        g = random_symfunc(rng, 3, basis="s")
        k = random_symfunc(rng, 2, basis="p")
        assert f * g == g * f
        assert (f * g) * k == f * (g * k)
        assert f * (g + k) == f * g + f * k
        assert f + g == g + f
        assert f - f == SymFunc.zero()


def test_power():
    f = h(1) + h(2)
    assert f**0 == SymFunc.one()
    assert f**3 == f * f * f


# -- hall pairing ------------------------------------------------------------


def test_hall_power_sum_diagonal():
    # value is z_(2,1) = 2^1 1! * 1^1 1! = 2
    assert hall(p(2, 1), p(2, 1)) == z_value((2, 1)) == 2
    assert hall(p(2), p(1, 1)) == 0
    for lam in partitions_up_to(6):
        assert hall(from_basis("p", lam), from_basis("p", lam)) == z_value(lam)


def test_hall_orthonormality_and_duality():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                want = Fraction(1 if lam == mu else 0)
                assert hall(from_basis("s", lam), from_basis("s", mu)) == want
                assert hall(from_basis("h", lam), from_basis("m", mu)) == want


def test_hall_series_precision():
    series = standard_series("H", 2)
    assert hall(SymFunc.one(), series) == 1
    with pytest.raises(PrecisionError):
        hall(h(3), series)
    with pytest.raises(ValueError):
        hall(series, series)


# -- kronecker ----------------------------------------------------------------


def test_kronecker_power_sums():
    assert kronecker(p(2), p(2)) == 2 * p(2)
    assert kronecker(p(2), p(1, 1)).is_zero


def test_kronecker_identity_character():
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert kronecker(from_basis("s", lam), s(*(n,))) == from_basis("s", lam)


def test_kronecker_symmetric_and_schur_positive():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                prod = kronecker(from_basis("s", lam), from_basis("s", mu))
                assert prod == kronecker(from_basis("s", mu), from_basis("s", lam))
                coeffs = to_basis_int(prod, "s")
                assert all(c >= 0 for c in coeffs.values())


# -- omega ---------------------------------------------------------------------


def test_omega_examples():
    assert omega(p(2)) == -p(2)
    assert omega(h(2, 2)) == e(2, 2)
    assert omega(s(2, 1)) == s(2, 1)
    for lam in partitions_up_to(6):
        assert omega(from_basis("h", lam)) == from_basis("e", lam)
        assert omega(from_basis("s", lam)) == from_basis("s", conjugate(lam))


def test_omega_involution_and_isometry():
    rng = random.Random(11)
    for _ in range(8):
        f = random_symfunc(rng, 4, basis="s")
        g = random_symfunc(rng, 4, basis="h")
        assert omega(omega(f)) == f
        assert hall(omega(f), omega(g)) == hall(f, g)
    for basis in BASES:
        for lam in partitions_up_to(5):
            f = from_basis(basis, lam)
            eager = SymFunc(dict(from_basis(basis, lam).terms()))
            image = omega(f)
            assert image == omega(eager) and omega(image) == eager, (basis, lam)
            assert hall(image, omega(f)) == hall(eager, eager), (basis, lam)


# -- skew -----------------------------------------------------------------------


def test_skew_examples():
    f = s(2, 1) + 2 * h(3)
    assert skew(SymFunc.one(), f) == f
    assert skew(s(1), s(2)) == s(1)
    assert skew(standard_series("H", 3), s(1)) == s(1) + 1


def test_skew_adjointness():
    rng = random.Random(13)
    for _ in range(8):
        f = random_symfunc(rng, 2, basis="h", terms=3)
        g = random_symfunc(rng, 2, basis="s", terms=3)
        k = random_symfunc(rng, 4, basis="e", terms=3)
        assert hall(f * g, k) == hall(g, skew(f, k))


def test_skew_is_adjoint_to_multiplication_on_every_power_sum_pair():
    # Every p_mu of degree up to |nu|, where test_skew_adjointness reaches
    # degree 2: <p_mu p_rho, p_nu> = <p_rho, p_mu^perp p_nu> for every rho.
    for nu in partitions_up_to(7):
        for mu in partitions_up_to(sum(nu)):
            skewed = skew(p(*mu), p(*nu))
            for rho in partitions_of(sum(nu) - sum(mu)):
                assert hall(p(*mu) * p(*rho), p(*nu)) == hall(p(*rho), skewed), (mu, nu, rho)
            if Counter(mu) - Counter(nu):
                assert skewed.is_zero, (mu, nu)


def test_skew_precision():
    with pytest.raises(PrecisionError):
        skew(standard_series("H", 1), s(2))


# -- plethysm --------------------------------------------------------------------


def test_plethysm_substitution():
    assert plethysm(p(2), p(3)) == p(6)
    assert plethysm(p(2), h(2)) == SymFunc(
        {(4,): Fraction(1, 2), (2, 2): Fraction(1, 2)}
    )


def test_plethysm_classic_h2_h2():
    assert plethysm(h(2), h(2)) == s(4) + s(2, 2)


def test_plethysm_negation_rule():
    rng = random.Random(17)
    for deg in range(1, 5):
        for lam in partitions_of(deg):
            f = from_basis("s", lam)
            g = random_symfunc(rng, 2, basis="h", terms=2)
            left = plethysm(f, -g)
            right = plethysm(omega(f), g) * ((-1) ** deg)
            assert left == right, lam


def test_plethysm_addition_formula():
    rng = random.Random(19)
    for trial in range(4):
        f = random_symfunc(rng, 2, basis="h", terms=2)
        g = random_symfunc(rng, 2, basis="e", terms=2)
        for n in range(5):
            for lam in partitions_of(n):
                left = plethysm(from_basis("s", lam), f + g)
                right = SymFunc.zero()
                for m in range(n + 1):
                    for mu in partitions_of(m):
                        skewed = skew(from_basis("s", mu), from_basis("s", lam))
                        if skewed.is_zero:
                            continue
                        right = right + plethysm(skewed, f) * plethysm(
                            from_basis("s", mu), g
                        )
                assert left == right, (trial, lam)


def test_plethysm_series_constant_term_rejected():
    series_f = standard_series("H", 3)
    series_g = standard_series("H", 3)
    with pytest.raises(ValueError):
        plethysm(series_f, series_g)
    # exact f with constant-term g is fine
    assert plethysm(h(1), series_g) == series_g


# -- standard series ---------------------------------------------------------------


def test_lyndon_series_terms():
    assert lyndon_sf(1) == p(1)
    assert lyndon_sf(2) == e(2)
    assert lyndon_sf(3) == (p(1, 1, 1) - p(3)) * Fraction(1, 3)
    # The single Lyndon function is lyndon_sf, not a named series.
    with pytest.raises(ValueError, match="unknown series"):
        standard_series("Lyndon", 2)


def test_cadogan_is_plethystic_inverse_of_hplus():
    cadogan = standard_series("Cadogan", 6)
    hplus = standard_series("Hplus", 6)
    identity = p(1).truncate(6)
    assert plethysm(cadogan, hplus) == identity
    assert plethysm(hplus, cadogan) == identity


def test_e_h_alternating_convolution():
    for n in range(1, 9):
        total = SymFunc.zero()
        for k in range(n + 1):
            ek = from_basis("e", (k,) if k else ())
            hnk = from_basis("h", (n - k,) if n - k else ())
            total = total + ek * hnk * ((-1) ** k)
        assert total.is_zero, n


def test_series_contents():
    assert standard_series("Hgeq2", 4) == (
        standard_series("H", 4) - 1 - h(1)
    ).truncate(4)
    assert standard_series("Emin", 3) == (
        SymFunc.one() - e(1) + e(2) - e(3)
    ).truncate(3)
    assert standard_series("E", 3) == (
        SymFunc.one() + e(1) + e(2) + e(3)
    ).truncate(3)


def test_series_term_rule_matches_the_series():
    for name, start in _SERIES_START.items():
        assert standard_series(name, 8) == standard_series_by_sums(name, 8), name
        for n in range(start, 9):
            want = standard_series_by_sums(name, n).homogeneous_component(n)
            assert _series_term(name, n) == want, (name, n)
    for cutoff in (0, 3):
        with pytest.raises(ValueError, match="unknown series"):
            standard_series("Lyndon", cutoff)
    for n in (0, 1, 4):
        with pytest.raises(ValueError, match="unknown series"):
            _series_term("Lyndon", n)


def test_h_series_times_alternating_e_series_is_one():
    # The b family skews by Emin as the inverse of H.
    for cutoff in range(11):
        product = standard_series("H", cutoff) * standard_series("Emin", cutoff)
        assert product == SymFunc.one(cutoff), cutoff


def test_series_truncates_to_its_shorter_self():
    for name in _SERIES_START:
        for cutoff in range(11):
            series = standard_series(name, cutoff)
            for d in range(cutoff + 1):
                assert series.truncate(d) == standard_series(name, d), (name, d, cutoff)


def test_span_lemma_and_dual_jacobi_trudi():
    for k in range(1, 4):
        for n in range(8):
            for lam in partitions_of(n):
                if len(lam) <= k:
                    support = to_basis(from_basis("e", lam), "s")
                    assert all(mu[0] <= k for mu in support if mu), (k, lam)
                if lam and lam[0] <= k:
                    assert dual_jacobi_trudi(lam) == from_basis("s", lam)


# -- series discipline ---------------------------------------------------------------


def test_cutoff_propagation():
    a = standard_series("H", 5)
    b = standard_series("E", 3)
    assert (a * b).cutoff == 3
    assert (a + b).cutoff == 3
    assert (h(2) * a).cutoff == 5
    assert h(2).truncate(7).cutoff == 7
    with pytest.raises(PrecisionError):
        a.truncate(9)


def test_truncate_embedding_loses_nothing():
    f = s(2, 1) + 2 * h(3)
    emb = f.truncate(5)
    assert emb.cutoff == 5
    assert to_basis(emb, "p") == to_basis(f, "p")


def test_homogeneous_component():
    f = s(2) + s(1) + 3
    assert f.homogeneous_component(2) == s(2)
    with pytest.raises(PrecisionError):
        standard_series("H", 2).homogeneous_component(3)


def test_leading_term():
    assert leading_term(s(2, 1) + 5 * s(1, 1)) == ((2, 1), Fraction(1))
    assert leading_term(h(2, 2), basis="h") == ((2, 2), Fraction(1))
    with pytest.raises(ValueError):
        leading_term(SymFunc.zero())
    # A series' top stored degree is its cutoff, so the answer would follow
    # the cutoff: H through 3 would lead with h_3, through 5 with h_5.
    for series in (SymFunc.one(cutoff=2), standard_series("H", 3)):
        with pytest.raises(ValueError):
            leading_term(series)


# -- characters -----------------------------------------------------------------------


def test_character_examples():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character_value((n,), mu) == 1
    assert character_value((1, 1), (2,)) == -1
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value([2, 1], [1, 1, 1]) == 2
    with pytest.raises(ValueError):
        character_value([1, 2], [3])
    with pytest.raises(ValueError):
        character_value((2,), (3,))


@pytest.mark.parametrize("lam,mu", [((1, 2), (3,)), ((2,), (1, 1, 0)), ((2, 0), (2,))])
def test_character_rejects_non_partitions(lam, mu):
    with pytest.raises(ValueError):
        character_value(lam, mu)


def test_bitmask_characters_match_the_beta_number_recursion():
    symfrob.clear_caches()
    for n in range(11):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                want = character_by_beta_numbers(lam, mu)
                assert character_value(lam, mu) == want, (lam, mu)


def test_border_strip_memo_keeps_one_entry_per_partition():
    # Zero parts are shifted out of each key, so chi_lam(1^6) over every
    # lam of 6 meets each partition of k <= 6 under one mask only.
    symfrob.clear_caches()
    for lam in partitions_of(6):
        character_value(lam, (1,) * 6)
    entries = symfrob.cache_stats()["symfrob.symfunc._border_strip_sum"]["entries"]
    assert entries == sum(len(partitions_of(k)) for k in range(7))


def test_character_table_columns_are_orthogonal():
    # sum_lam chi_lam(mu) chi_lam(nu) is z_mu when mu = nu and 0 otherwise.
    for n in range(11):
        shapes = partitions_of(n)
        for mu in shapes:
            for nu in shapes:
                total = sum(
                    character_value(lam, mu) * character_value(lam, nu)
                    for lam in shapes
                )
                assert total == (z_value(mu) if mu == nu else 0), (mu, nu)


# -- basis elements and their integer rows --------------------------------------------


def basis_row(basis, lam):
    """(pairs, scale): the memoized integer row of a basis element and its scale."""
    if basis == "p":
        return ((lam, 1),), 1
    if basis == "s":
        return _s_scaled_in_p(lam), math.factorial(sum(lam))
    if basis == "m":
        scale = math.prod(map(math.factorial, multiplicities(lam).values()))
        return _set_partition_sum(_m_block, lam), scale
    # h_lam times prod_i lam_i!: the product over the parts k of lam of the
    # class sizes k!/z_rho of the symmetric group, rho running over k.
    row = {(): 1}
    for k in lam:
        sizes = [(rho, math.factorial(k) // z_value(rho)) for rho in partitions_of(k)]
        out = {}
        for nu, c in row.items():
            for rho, size in sizes:
                key = tuple(sorted(nu + rho, reverse=True))
                out[key] = out.get(key, 0) + c * size
        row = out
    pairs, scale = tuple(row.items()), math.prod(map(math.factorial, lam))
    if basis == "e":
        pairs = tuple((nu, -c if (sum(nu) - len(nu)) % 2 else c) for nu, c in pairs)
    return pairs, scale


def test_basis_element_terms_are_its_row_over_its_scale():
    for basis in BASES:
        for lam in partitions_up_to(7):
            f = from_basis(basis, lam)
            pairs, scale = basis_row(basis, lam)
            assert all(type(c) is int and c for _, c in pairs), (basis, lam)
            want = {nu: Fraction(c, scale) for nu, c in pairs}
            assert dict(f.terms()) == want, (basis, lam)
            assert SymFunc(dict(f.terms())) == f, (basis, lam)


def test_basis_element_equality_and_hash_match_an_eager_rebuild():
    for basis in BASES:
        for lam in partitions_up_to(7):
            eager = SymFunc(dict(from_basis(basis, lam).terms()))
            lazy = from_basis(basis, lam)
            assert hash(lazy) == hash(eager), (basis, lam)
            assert eager == from_basis(basis, lam) and lazy == eager, (basis, lam)


# -- normalized results ------------------------------------------------------------------


def assert_normalized(f):
    """Int numerators, no zeros, den > 0, gcd 1 and no key above the cutoff."""
    nums, den = f._nums, f._den
    assert type(den) is int and den > 0, f
    assert all(type(lam) is tuple for lam in nums), f
    assert all(type(c) is int and c for c in nums.values()), f
    assert math.gcd(den, *nums.values()) == 1, f
    if f.cutoff is not None:
        assert all(sum(lam) <= f.cutoff for lam in nums), f


@st.composite
def elements(draw, max_deg=6):
    """A rational combination of up to four basis elements through max_deg."""
    total = SymFunc.zero()
    for basis, lam, c in draw(
        st.lists(
            st.tuples(
                st.sampled_from(BASES),
                partition_up_to(max_deg),
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
            ),
            max_size=4,
        )
    ):
        total = total + c * from_basis(basis, lam)
    return total


@settings(max_examples=25, deadline=None)
@given(
    f=elements(),
    g=elements(),
    c=st.fractions(min_value=-4, max_value=4, max_denominator=6),
    n=st.integers(0, 6),
    cutoff=st.integers(0, 6),
    name=st.sampled_from(sorted(_SERIES_START)),
    basis=st.sampled_from(BASES),
    lam=partition_up_to(6),
)
def test_every_builder_returns_a_normalized_element(f, g, c, n, cutoff, name, basis, lam):
    series = g.truncate(cutoff)
    positive = series - series.homogeneous_component(0)
    outputs = [
        from_basis(basis, lam), f + g, f - g, f + c, c - f, -f, f * c, f * 2,
        f * g, f * series, series * series, f + series, skew(g, f),
        kronecker(f, g), kronecker(f, series), omega(f), omega(series),
        plethysm(f, series), plethysm(standard_series(name, cutoff), positive),
        f.truncate(n), series.truncate(min(n, cutoff)), f.homogeneous_component(n),
        lyndon_sf(n + 1), standard_series(name, cutoff),
        from_serializable(to_serializable(f, basis)), fsur(f), fsurinv(f),
        fsur_p_direct((n + 1,) * (cutoff + 1)), fsurinv_p_direct((n + 1,) * (cutoff + 1)),
    ]
    for out in outputs:
        assert_normalized(out)
    assert type(hall(f, g)) is Fraction
    assert type(hall(f.homogeneous_component(0), series)) is Fraction


# -- serialization ----------------------------------------------------------------------


def test_serialization_round_trip_and_schema():
    f = s(2, 1) - 2 * h(3)
    blob = to_serializable(f, "s")
    assert list(blob) == ["basis", "terms", "cutoff"]
    assert blob["cutoff"] is None
    for term in blob["terms"]:
        assert list(term) == ["partition", "num", "den"]
        assert isinstance(term["num"], str) and isinstance(term["den"], str)
    assert from_serializable(blob) == f

    series = standard_series("H", 3)
    blob2 = to_serializable(series, "h")
    assert blob2["cutoff"] == 3
    assert from_serializable(blob2) == series


@settings(max_examples=20, deadline=None)
@given(
    source=st.sampled_from(BASES),
    lam=partition_up_to(6),
    mu=partition_up_to(6),
    c=st.fractions(min_value=-5, max_value=5, max_denominator=6),
    cutoff=st.integers(0, 6),
)
def test_serialization_round_trip_property(source, lam, mu, c, cutoff):
    f = c * from_basis(source, lam) + p(*mu)
    for basis in BASES:
        assert from_serializable(to_serializable(f, basis)) == f, basis
        series = f.truncate(cutoff)
        assert from_serializable(to_serializable(series, basis)) == series, basis


def test_from_serializable_rejects_term_above_cutoff():
    blob = {
        "basis": "p",
        "terms": [
            {"partition": [3], "num": "1", "den": "1"},
            {"partition": [1], "num": "1", "den": "1"},
        ],
        "cutoff": 2,
    }
    with pytest.raises(ValueError, match="above cutoff"):
        from_serializable(blob)
    blob["cutoff"] = 3
    assert from_serializable(blob) == (p(3) + p(1)).truncate(3)


@pytest.mark.parametrize("cutoff", ["3", 2.5, -1, [3]])
def test_from_serializable_rejects_bad_cutoff(cutoff):
    blob = {"basis": "p", "terms": [{"partition": [1], "num": "1", "den": "1"}]}
    blob["cutoff"] = cutoff
    with pytest.raises(ValueError, match="counts must be integers"):
        from_serializable(blob)
    blob["cutoff"] = 3.0
    assert from_serializable(blob) == p(1).truncate(3)


@pytest.mark.parametrize("flag", [True, False])
def test_from_serializable_rejects_booleans(flag):
    # JSON true and false are not counts or parts, though Python's bool is an int.
    blob = {"basis": "p", "terms": [{"partition": [1], "num": "1", "den": "1"}], "cutoff": flag}
    with pytest.raises(ValueError, match="counts must be integers"):
        from_serializable(blob)
    blob["cutoff"] = None
    blob["terms"][0]["partition"] = [flag]
    with pytest.raises(ValueError, match="parts must be integers"):
        from_serializable(blob)


def test_from_serializable_rejects_zero_denominator():
    blob = {
        "basis": "s",
        "terms": [{"partition": [2], "num": "1", "den": "0"}],
        "cutoff": None,
    }
    with pytest.raises(ValueError, match="zero denominator"):
        from_serializable(blob)


@pytest.mark.parametrize("key", ["num", "den"])
@pytest.mark.parametrize("text", ["1_0", " 1", "1 ", "+1", "1.0", "", "-", "١", 1, None])
def test_from_serializable_rejects_non_decimal_strings(key, text):
    # int() reads "1_0" as 10 and " 1" as 1; the schema writes neither.
    blob = {"basis": "p", "terms": [{"partition": [1], "num": "-3", "den": "2"}]}
    blob["terms"][0][key] = text
    with pytest.raises(ValueError, match="decimal string"):
        from_serializable(blob)
    blob["terms"][0][key] = "10"
    want = Fraction(10, 2) if key == "num" else Fraction(-3, 10)
    assert from_serializable(blob) == p(1) * want


@pytest.mark.parametrize("part", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_parts_raise_value_error(part):
    # json reads these names as floats, and int() raised OverflowError on
    # an infinity.
    text = f'{{"basis": "h", "terms": [{{"partition": [{part}], "num": "1", "den": "1"}}]}}'
    with pytest.raises(ValueError, match="parts must be integers"):
        from_serializable(json.loads(text))
    with pytest.raises(ValueError, match="parts must be integers"):
        from_basis("h", [float(part)])


@pytest.mark.parametrize(
    "blob",
    [
        {"basis": "p", "terms": {"x": 1}},
        [{"basis": "p", "terms": []}],
        {"basis": "p", "terms": None},
        {"basis": "p", "terms": [5]},
    ],
)
def test_from_serializable_rejects_wrong_shape(blob):
    # Indexing a string, a list or an int raised TypeError.
    with pytest.raises(ValueError, match="JSON object|must be a list"):
        from_serializable(blob)


@pytest.mark.parametrize("key", ["basis", "terms", "partition", "num", "den"])
def test_from_serializable_rejects_missing_key(key):
    blob = {"basis": "p", "terms": [{"partition": [1], "num": "1", "den": "1"}]}
    del (blob if key in blob else blob["terms"][0])[key]
    with pytest.raises(ValueError, match=repr(key)):
        from_serializable(blob)
