import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symfrob
from symfrob.frobenius import (
    _block_weights,
    _pleth_coeff,
    coeff,
    coeff_table,
    durfee_criterion,
    frobenius_series,
    fsur,
    fsur_e_direct,
    fsur_expansion,
    fsur_h_direct,
    fsur_p_direct,
    fsurinv,
    fsurinv_e_words,
    fsurinv_h_direct,
    fsurinv_iterative,
    genfunc_identity_check,
    restriction_coeff_eval,
    stable_matrix,
    tilde_h,
    tilde_s,
    vanishing_check,
    witness_search,
)
from symfrob.lyndon import lyndon_words, witt_count
from symfrob.oracles import frobenius_via_roots, power_value_at_unity
from symfrob.partitions import (
    conjugate,
    durfee,
    mobius,
    partitions_of,
    partitions_up_to,
    stable_pad,
    z_value,
)
from symfrob.symfunc import (
    BASES,
    IntegralityError,
    InternalCheckError,
    SymFunc,
    from_basis,
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
)

from helpers import (
    column_by_partition,
    divisible_by_e1_power,
    divisible_by_falling_factorial,
    falling_factorial_e1,
    partition_up_to,
    random_symfunc,
    transforms_and_conversions_digest,
    words_with_content,
)


def s(*lam):
    return from_basis("s", lam)


def h(*lam):
    return from_basis("h", lam)


def e(*lam):
    return from_basis("e", lam)


def p(*lam):
    return from_basis("p", lam)


# -- the surjective transform -------------------------------------------------


def test_fsur_fixes_elementary():
    for r in range(1, 9):
        assert fsur(e(r)) == e(r)


def test_fsur_h22_golden():
    expected = h(1) + h(2) + 3 * h(1, 1) + 2 * h(2, 1) + h(1, 1, 1) + h(2, 2)
    assert fsur(h(2, 2)) == expected


def test_fsur_power_sum_divisors():
    for n in range(1, 13):
        want = SymFunc.zero()
        for d in range(1, n + 1):
            if n % d == 0:
                want = want + p(d)
        assert fsur(p(n)) == want


def test_fsur_constants_and_zero():
    assert fsur(SymFunc.one()) == SymFunc.one()
    assert fsur(SymFunc.zero()).is_zero


def test_fsur_preserves_degree_and_leading_term():
    for basis in BASES:
        for lam in partitions_up_to(7):
            f = from_basis(basis, lam)
            g = fsur(f)
            assert g.degree == f.degree
            assert leading_term(g) == leading_term(f), (basis, lam)


# -- the plethysm-coefficient kernel ------------------------------------------


@pytest.mark.parametrize("name", ["Hplus", "Cadogan", "Lsum"])
def test_pleth_coeff_matches_general_plethysm(name):
    # Each column holds exactly the nonzero <p_nu[g], p_rho> = z_rho [p_rho] p_nu[g].
    for d in range(7):
        series = standard_series(name, d)
        columns = {
            rho: column_by_partition(_pleth_coeff(name, rho)) for rho in partitions_of(d)
        }
        for column in columns.values():
            assert set(column) <= set(partitions_up_to(d))
            assert all(type(value) is int and value for value in column.values())
        for nu in partitions_up_to(d):
            pleth = plethysm(p(*nu), series)
            for rho, column in columns.items():
                want = z_value(rho) * pleth.coefficient(rho)
                assert column.get(nu, 0) == want, (nu, rho)


def test_pleth_coeff_rejects_series_with_constant_term():
    for rho in [(), (1,), (2, 1)]:
        with pytest.raises(ValueError, match="constant term"):
            _pleth_coeff("H", rho)


def test_pleth_coeff_rejects_non_integral_block_weight(monkeypatch):
    # g = p_1 / 2 gives the block (1,) the weight z_(1) / 2 = 1/2.
    half_p1 = lambda name, lam: Fraction(1, 2) if lam == (1,) else Fraction(0)
    monkeypatch.setattr(symfrob.frobenius, "_series_coefficient", half_p1)
    _pleth_coeff.cache_clear()
    _block_weights.cache_clear()
    try:
        with pytest.raises(IntegralityError, match="weight of block"):
            _pleth_coeff("half", (1,))
    finally:
        _pleth_coeff.cache_clear()
        _block_weights.cache_clear()


def test_fsur_of_p40_enumerates_no_partitions_of_40(monkeypatch):
    # Each block weight reads one series coefficient; no series is expanded.
    symfrob.clear_caches()
    requested = []
    enumerate_partitions = symfrob.partitions._partitions_of

    def recording(n, max_part):
        requested.append(n)
        return enumerate_partitions(n, max_part)

    monkeypatch.setattr(symfrob.partitions, "_partitions_of", recording)
    image = fsur(p(40))
    assert image == fsur_p_direct((40,))
    assert fsurinv(image) == p(40)
    assert max(requested, default=0) < 40


def test_fsur_of_schur_leaves_its_input_unmaterialized():
    for lam in [(3, 2, 1), (6, 2, 1, 1), (1,) * 9]:
        f = from_basis("s", lam)
        images = fsur(f), fsurinv(f)
        eager = SymFunc(dict(f.terms()))
        assert images == (fsur(eager), fsurinv(eager)), lam


def test_transforms_agree_on_a_basis_element_and_its_eager_rebuild():
    # The memoized basis element and one rebuilt by the public constructor.
    for basis in BASES:
        for lam in partitions_up_to(6):
            lazy = from_basis(basis, lam)
            eager = SymFunc(dict(from_basis(basis, lam).terms()))
            assert fsur(lazy) == fsur(eager), (basis, lam)
            assert fsurinv(lazy) == fsurinv(eager), (basis, lam)


def test_pleth_memo_is_independent_of_call_order():
    # One memo entry serves every input degree, so filling it from degree 8
    # first must give what filling it from degree 4 first gives.
    inputs = {
        8: [s(4, 2, 1, 1), h(5, 3) - p(2, 2, 2, 2), e(3, 3, 2)],
        4: [s(2, 1, 1), h(3, 1) + 2 * p(2, 2), e(4)],
    }

    def transforms(degrees):
        symfrob.clear_caches()
        assert not symfrob.partitions._PART_IDS
        return {n: [(fsur(f), fsurinv(f)) for f in inputs[n]] for n in degrees}

    assert transforms((8, 4)) == transforms((4, 8))


def assert_normalized(f):
    # The builder contract: partition tuple keys, nonzero Fraction values,
    # an int cutoff or None, and no term above the cutoff.
    assert f.cutoff is None or type(f.cutoff) is int, f.cutoff
    for lam, c in f.terms():
        assert type(lam) is tuple and all(type(part) is int for part in lam), lam
        assert list(lam) == sorted(lam, reverse=True) and 0 not in lam, lam
        assert type(c) is Fraction and c, (lam, c)
        assert f.cutoff is None or sum(lam) <= f.cutoff, (lam, f.cutoff)


def test_internal_results_are_built_normalized():
    for lam in partitions_up_to(7):
        for basis in BASES:
            assert_normalized(from_basis(basis, lam))
        assert list(p(*lam).terms()) == [(lam, Fraction(1))]
    f = s(3, 1, 1) - Fraction(2, 3) * h(4) + p(2, 2, 1)
    series = standard_series("H", 6)
    results = [
        fsur(f),
        fsurinv(f),
        omega(f),
        kronecker(f, h(5)),
        kronecker(f, series),
        frobenius_via_roots(f, 6),
        f.truncate(3),
        series.truncate(4),
        f.homogeneous_component(5),
        series.homogeneous_component(3),
        standard_series("Lsum", 8),
        standard_series("Cadogan", 8),
    ]
    for result in results:
        assert_normalized(result)
    # Lsum and Cadogan drop the rectangles whose Mobius value is 0.
    for name in ("Lsum", "Cadogan"):
        terms = dict(standard_series(name, 8).terms())
        assert not {(4,), (4, 4), (8,)} & set(terms)
        assert {(2, 2), (2, 2, 2, 2), (1,) * 8} <= set(terms)


def test_cancelling_builders_drop_zeros():
    f = s(3, 1, 1) - Fraction(2, 3) * h(4) + p(2, 2, 1)
    cancelled = [f - f, f * 0, 0 * f, f * Fraction(0), f + (-f)]
    for result in cancelled:
        assert_normalized(result)
        assert result.is_zero and not list(result.terms())
    assert_normalized(f + 0)
    assert f + 0 == f and 0 + f == f
    assert_normalized(f.truncate(4) - f)
    # p21 cancels in the product, p1 in the skew and p2 in the plethysm.
    product = (p(1) + p(2)) * (p(1) - p(2))
    assert_normalized(product)
    assert product == p(1, 1) - p(2, 2)
    skewed = skew(p(1) - p(2), p(1, 1) + p(2, 1))
    assert_normalized(skewed)
    assert skewed == p(2)
    composed = plethysm(p(1) + p(2), p(1) - p(2))
    assert_normalized(composed)
    assert composed == p(1) - p(4)


def test_clear_caches_empties_every_memo():
    inputs = [s(5, 2, 1), h(4, 3) - p(3, 3, 1), e(6, 1)]
    before = [(fsur(f), fsurinv(f)) for f in inputs]
    stats = symfrob.cache_stats()
    assert "symfrob.frobenius._pleth_coeff" in stats
    assert stats["symfrob.frobenius._pleth_coeff"]["entries"] > 0
    assert symfrob.partitions._PART_IDS
    symfrob.clear_caches()
    stats = symfrob.cache_stats()
    assert all(entry["entries"] == 0 for entry in stats.values()), stats
    assert not symfrob.partitions._PART_IDS
    assert not symfrob.partitions._PART_ENTRIES
    assert [(fsur(f), fsurinv(f)) for f in inputs] == before


def test_transforms_and_conversions_match_pinned_digest():
    # fsur, fsurinv and all 25 basis conversions of every basis element of
    # degree <= 7, listed canonically; a refactor must leave this unchanged.
    digest = transforms_and_conversions_digest(7)
    assert digest == "846fb62ca08ac372947e89b51148f22de071b4e1a02d1df708ef5b2581f5a8f6"


def test_results_are_keyed_by_partition_tuples():
    # Partition ids key the integer columns and never leave the package.
    inputs = [
        s(5, 2, 1),
        h(4, 3) - p(3, 3, 1),
        Fraction(1, 3) * e(6, 1),
        from_basis("m", (3, 2, 2)),
    ]
    for f in inputs:
        for g in (f, fsur(f), fsurinv(f)):
            for basis in ("h", "e", "m"):
                assert all(type(lam) is tuple for lam in to_basis(g, basis)), (g, basis)
            assert all(type(lam) is tuple for lam, _ in g.terms()), g


# -- expansion route ------------------------------------------------------------


def test_fsur_expansion_examples():
    assert fsur_expansion(SymFunc.one()) == SymFunc.one()
    assert fsur_expansion(h(2, 2)) == fsur(h(2, 2))


def test_fsur_expansion_matches_on_schur():
    for lam in partitions_up_to(5):
        f = from_basis("s", lam)
        assert fsur_expansion(f) == fsur(f), lam


def test_fsur_expansion_matches_at_degree_seven():
    for lam in ((4, 3), (2, 2, 2, 1), (1,) * 7):
        for basis in ("h", "e"):
            f = from_basis(basis, lam)
            assert fsur_expansion(f) == fsur(f), (basis, lam)
    mixed = from_basis("h", (3, 2)) - 2 * from_basis("s", (4, 2, 1))
    assert fsur_expansion(mixed) == fsur(mixed)


# -- the full transform -----------------------------------------------------------


def test_frobenius_series_of_one_is_h():
    for cutoff in (0, 3, 6):
        assert frobenius_series(SymFunc.one(), cutoff) == standard_series("H", cutoff)


def test_frobenius_series_elementary():
    for r in range(1, 6):
        assert frobenius_series(e(r), 8) == (e(r) * standard_series("H", 8))


def test_frobenius_series_degree_two_schur():
    # Frobenius character of the degree-2 slice for the one-row shape:
    # 2 copies of the trivial module plus one sign module.
    part = frobenius_series(s(2), 4).homogeneous_component(2)
    assert part == 2 * s(2) + s(1, 1)
    assert coeff("r", (2,), (2,)) == 2
    assert restriction_coeff_eval((2,), (2,)) == 2


# -- inverse -------------------------------------------------------------------------


def test_fsurinv_h2():
    assert fsurinv(h(2)) == h(2) - e(1)


def test_fsurinv_e1_cubed():
    e1 = e(1)
    assert fsurinv(e1**3) == e1**3 - 3 * e1**2 + 2 * e1


def test_inverse_round_trip_schur():
    for lam in partitions_up_to(6):
        f = from_basis("s", lam)
        assert fsurinv(fsur(f)) == f
        assert fsur(fsurinv(f)) == f


@settings(max_examples=25, deadline=None)
@given(basis=st.sampled_from(BASES), lam=partition_up_to(6))
def test_inverse_property(basis, lam):
    f = from_basis(basis, lam)
    assert fsurinv(fsur(f)) == f
    assert fsur(fsurinv(f)) == f


@settings(max_examples=25, deadline=None)
@given(
    bases=st.tuples(st.sampled_from(BASES), st.sampled_from(BASES)),
    lam=partition_up_to(4),
    mu=partition_up_to(4),
)
def test_product_to_kronecker_property(bases, lam, mu):
    f, g = from_basis(bases[0], lam), from_basis(bases[1], mu)
    left = frobenius_series(f * g, 6)
    assert left == kronecker(frobenius_series(f, 6), frobenius_series(g, 6))


def test_iterative_route_agrees():
    rng = random.Random(23)
    for lam in partitions_up_to(5):
        f = from_basis("h", lam)
        assert fsurinv_iterative(f) == fsurinv(f)
    for _ in range(5):
        f = random_symfunc(rng, 5, basis="s")
        assert fsurinv_iterative(f) == fsurinv(f)


# -- direct formulas -----------------------------------------------------------------


def test_fsur_e_direct_golden():
    expected = (
        e(5) * e(3) + h(1) * e(4) * e(2) + h(2) * e(3) * e(1) + h(3) * e(2)
    )
    assert fsur_e_direct((5, 3)) == expected
    assert fsur(e(5, 3)) == expected


def test_fsur_h_direct_golden():
    assert fsur_h_direct((2, 2)) == fsur(h(2, 2))


def test_fsur_p_direct_frozen():
    expected = p(1) + 2 * p(2) + (p(1) + p(2)) ** 2
    assert fsur_p_direct((2, 2)) == expected
    assert fsur(p(2, 2)) == expected


def test_fsur_p_direct_large_worked_example():
    # three parts, five set partitions, written out factor by factor
    d6 = p(1) + p(2) + p(3) + p(6)
    d10 = p(1) + p(2) + p(5) + p(10)
    d15 = p(1) + p(3) + p(5) + p(15)
    expected = (
        p(1)
        + (p(1) + 5 * p(5)) * d6
        + (p(1) + 3 * p(3)) * d10
        + (p(1) + 2 * p(2)) * d15
        + d15 * d10 * d6
    )
    assert fsur_p_direct((15, 10, 6)) == expected


def test_direct_routes_sweep():
    for lam in partitions_up_to(6):
        assert fsur_h_direct(lam) == fsur(from_basis("h", lam)), lam
        assert fsur_e_direct(lam) == fsur(from_basis("e", lam)), lam
        assert fsur_p_direct(lam) == fsur(from_basis("p", lam)), lam


def test_direct_formulas_accept_compositions():
    assert fsur_h_direct((1, 3)) == fsur_h_direct((3, 1))
    assert fsur_p_direct((2, 4)) == fsur_p_direct((4, 2))


# -- word formulas ---------------------------------------------------------------------


def test_fsurinv_e_words_examples():
    assert fsurinv_e_words((2,)) == e(2)
    assert fsurinv_e_words((1, 1)) == e(1, 1) - e(1)
    assert fsurinv_e_words((2, 1)) == e(2, 1) - e(1, 1) + e(1)


def test_fsurinv_e_words_matches_adjoint_route():
    for lam in partitions_up_to(7):
        assert fsurinv_e_words(lam) == fsurinv(from_basis("e", lam)), lam


def test_fsurinv_e_words_composition_invariance():
    assert fsurinv_e_words((1, 2)) == fsurinv_e_words((2, 1))


@pytest.mark.parametrize(
    "make,least",
    [
        pytest.param(lambda n: partitions_of(n), 0, id="partitions_of"),
        pytest.param(lambda m: partitions_of(4, m), 0, id="max_part"),
        pytest.param(partitions_up_to, 0, id="partitions_up_to"),
        pytest.param(mobius, 1, id="mobius"),
        pytest.param(lambda n: stable_pad((), n), 0, id="stable_pad"),
        pytest.param(lambda c: SymFunc({(): 1}, c), 0, id="cutoff"),
        pytest.param(lambda n: (p(1) + p(2)) ** n, 0, id="pow"),
        pytest.param(lambda n: s(2, 1).homogeneous_component(n), 0, id="component"),
        pytest.param(lambda n: s(2, 1).truncate(n), 0, id="truncate"),
        pytest.param(lambda n: standard_series("H", 3).truncate(n), 0, id="truncate_series"),
        pytest.param(lyndon_sf, 1, id="lyndon_sf"),
        pytest.param(lambda c: standard_series("H", c), 0, id="standard_series"),
        pytest.param(lambda k: power_value_at_unity(k, (2, 1)), 1, id="power_value"),
        pytest.param(lambda c: frobenius_via_roots(s(1), c), 0, id="via_roots"),
        pytest.param(fsurinv_h_direct, 0, id="fsurinv_h_direct"),
        pytest.param(lambda v: genfunc_identity_check(v, 2, "product"), 1, id="num_vars"),
        pytest.param(lambda b: genfunc_identity_check(1, b, "product"), 1, id="bound"),
        pytest.param(lambda k: durfee_criterion((2, 2), k), 1, id="durfee"),
        pytest.param(lambda k: witness_search((2, 2), k), 1, id="witness"),
        pytest.param(lambda a: lyndon_words(a, 3), 1, id="alphabet"),
        pytest.param(lambda n: lyndon_words(2, n), 0, id="max_len"),
        pytest.param(lambda a: witt_count(a, 2), 1, id="witt_alphabet"),
        pytest.param(lambda n: witt_count(2, n), 1, id="witt_length"),
        pytest.param(lambda a: fsurinv_e_words([a]), 0, id="content"),
    ],
)
def test_non_integral_input_raises(make, least):
    # A count is an int, or an integral float read as that int (the reprs
    # match, so no float leaks into a result); anything else, or a value
    # below the entry point's bound, is a usage error.
    assert repr(make(2.0)) == repr(make(2))
    make(least)
    for bad in (2.5, "2", least - 1):
        with pytest.raises(ValueError, match="integer"):
            make(bad)


def test_fsurinv_h_direct_values():
    assert fsurinv_h_direct(0) == SymFunc.one()
    assert fsurinv_h_direct(1) == h(1)
    assert fsurinv_h_direct(2) == h(2) - e(1)
    for r in range(9):
        want = fsurinv(from_basis("h", (r,) if r else ()))
        assert fsurinv_h_direct(r) == want, r


# -- generating function identities ------------------------------------------------------


@pytest.mark.parametrize(
    "num_vars,bound,which",
    [
        (1, 4, "reciprocal"),
        (2, 4, "reciprocal"),
        (3, 3, "reciprocal"),
        (1, 6, "product"),
        (2, 4, "product"),
    ],
)
def test_genfunc_identities(num_vars, bound, which):
    assert genfunc_identity_check(num_vars, bound, which)


def test_genfunc_rejects_unknown():
    with pytest.raises(ValueError):
        genfunc_identity_check(1, 3, "unknown")


# -- coefficient families ------------------------------------------------------------------


def test_t_and_u_are_kronecker_delta_stably():
    for lam in partitions_up_to(6):
        for mu in partitions_up_to(6):
            if sum(mu) >= sum(lam):
                want = 1 if lam == mu else 0
                assert coeff("t", lam, mu) == want, (lam, mu)
                assert coeff("u", lam, mu) == want, (lam, mu)


def test_a_is_delta_below_diagonal():
    for lam in partitions_up_to(6):
        for mu in partitions_up_to(6):
            if sum(lam) <= sum(mu):
                assert coeff("a", lam, mu) == (1 if lam == mu else 0)


def test_witness_bound_reads_r_from_the_first_k_complete_functions():
    # witness_search's derivation: for lam_1 <= k only the terms of H up to
    # h_k reach s_lam, so r_lam^mu = <s_lam, s_mu[1 + h_1 + ... + h_k]>,
    # an element of degree at most k|mu|.
    checked = 0
    for k in (1, 2, 3):
        head = SymFunc.one()
        for j in range(1, k + 1):
            head = head + from_basis("h", (j,))
        for mu in partitions_up_to(4 if k < 3 else 3):
            image = plethysm(from_basis("s", mu), head)
            for size in range(k * sum(mu) + 1):
                for lam in partitions_of(size, max_part=k):
                    want = hall(from_basis("s", lam), image)
                    assert restriction_coeff_eval(lam, mu) == want, (k, lam, mu)
                    checked += 1
    assert checked == 455


def test_restriction_coeff_eval_validates_partitions():
    assert restriction_coeff_eval([2], [2]) == restriction_coeff_eval((2,), (2,)) == 2
    for lam, mu in (((1, 2), (3,)), ((2,), (1, 1, 0)), ((2,), (-1,))):
        with pytest.raises(ValueError):
            restriction_coeff_eval(lam, mu)


def test_restriction_coeff_eval_on_wide_partitions():
    # lam_1 is the side of the Jacobi-Trudi determinant; at cycle types
    # without fixed points its diagonal starts at e_1 = 0, so elimination
    # has to swap rows.
    for lam in ((12,), (9, 3), (7, 2, 2, 1)):
        for mu in partitions_up_to(3):
            assert restriction_coeff_eval(lam, mu) == coeff("r", lam, mu), (lam, mu)
    assert restriction_coeff_eval((12,), (3,)) == 19


def test_r_nonnegative_and_eval_route_agrees():
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5):
            value = coeff("r", lam, mu)
            assert value >= 0
            assert value == restriction_coeff_eval(lam, mu), (lam, mu)


def test_multiplicity_kinds_are_nonnegative():
    # r, t, a count module multiplicities; u and b may go negative.
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5):
            assert coeff("t", lam, mu) >= 0, (lam, mu)
            assert coeff("a", lam, mu) >= 0, (lam, mu)
    assert any(
        coeff("u", lam, mu) < 0
        for lam in partitions_up_to(4)
        for mu in partitions_up_to(4)
    )


def test_b_alternating_elementary_route():
    # b can also pair against plethysm by Cadogan's series times the
    # alternating elementary series; both routes must agree.
    from symfrob.frobenius import _schur_plethysm

    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            cutoff = sum(lam)
            series = _schur_plethysm(mu, "Cadogan", cutoff) * standard_series(
                "Emin", cutoff
            )
            alt = hall(from_basis("s", lam), series)
            assert coeff("b", lam, mu) == alt, (lam, mu)


def test_u_transpose_identity():
    for lam in partitions_up_to(6):
        for mu in partitions_up_to(6):
            sign = (-1) ** ((sum(lam) - sum(mu)) % 2)
            alt = sign * hall(
                from_basis("s", conjugate(lam)),
                plethysm(
                    from_basis("s", conjugate(mu)),
                    standard_series("Lsum", sum(lam)),
                ),
            )
            assert coeff("u", lam, mu) == alt, (lam, mu)


def test_r_decomposes_over_horizontal_strips():
    # r equals the t values summed over peelings of a horizontal strip.
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            total = 0
            for m in range(sum(mu) + 1):
                for nu in partitions_of(m):
                    ok = (
                        len(nu) <= len(mu)
                        and all(nu[i] <= mu[i] for i in range(len(nu)))
                        and all(
                            (nu[i] if i < len(nu) else 0)
                            >= (mu[i + 1] if i + 1 < len(mu) else 0)
                            for i in range(len(mu))
                        )
                    )
                    if ok:
                        total += coeff("t", lam, nu)
            assert total == coeff("r", lam, mu), (lam, mu)


def test_kronecker_identity_small():
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            left = frobenius_series(from_basis("s", lam) * from_basis("s", mu), 5)
            right = kronecker(
                frobenius_series(from_basis("s", lam), 5),
                frobenius_series(from_basis("s", mu), 5),
            )
            assert left == right, (lam, mu)


def test_product_coefficient_identity_small():
    parts3 = partitions_up_to(2)
    for lam in parts3:
        for mu in parts3:
            for nu in partitions_up_to(4):
                left = sum(
                    coeff("r", nup, nu)
                    * int(hall(from_basis("s", nup), from_basis("s", lam) * from_basis("s", mu)))
                    for nup in partitions_of(sum(lam) + sum(mu))
                )
                right = 0
                n = sum(nu)
                for lamp in partitions_of(n):
                    r1 = coeff("r", lam, lamp)
                    if not r1:
                        continue
                    for mup in partitions_of(n):
                        r2 = coeff("r", mu, mup)
                        if not r2:
                            continue
                        g = hall(
                            from_basis("s", nu),
                            kronecker(from_basis("s", lamp), from_basis("s", mup)),
                        )
                        right += r1 * r2 * int(g)
                assert left == right, (lam, mu, nu)


# -- tables -----------------------------------------------------------------------------------


def test_stable_matrix_unitriangular():
    index, matrix = stable_matrix("a", 4)
    n = len(index)
    for i in range(n):
        assert matrix[i][i] == 1
        for j in range(i):
            assert matrix[i][j] == 0


def test_stable_b_matches_inverse():
    index, a_matrix = stable_matrix("a", 4)
    index_b, b_matrix = stable_matrix("b", 4)  # verification runs internally
    assert index == index_b
    n = len(index)
    for i in range(n):
        for j in range(n):
            total = sum(b_matrix[i][k] * a_matrix[k][j] for k in range(n))
            assert total == (1 if i == j else 0)


def test_stable_b_check_rejects_corrupt_entry(monkeypatch):
    import symfrob.frobenius as frob_module

    real_table = frob_module.coeff_table

    def corrupted(kind, maxdeg):
        index, matrix = real_table(kind, maxdeg)
        if kind == "b":
            matrix[-1][0] += 1
        return index, matrix

    monkeypatch.setattr(frob_module, "coeff_table", corrupted)
    with pytest.raises(InternalCheckError) as info:
        stable_matrix("b", 4)
    assert "((1, 1, 1, 1), ())" in str(info.value)


def test_coeff_table_orientation():
    index, matrix = coeff_table("r", 3)
    i = index.index((2,))
    assert matrix[i][i] == coeff("r", (2,), (2,)) == 2


def _plethysm_reference(maxdeg):
    """Each family by its pairing against a general plethysm, through maxdeg."""
    H = standard_series("H", maxdeg)
    pleth = {}

    def s_pleth(mu, name):
        if (mu, name) not in pleth:
            pleth[mu, name] = plethysm(s(*mu), standard_series(name, maxdeg))
        return pleth[mu, name]

    def b(lam, mu):
        sign = (-1) ** ((sum(lam) - sum(mu)) % 2)
        return sign * hall(s(*conjugate(lam)), s_pleth(conjugate(mu), "Lsum") * H)

    return {
        "r": lambda lam, mu: hall(s(*lam), s_pleth(mu, "H")),
        "t": lambda lam, mu: hall(s(*lam), s_pleth(mu, "Hplus")),
        "u": lambda lam, mu: hall(s(*lam), s_pleth(mu, "Cadogan")),
        "a": lambda lam, mu: hall(fsur(s(*lam)), s(*mu) * H),
        "b": b,
    }


def _map_reference(maxdeg):
    """Each family as the Schur column of one map built from the transforms."""
    H = standard_series("H", maxdeg)
    Emin = standard_series("Emin", maxdeg)
    maps = {
        "r": lambda f: frobenius_series(f, maxdeg),
        "t": fsur,
        "u": fsurinv,
        "a": lambda f: skew(H, fsur(f)),
        "b": lambda f: fsurinv(skew(Emin, f)),
    }
    return {
        kind: {lam: to_basis_int(image(s(*lam)), "s") for lam in partitions_up_to(maxdeg)}
        for kind, image in maps.items()
    }


def test_table_matches_pointwise():
    reference = _plethysm_reference(5)
    for kind in ("r", "t", "u", "a", "b"):
        index, matrix = coeff_table(kind, 5)
        for i, mu in enumerate(index):
            for j, lam in enumerate(index):
                want = reference[kind](lam, mu)
                assert matrix[i][j] == want == coeff(kind, lam, mu), (kind, lam, mu)
    columns = _map_reference(7)
    for kind, column in columns.items():
        index, matrix = coeff_table(kind, 7)
        for i, mu in enumerate(index):
            for j, lam in enumerate(index):
                want = column[lam].get(mu, 0)
                assert matrix[i][j] == want == coeff(kind, lam, mu), (kind, lam, mu)


def test_table_does_not_revalidate_entries(monkeypatch):
    # Only coeff validates its arguments; a table reads the memoized
    # columns over partitions_up_to directly, so a warm table makes no
    # as_partition call at all where coeff would make two per entry.
    from symfrob import frobenius, partitions, symfunc

    index, warm = coeff_table("t", 5)
    calls = []

    def counting(parts):
        calls.append(parts)
        return partitions.as_partition(parts)

    for module in (frobenius, symfunc):
        monkeypatch.setattr(module, "as_partition", counting)
    assert coeff_table("t", 5) == (index, warm)
    assert calls == []
    coeff("t", index[3], index[2])
    assert len(calls) == 2


def test_r_read_keeps_one_column():
    symfrob.clear_caches()
    for mu in partitions_up_to(6):
        coeff("r", (1,), mu)
    assert symfrob.cache_stats()["symfrob.frobenius._column"]["entries"] == 1


def test_negative_degree_raises():
    with pytest.raises(ValueError):
        partitions_up_to(-1)
    with pytest.raises(ValueError):
        coeff_table("r", -1)
    with pytest.raises(ValueError):
        stable_matrix("b", -1)


# -- vanishing and Durfee -----------------------------------------------------------------------


def test_vanishing_examples():
    assert not vanishing_check("t-bound", (1,), (2,))
    assert coeff("t", (1,), (2,)) == 0
    assert vanishing_check("r-bound", (3, 1), (5,))  # hat(mu) empty
    for lam in partitions_up_to(4):
        assert vanishing_check("r-bound", lam, (4,))


def test_vanishing_contrapositive_sweep():
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(5):
            if coeff("r", lam, mu) > 0:
                assert vanishing_check("r-bound", lam, mu), (lam, mu)
            if coeff("t", lam, mu) > 0:
                assert vanishing_check("t-bound", lam, mu), (lam, mu)
            if coeff("a", lam, mu) > 0:
                assert vanishing_check("a-bound", lam, mu), (lam, mu)


def test_durfee_examples():
    assert durfee_criterion((2, 2), 2)
    assert witness_search((2, 2), 2) is not None
    assert not durfee_criterion((3, 3, 3), 2)
    assert witness_search((3, 3, 3), 2) is None
    for mu in partitions_up_to(5):
        k = max(1, len(mu))
        if 2 ** (k - 1) >= len(mu):
            assert durfee_criterion(mu, k)


def test_durfee_and_witness_check_k_like_parts():
    assert durfee_criterion((2, 2), 2.0) is durfee_criterion((2, 2), 2)
    assert witness_search((2, 2), 2.0) == witness_search((2, 2), 2)
    for bad in (1.5, "2"):
        with pytest.raises(ValueError, match="integers"):
            durfee_criterion((2, 2), bad)
        with pytest.raises(ValueError, match="integers"):
            witness_search((2, 2), bad)


def test_durfee_bound_is_tight_at_k3():
    # Durfee square 4 = 2^(3-1): the largest square the k=3 criterion allows.
    mu = (4, 4, 4, 4)
    assert durfee(mu) == 4 == 2 ** (3 - 1)
    assert durfee_criterion(mu, 3)
    lam = witness_search(mu, 3)
    assert lam is not None and lam[0] <= 3
    assert coeff("r", lam, mu) > 0


def test_witness_search_returns_valid_witness():
    for mu in partitions_up_to(6):
        lam = witness_search(mu, 2)
        if lam is not None:
            assert (not lam) or lam[0] <= 2
            assert coeff("r", lam, mu) > 0


# -- companions ------------------------------------------------------------------------------------


def test_tilde_h():
    assert tilde_h((2,)) == fsurinv_h_direct(2)
    assert tilde_h((1,)) == h(1)


def test_tilde_s():
    assert tilde_s((1,)) == s(1) + 1


# -- remaining word corollaries ----------------------------------------------------------------------


def _longest_zero_free_prefix(w):
    out = []
    for letter in w:
        if letter == 0:
            break
        out.append(letter)
    return tuple(out)


def _pi(word):
    from symfrob.lyndon import pi_of_word

    return pi_of_word(word)


def test_fsurinv_e_prod_formula():
    # product formula with the longest zero-free prefix statistic
    for lam in partitions_up_to(4):
        for k in range(0, 5):
            if sum(lam) + k > 6:
                continue
            left = fsurinv(from_basis("e", lam) * e(1) ** k)
            ell = len(lam)
            letters = list(range(0, ell + 1))
            counts = [k] + list(lam)
            total = SymFunc.zero()
            for w in words_with_content(letters, counts):
                prefix = _longest_zero_free_prefix(w)
                pi = _pi(prefix)
                sign = (-1) ** ((sum(lam) - sum(pi)) % 2)
                total = total + from_basis("e", pi) * sign
            right = total * falling_factorial_e1(k)
            assert left == right, (lam, k)


def test_divisibility_corollary():
    rng = random.Random(31)
    for k in range(1, 4):
        ff = falling_factorial_e1(k)
        for trial in range(6):
            g = random_symfunc(rng, 6 - k, basis="h", terms=3)
            f = g * ff
            assert divisible_by_falling_factorial(f, k)
            assert divisible_by_e1_power(fsur(f), k), (k, trial)
        for trial in range(6):
            f = random_symfunc(rng, 5, basis="h", terms=3)
            left = divisible_by_falling_factorial(f, k)
            right = divisible_by_e1_power(fsur(f), k)
            assert left == right, (k, trial)


def test_integrality_of_transforms():
    for basis in BASES:
        for lam in partitions_up_to(5):
            f = from_basis(basis, lam)
            for target in ("m", "e", "h", "s"):
                to_basis_int(fsur(f), target)
                to_basis_int(fsurinv(f), target)
