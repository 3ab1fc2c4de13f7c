import json
import random
import types
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symfrob
from symfrob import frobenius
from symfrob.cli import main
from symfrob.frobenius import (
    COEFF_KINDS,
    _assignment_sum,
    _e_values_at_unity,
    _lyndon_factors,
    _words_with_content,
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
    fsurinv_p_direct,
    genfunc_identity_check,
    restriction_coeff_eval,
    stable_matrix,
    tilde_h,
    tilde_s,
    vanishing_check,
    witness_search,
)
from symfrob.lyndon import lyndon_words, witt_count
from symfrob.oracles import eval_at_unity, frobenius_via_roots, power_value_at_unity
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
    InternalCheckError,
    PrecisionError,
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
    zero_free_prefix_sum,
)


def s(*lam):
    return from_basis("s", lam)


def h(*lam):
    return from_basis("h", lam)


def e(*lam):
    return from_basis("e", lam)


def p(*lam):
    return from_basis("p", lam)


# -- series rules ----------------------------------------------------------------


CUTOFF = 3


@pytest.mark.parametrize(
    "read",
    [
        pytest.param(fsur, id="fsur"),
        pytest.param(fsurinv, id="fsurinv"),
        pytest.param(fsurinv_iterative, id="fsurinv_iterative"),
        pytest.param(fsur_expansion, id="fsur_expansion"),
        pytest.param(lambda f: frobenius_series(f, CUTOFF), id="frobenius_series"),
        pytest.param(lambda f: skew(p(1), f), id="skew"),
        pytest.param(leading_term, id="leading_term"),
        pytest.param(lambda f: hall(f, f), id="hall"),
        pytest.param(lambda f: eval_at_unity(f, (2, 1)), id="eval_at_unity"),
        pytest.param(lambda f: frobenius_via_roots(f, CUTOFF), id="frobenius_via_roots"),
    ],
)
def test_exact_only_operations_reject_a_series(read):
    # Each reads every term of its element, and a series' terms past its
    # cutoff are unknown: one gate, one message, whatever the entry point.
    read(h(2, 1))
    with pytest.raises(ValueError) as info:
        read(standard_series("H", CUTOFF))
    assert str(info.value) == "an exact symmetric function is needed, not a truncated series"


@pytest.mark.parametrize(
    "read",
    [
        pytest.param(lambda f, n: f.coefficient((n,)), id="coefficient"),
        pytest.param(lambda f, n: f.homogeneous_component(n), id="homogeneous_component"),
        pytest.param(lambda f, n: f.truncate(n), id="truncate"),
        pytest.param(lambda f, n: hall(h(n), f), id="hall"),
        pytest.param(lambda f, n: hall(f, h(n)), id="hall_swapped"),
        pytest.param(lambda f, n: skew(f, h(n)), id="skew"),
    ],
)
def test_series_reads_stop_at_the_cutoff(read):
    # A series answers through its cutoff and raises one PrecisionError one
    # degree past it.
    series = standard_series("H", CUTOFF)
    read(series, CUTOFF)
    with pytest.raises(PrecisionError) as info:
        read(series, CUTOFF + 1)
    assert str(info.value) == f"degree {CUTOFF + 1} is beyond the series cutoff {CUTOFF}"


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


@pytest.mark.parametrize("name", ["Hplus", "Cadogan"])
def test_pleth_coeff_matches_general_plethysm(name):
    # Each column holds exactly the nonzero [p_nu] A(p_rho), A the adjoint of
    # plethysm by g: <p_nu[g], p_rho> / z_nu = z_rho [p_rho] p_nu[g] / z_nu.
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
                want = z_value(rho) * pleth.coefficient(rho) / z_value(nu)
                assert column.get(nu, 0) == want, (nu, rho)


def test_column_is_the_transform_of_one_power_sum():
    for rho in partitions_up_to(8):
        for name, transform in (("Hplus", fsur), ("Cadogan", fsurinv)):
            column = column_by_partition(_pleth_coeff(name, rho))
            assert column == dict(transform(p(*rho)).terms()), (name, rho)


def test_pleth_coeff_rejects_series_without_a_one_part_step():
    for name in ["H", "Hgeq2", "Lsum", "E", "Emin"]:
        for rho in [(), (1,), (2, 1)]:
            with pytest.raises(ValueError, match="no one-part step"):
                _pleth_coeff(name, rho)


def divisors_of(r):
    return [k for k in range(1, r + 1) if r % k == 0]


def apply_d(r, f):
    """D_r f = sum over k | r of p_k (f + k df/dp_k), on the p terms of f."""
    out = {}
    for nu, c in f.terms():
        for k in divisors_of(r):
            grown = tuple(sorted(nu + (k,), reverse=True))
            out[grown] = out.get(grown, 0) + c
            out[nu] = out.get(nu, 0) + k * nu.count(k) * c
    return SymFunc(out)


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(1, 6),
    terms=st.dictionaries(
        partition_up_to(5), st.fractions(-3, 3, max_denominator=4), max_size=4
    ),
)
def test_fsur_of_one_more_part_is_d_r(r, terms):
    g = SymFunc(terms)
    assert fsur(p(r) * g) == apply_d(r, fsur(g))


def test_fsurinv_of_a_part_power_is_a_falling_factorial():
    for c in range(1, 7):
        q = SymFunc({(k,): mobius(c // k) for k in divisors_of(c)})
        want = SymFunc.one()
        for m in range(5):
            assert fsurinv_p_direct((c,) * m) == want, (c, m)
            want = want * (q - m * c)


def test_fsur_of_p40_enumerates_no_partitions_of_40(monkeypatch):
    # One step per divisor of 40; no series is expanded and no partition of 40 listed.
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


def _benchmark_files():
    """The benchmark's workloads module and golden digests, read from its
    own files without importing them."""
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    workloads = types.ModuleType("workloads")
    path = bench / "workloads.py"
    exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    return workloads, json.loads((bench / "golden.json").read_text())


def test_transforms_match_benchmark_golden_digests():
    # The benchmark's correctness gate: every fsur/fsurinv result of
    # degree <= 10 in benchmarks/golden.json.
    workloads, golden = _benchmark_files()
    checked = 0
    for op_id, thunk in workloads.transform_pool(symfrob):
        if sum(map(int, op_id.split(":")[2].split(","))) <= 10:
            assert workloads.digest(thunk()) == golden[op_id], op_id
            checked += 1
    assert checked == 240


def test_cli_sweep_matches_benchmark_golden_digests(capsys):
    # The benchmark counts a CLI command whose exit code and stdout differ
    # from benchmarks/golden.json as a failed operation; here each one runs
    # in-process.
    workloads, golden = _benchmark_files()
    commands = workloads.cli_commands()
    for argv in commands:
        code = main(list(argv))
        stdout = capsys.readouterr().out
        assert workloads.cli_digest(code, stdout) == golden[workloads.cli_id(argv)], argv
    assert len(commands) == 34


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
    assert fsur_expansion(SymFunc.zero()) == SymFunc.zero()
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


def test_fsur_p_direct_matches_the_adjoint_engine():
    for lam in partitions_up_to(12):
        assert fsur_p_direct(lam) == fsur(p(*lam)), lam


def test_fsurinv_p_direct_matches_the_adjoint_engine():
    for lam in partitions_up_to(12):
        assert fsurinv_p_direct(lam) == fsurinv(p(*lam)), lam


def test_direct_formulas_accept_compositions():
    assert fsur_h_direct((1, 3)) == fsur_h_direct((3, 1))
    assert fsur_e_direct((1, 3)) == fsur_e_direct((3, 1))
    # Zero parts are dropped: h_0 = e_0 = p_0 = 1.
    assert fsur_h_direct((0, 3, 1)) == fsur_h_direct((3, 1))
    assert fsur_e_direct((2, 0, 0)) == fsur_e_direct((2,))
    assert fsur_p_direct((0, 2)) == fsur_p_direct((2,))
    assert fsurinv_p_direct((3, 0, 3)) == fsurinv_p_direct((3, 3))
    assert fsur_h_direct((0,)) == fsur_e_direct(()) == SymFunc.one()
    assert fsur_p_direct((2, 4)) == fsur_p_direct((4, 2))
    assert fsurinv_p_direct((2, 4, 2)) == fsurinv_p_direct((4, 2, 2))


# -- word formulas ---------------------------------------------------------------------


def test_words_with_content_lists_each_word_once_in_order():
    # Every word of the content once, in lexicographic order: the distinct
    # permutations of its sorted word, a multinomial number of them.
    for counts in ((), (0,), (3,), (2, 1), (1, 0, 2), (2, 2, 1), (1, 1, 1, 1), (0, 3, 2)):
        first = tuple(letter for letter, c in enumerate(counts, 1) for _ in range(c))
        words = list(_words_with_content(counts))
        assert words == sorted(set(permutations(first))), counts
        assert len(words) == factorial(sum(counts)) // prod(map(factorial, counts)), counts


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
    # match, so no float leaks into a result); anything else, a bool
    # included, or a value below the entry point's bound, is a usage error.
    assert repr(make(2.0)) == repr(make(2))
    make(least)
    for bad in (2.5, "2", least - 1, True):
        with pytest.raises(ValueError, match="integer"):
            make(bad)


@pytest.mark.parametrize("make", [mobius, lyndon_sf], ids=["mobius", "lyndon_sf"])
def test_unhashable_count_raises(make):
    # A list is a valid alphabet for lyndon_words, so it is not in the
    # shared bad tuple above; a count read as a list is still a usage error,
    # not a memo's TypeError.
    with pytest.raises(ValueError, match="integer"):
        make([2])


def test_fsurinv_h_direct_values():
    # Every r below 11 is checked against fsurinv in the acceptance suite.
    assert fsurinv_h_direct(0) == SymFunc.one()
    assert fsurinv_h_direct(1) == h(1)
    assert fsurinv_h_direct(2) == h(2) - e(1)


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


@pytest.mark.parametrize(
    "num_vars,bound,which", [(2, 4, "reciprocal"), (1, 6, "product"), (2, 4, "product")]
)
def test_genfunc_identities_fail_for_the_wrong_transform(monkeypatch, num_vars, bound, which):
    # The check must see which map it applies: with fsur in place of
    # fsurinv each of these identities fails.
    monkeypatch.setattr(frobenius, "fsurinv", fsur)
    assert not genfunc_identity_check(num_vars, bound, which)


def test_word_sum_is_the_lyndon_multiset_sum():
    # The paper's word sum for fsurinv(e_alpha) against the coefficient of
    # x^alpha in the product of Emin series over the Lyndon words: the
    # Chen-Fox-Lyndon factorization is a bijection between the words of
    # content alpha and the multisets of Lyndon words of total content alpha.
    checked = 0
    for ell in (1, 2, 3):
        for alpha in product(range(7), repeat=ell):
            size = sum(alpha)
            if not 1 <= size <= 6:
                continue
            pairs = _lyndon_factors(ell, size, "reciprocal")
            assert (-1) ** size * fsurinv_e_words(alpha) == _assignment_sum(alpha, pairs), alpha
            checked += 1
    assert checked == 116


def test_lyndon_factors_hold_one_vector_per_lyndon_word():
    # One H or Emin factor per Lyndon word over [l] of length <= bound, laid
    # along its content; "product" adds one Emin per Lyndon word over the
    # pair alphabet [l]^2 of length <= bound // 2, of twice its length.
    for ell in (1, 2, 3):
        for bound in range(1, 6):
            words = sum(witt_count(ell, n) for n in range(1, bound + 1))
            pair_words = sum(witt_count(ell**2, n) for n in range(1, bound // 2 + 1))
            reciprocal = _lyndon_factors(ell, bound, "reciprocal")
            direct = _lyndon_factors(ell, bound, "product")
            assert [name for name, _ in reciprocal] == ["Emin"] * words
            assert [name for name, _ in direct] == ["H"] * words + ["Emin"] * pair_words
            assert [v for _, v in direct[:words]] == [v for _, v in reciprocal]
            assert all(len(v) == ell and 1 <= sum(v) <= bound for _, v in reciprocal)
            assert all(sum(v) % 2 == 0 and sum(v) <= bound for _, v in direct[words:])
    assert _lyndon_factors(1, 4, "product") == [("H", (1,)), ("Emin", (2,))]
    with pytest.raises(ValueError, match="unknown identity"):
        _lyndon_factors(1, 3, "unknown")


def test_assignment_sum_recurses_once_per_factor():
    # 1,200 pairs that cannot divide x^1 come before the one that does:
    # the recursion depth follows the factors, not the pairs.
    pairs = [("H", (2,))] * 1200 + [("H", (1,))]
    assert _assignment_sum((1,), pairs) == from_basis("h", (1,))


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
    # |mu| runs past |lam|, beyond the square tables.
    for lam in partitions_up_to(6):
        for mu in partitions_up_to(9):
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


def test_every_family_has_its_sign_through_degree_8():
    # r, t and a are multiplicities; u and b are signed multiplicities with
    # the sign (-1)^(|lam|-|mu|) (derived in the _column docstring).
    for kind in COEFF_KINDS:
        index, matrix = coeff_table(kind, 8)
        for mu, row in zip(index, matrix):
            for lam, value in zip(index, row):
                sign = (-1) ** (sum(lam) - sum(mu)) if kind in ("u", "b") else 1
                assert sign * value >= 0, (kind, lam, mu, value)


def test_u_and_b_are_signed_lie_plethysm_pairings():
    # u_lam^mu = (-1)^(|lam|-|mu|) <s_lam', s_mu'[Lsum]> and b the same with
    # one more factor H: the Schur-positive side of the sign law, read from
    # plethysm by the free Lie algebra.
    lsum, series_h = standard_series("Lsum", 6), standard_series("H", 6)
    pairs = 0
    for mu in partitions_up_to(6):
        image = plethysm(from_basis("s", conjugate(mu)), lsum)
        u_column = to_basis_int(image, "s")
        b_column = to_basis_int(image * series_h, "s")
        for lam in partitions_up_to(6):
            sign = (-1) ** (sum(lam) - sum(mu))
            assert coeff("u", lam, mu) == sign * u_column.get(conjugate(lam), 0), (lam, mu)
            assert coeff("b", lam, mu) == sign * b_column.get(conjugate(lam), 0), (lam, mu)
            pairs += 1
    assert pairs == 900


def test_b_alternating_elementary_route():
    # b can also pair against plethysm by Cadogan's series times the
    # alternating elementary series; both routes must agree.
    for lam in partitions_up_to(4):
        for mu in partitions_up_to(4):
            cutoff = sum(lam)
            cadogan = plethysm(from_basis("s", mu), standard_series("Cadogan", cutoff))
            series = cadogan * standard_series("Emin", cutoff)
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


def test_r_slice_is_the_downward_strip_sum():
    # Each slice pushes the t column up the strips; the downward sum over
    # _horizontal_strips(mu) reads the same r, also for |mu| > |lam|. The
    # evaluation route is checked on the same range above.
    for lam in partitions_up_to(6):
        column = frobenius._column("t", lam)
        for m in range(10):
            entries = frobenius._r_slice(lam, m)
            assert set(entries) <= set(partitions_of(m)) and all(entries.values()), (lam, m)
            for mu in partitions_of(m):
                want = sum(column.get(nu, 0) for nu in frobenius._horizontal_strips(mu))
                assert entries.get(mu, 0) == want, (lam, mu)


def test_upper_strips_invert_horizontal_strips():
    # mu is in _upper_strips(nu, size) exactly when nu is in
    # _horizontal_strips(mu) and |mu| = size: every nu <= 7, every size
    # from |nu| to |nu| + 5.
    below: dict = {}
    for mu in partitions_up_to(12):
        for nu in frobenius._horizontal_strips(mu):
            below.setdefault((nu, sum(mu)), []).append(mu)
    for nu in partitions_up_to(7):
        for size in range(sum(nu), sum(nu) + 6):
            strips = frobenius._upper_strips(nu, size)
            assert len(set(strips)) == len(strips), (nu, size)
            assert sorted(strips) == sorted(below.get((nu, size), [])), (nu, size)


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
    stats = symfrob.cache_stats()
    assert stats["symfrob.frobenius._column"]["entries"] == 1
    assert stats["symfrob.frobenius._r_slice"]["entries"] == 7  # one per |mu| read


def test_r_table_reads_one_slice_per_lam_and_size():
    symfrob.clear_caches()
    index, _ = coeff_table("r", 5)
    stats = symfrob.cache_stats()["symfrob.frobenius._r_slice"]
    assert (stats["entries"], stats["hits"]) == (len(index) * 6, 0)


def test_negative_degree_raises():
    with pytest.raises(ValueError):
        partitions_up_to(-1)
    with pytest.raises(ValueError):
        coeff_table("r", -1)
    with pytest.raises(ValueError, match="counts must be integers"):
        coeff_table("r", True)
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


def test_length_bound_holds_for_r_and_t_but_not_a():
    # S^lam K^n = 0 when len(lam) > n = |mu|, and 0 <= t <= r; an a entry
    # may break it, the first being a_(1)^() = 1.
    certified = {}
    for kind in ("r", "t", "a"):
        index, matrix = coeff_table(kind, 8)
        broken = certified[kind] = 0
        for mu, row in zip(index, matrix):
            for lam, value in zip(index, row):
                if vanishing_check("length-bound", lam, mu):
                    continue
                if value > 0:
                    broken += 1
                else:
                    certified[kind] += 1
        assert broken == (225 if kind == "a" else 0), kind
    assert certified == {"r": 453, "t": 453, "a": 228}
    assert coeff("a", (1,), ()) == 1 and not vanishing_check("length-bound", (1,), ())
    assert vanishing_check("length-bound", [1, 1], [2])


def test_r_bound_is_the_t_bound_at_every_horizontal_strip():
    # Derived in vanishing_check: the r bound fails exactly when the t
    # bound fails at every nu with mu/nu a horizontal strip.
    index = partitions_up_to(10)
    certified = 0
    for mu in index:
        strips = frobenius._horizontal_strips(mu)
        for lam in index:
            holds = vanishing_check("r-bound", lam, mu)
            assert holds == any(vanishing_check("t-bound", lam, nu) for nu in strips), (lam, mu)
            certified += not holds
    assert (len(index) ** 2, certified) == (19321, 3638)


def test_no_positive_r_breaks_a_bound_beyond_the_square_tables():
    # The r bound certifies a zero only when |lam| < 2|hat(mu)|, mostly
    # outside the square tables; evaluation reaches |mu| < |lam| <= 2|mu|.
    pairs = positive = 0
    certified = {"r-bound": 0, "length-bound": 0}
    for mu in partitions_up_to(6):
        for size in range(sum(mu) + 1, 2 * sum(mu) + 1):
            for lam in partitions_of(size):
                value = restriction_coeff_eval(lam, mu)
                pairs += 1
                positive += value > 0
                for kind in certified:
                    if not vanishing_check(kind, lam, mu):
                        assert value == 0, (kind, lam, mu, value)
                        certified[kind] += 1
    assert (pairs, positive) == (3864, 2721)
    assert certified == {"r-bound": 6, "length-bound": 775}


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


def test_e_values_at_unity_match_the_oracle():
    # One table per class: e_0..e_|rho|, and e_r = 0 above |rho| since rho
    # has |rho| eigenvalues.
    for rho in partitions_up_to(7):
        values = _e_values_at_unity(rho)
        assert len(values) == sum(rho) + 1, rho
        for r in range(sum(rho) + 3):
            want = eval_at_unity(from_basis("e", (r,) if r else ()), rho)
            assert want == (values[r] if r <= sum(rho) else 0), (rho, r)


def memo_growth(read):
    """read() and, for each memo, the entries it added."""
    before = {name: stats["entries"] for name, stats in symfrob.cache_stats().items()}
    result = read()
    return result, {
        name: stats["entries"] - before.get(name, 0)
        for name, stats in symfrob.cache_stats().items()
    }


def test_witness_search_memoizes_per_class_not_per_pair():
    # The evaluation route keeps one e-value table per class rho of S_|mu|
    # and no (lam, rho) or (lam, mu) pair: p(9) = 30 and p(18) = 385 bound
    # the tables, and with s_mu built first no memo grows by as many
    # entries as the search reads lam.
    for mu, classes in (((3, 3, 3), 30), ((3, 3, 3, 3, 3, 3), 385)):
        symfrob.clear_caches()
        from_basis("s", mu)
        found, growth = memo_growth(lambda: witness_search(mu, 2))
        assert found is None
        stats = symfrob.cache_stats()
        assert "symfrob.frobenius._jacobi_trudi" not in stats
        assert 0 < stats["symfrob.frobenius._e_values_at_unity"]["entries"] <= classes
        read = sum(len(partitions_of(size, max_part=2)) for size in range(2 * sum(mu) + 1))
        assert max(growth.values()) < read, (mu, read, growth)
    # A sweep of the |mu| <= 4 slice beyond the square tables, |mu| < |lam|
    # <= 2|mu|, reads each pair once, so no memo may keep one per pair.
    pairs = [
        (lam, mu)
        for mu in partitions_up_to(4)
        for size in range(sum(mu) + 1, 2 * sum(mu) + 1)
        for lam in partitions_of(size)
    ]
    symfrob.clear_caches()
    for mu in partitions_up_to(4):
        from_basis("s", mu)
    _, growth = memo_growth(lambda: [restriction_coeff_eval(lam, mu) for lam, mu in pairs])
    assert max(growth.values()) < len(pairs), (len(pairs), growth)


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


def test_fsurinv_e_prod_formula():
    # product formula with the longest zero-free prefix statistic, at
    # |lam| + k = 7 with k >= 1: acceptance criterion 10 checks every pair
    # with |lam| + k <= 6
    for lam in partitions_up_to(6):
        k = 7 - sum(lam)
        left = fsurinv(from_basis("e", lam) * e(1) ** k)
        assert left == zero_free_prefix_sum(lam, k), (lam, k)


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
