from fractions import Fraction

import pytest

from symfrob.frobenius import frobenius_series, fsur
from symfrob.oracles import (
    eval_at_unity,
    frobenius_via_roots,
    power_value_at_unity,
)
from symfrob.partitions import partitions_of, partitions_up_to, z_value
from symfrob.symfunc import (
    BASES,
    SymFunc,
    character_value,
    from_basis,
    standard_series,
)


def test_power_values():
    # each part d contributes d when d divides k, else nothing
    assert power_value_at_unity(1, (2,)) == 0
    assert power_value_at_unity(2, (2,)) == 2
    assert power_value_at_unity(6, (3, 2, 1)) == 6
    assert power_value_at_unity(4, (3, 2, 1)) == 3
    with pytest.raises(ValueError):
        power_value_at_unity(0, (1,))


def test_eval_is_ring_homomorphism():
    f = from_basis("s", (2, 1))
    g = from_basis("h", (2,))
    for mu in partitions_up_to(4):
        assert eval_at_unity(f * g, mu) == eval_at_unity(f, mu) * eval_at_unity(
            g, mu
        )
        assert eval_at_unity(f + g, mu) == eval_at_unity(f, mu) + eval_at_unity(
            g, mu
        )


def test_roots_route_constant_gives_h():
    series = frobenius_via_roots(SymFunc.one(), 2)
    assert series == standard_series("H", 2)
    assert series.coefficient((2,)) == Fraction(1, 2)
    assert series.coefficient((1, 1)) == Fraction(1, 2)


def test_roots_route_degree_two_parts():
    e1 = from_basis("e", (1,))
    part = frobenius_via_roots(e1, 4).homogeneous_component(2)
    assert part == e1 * from_basis("h", (1,))

    s2 = from_basis("s", (2,))
    part2 = frobenius_via_roots(s2, 4).homogeneous_component(2)
    assert part2 == SymFunc(
        {(1, 1): Fraction(3, 2), (2,): Fraction(1, 2)}
    )


def test_roots_route_matches_transform_route():
    for basis in BASES:
        for lam in partitions_up_to(4):
            f = from_basis(basis, lam)
            assert frobenius_via_roots(f, 4) == frobenius_series(f, 4), (basis, lam)


@pytest.mark.parametrize("n", [8, 9])
def test_fsur_matches_roots_route_times_emin(n):
    # The full transform is fsur(f) * H and 1/H = Emin, so the roots route
    # checks the adjoint engine without any plethysm.
    emin = standard_series("Emin", n)
    for basis in ("s", "e"):
        for lam in partitions_of(n):
            f = from_basis(basis, lam)
            assert fsur(f).truncate(n) == frobenius_via_roots(f, n) * emin, (basis, lam)


def test_character_column_orthogonality():
    for n in range(7):
        classes = partitions_of(n)
        for mu in classes:
            for nu in classes:
                total = sum(
                    character_value(lam, mu) * character_value(lam, nu)
                    for lam in classes
                )
                want = z_value(mu) if mu == nu else 0
                assert total == want, (mu, nu)


def test_schur_evaluations_are_integers():
    # Values are character values, hence integers, but not nonnegative in
    # general: the sign-column shape at a 2-cycle evaluates to -1.
    for lam in partitions_up_to(5):
        f = from_basis("s", lam)
        for n in range(9):
            for mu in partitions_of(n):
                value = eval_at_unity(f, mu)
                assert value.denominator == 1, (lam, mu)
    assert eval_at_unity(from_basis("s", (1, 1)), (2,)) == -1


def test_schur_evaluations_nonnegative_on_identity_classes():
    # At the identity class the evaluation is a dimension.
    for lam in partitions_up_to(5):
        f = from_basis("s", lam)
        for n in range(7):
            value = eval_at_unity(f, (1,) * n)
            assert value.denominator == 1 and value >= 0


def test_fsur_power_sum_matrix_is_nonnegative():
    # The surjective transform has nonnegative integer entries in the
    # power sum basis (visible from the divisor-sum product formula).
    from symfrob.frobenius import fsur

    for lam in partitions_up_to(6):
        for _, c in fsur(from_basis("p", lam)).terms():
            assert c.denominator == 1 and c >= 0, lam
