import random
from fractions import Fraction
from math import factorial

import pytest

from symfunc.characters import (
    char_inner,
    character,
    character_row,
    character_table,
    class_function,
    frobenius_ch,
    frobenius_inverse,
    kronecker,
    kronecker_product,
    littlewood_richardson,
    table_columns,
    youngs_rule,
)
from symfunc.errors import SizeMismatchError
from symfunc.partitions import class_representative, conjugate, partitions_of, sign, z_value
from symfunc.ring import (
    P,
    S,
    basis_element,
    hall_inner,
    multiply,
    skew_schur,
    sym_element,
)
from symfunc.tableaux import count_ssyt, f_lambda, kostka


def test_character_fixtures():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
            assert character((1,) * n, mu) == sign(class_representative(mu))
    assert [character((2, 1), mu) for mu in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]


def test_character_size_mismatch():
    with pytest.raises(SizeMismatchError):
        character((2, 1), (2, 2))


def test_character_table_small():
    assert character_table(1) == [[1]]
    assert character_table(3) == [[1, 1, 1], [2, 0, -1], [1, -1, 1]]
    assert table_columns(3) == [(1, 1, 1), (2, 1), (3,)]


def test_character_table_reads_each_row_once(monkeypatch):
    from symfunc import characters

    calls = []

    def counting_row(lam):
        calls.append(lam)
        return character_row(lam)

    monkeypatch.setattr(characters, "character_row", counting_row)
    table = characters.character_table(6)
    assert sorted(calls, reverse=True) == list(partitions_of(6))
    assert [row[0] for row in table] == [f_lambda(lam) for lam in partitions_of(6)]


def test_orthogonality_rows_and_columns_to_8():
    for n in range(1, 9):
        parts = partitions_of(n)
        rows = {lam: character_row(lam) for lam in parts}
        # first orthogonality: sum over classes of chi chi' / z = delta
        for lam in parts:
            for nu in parts:
                total = sum(
                    Fraction(rows[lam][mu] * rows[nu][mu], z_value(mu))
                    for mu in parts
                )
                assert total == (1 if lam == nu else 0)
        # second orthogonality: sum over irreducibles chi(mu) chi(rho) = z delta
        for mu in parts:
            for rho in parts:
                total = sum(rows[lam][mu] * rows[lam][rho] for lam in parts)
                assert total == (z_value(mu) if mu == rho else 0)


def test_degrees_match_tableau_enumeration_to_8():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert character(lam, (1,) * n) == f_lambda(lam)
        assert sum(character(lam, (1,) * n) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_frobenius_ch_fixtures():
    for n in range(1, 6):
        for lam in partitions_of(n):
            chi = class_function(n, character_row(lam))
            assert frobenius_ch(chi) == basis_element(S, lam)
        triv = class_function(n, {mu: 1 for mu in partitions_of(n)})
        assert frobenius_ch(triv) == basis_element("h", (n,))
        for mu in partitions_of(n):
            indicator = class_function(n, {mu: z_value(mu)})
            assert frobenius_ch(indicator) == basis_element(P, mu)


def test_frobenius_ch_is_an_isometry():
    rng = random.Random(71)
    for n in range(1, 6):
        for _ in range(5):
            f = class_function(
                n, {mu: rng.randint(-3, 3) for mu in partitions_of(n)}
            )
            g = class_function(
                n, {mu: rng.randint(-3, 3) for mu in partitions_of(n)}
            )
            assert hall_inner(frobenius_ch(f), frobenius_ch(g)) == char_inner(f, g)


def test_frobenius_inverse_fixtures():
    for n in range(1, 6):
        for lam in partitions_of(n):
            cf = frobenius_inverse(basis_element(S, lam), n)
            assert cf == class_function(n, character_row(lam))
        for mu in partitions_of(n):
            cf = frobenius_inverse(basis_element(P, mu), n)
            expected = class_function(n, {mu: z_value(mu)})
            assert cf == expected
        allones = frobenius_inverse(basis_element("h", (n,)), n)
        assert set(allones.values) == {Fraction(1)}
    with pytest.raises(ValueError):
        frobenius_inverse(
            sym_element(P, {(1,): 1, (2,): 1}), 2
        )


def test_littlewood_richardson_fixtures():
    assert littlewood_richardson((2,), (1,), (1,)) == 1
    assert littlewood_richardson((1, 1), (1,), (1,)) == 1
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            assert littlewood_richardson(lam, mu, ()) == int(lam == mu)
    assert littlewood_richardson((3,), (1,), (1,)) == 0  # size mismatch


def test_lr_symmetry_and_skew_consistency_to_5():
    for n in range(0, 6):
        for lam in partitions_of(n):
            for k in range(0, n + 1):
                for mu in partitions_of(k):
                    sk = skew_schur(lam, mu)
                    for nu in partitions_of(n - k):
                        c = littlewood_richardson(lam, mu, nu)
                        assert c == littlewood_richardson(lam, nu, mu)
                        assert c == hall_inner(sk, basis_element(S, nu))
                        assert c >= 0


def test_lr_matches_the_hall_product_oracle_to_7():
    """Every c^lam_(mu,nu) with |lam| <= 7 equals <s_lam, s_mu s_nu>,
    computed in p by multiplying and pairing."""
    for n in range(8):
        for lam in partitions_of(n):
            s_lam = basis_element(S, lam)
            for k in range(n + 1):
                for mu in partitions_of(k):
                    s_mu = basis_element(S, mu)
                    for nu in partitions_of(n - k):
                        oracle = hall_inner(s_lam, multiply(s_mu, basis_element(S, nu)))
                        assert littlewood_richardson(lam, mu, nu) == oracle


def test_lr_matches_schur_product_expansion():
    s21 = basis_element(S, (2, 1))
    s1 = basis_element(S, (1,))
    from symfunc.ring import convert

    prod = convert(multiply(s21, s1), S)
    for lam, c in prod.terms.items():
        assert c == littlewood_richardson(lam, (2, 1), (1,))


def test_kronecker_fixtures():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert kronecker(lam, mu, (n,)) == int(lam == mu)
                assert kronecker(lam, mu, (1,) * n) == int(lam == conjugate(mu))
    assert kronecker((2, 1), (2,), (2,)) == 0  # size mismatch


def test_kronecker_fully_symmetric_to_5():
    from itertools import permutations

    for n in range(1, 6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    base = kronecker(lam, mu, nu)
                    assert base >= 0
                    for a, b, c in permutations((lam, mu, nu)):
                        assert kronecker(a, b, c) == base


def test_kronecker_product_fixtures():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            prod = kronecker_product(basis_element(P, lam), basis_element(P, mu))
            if lam == mu:
                assert prod.terms == {lam: Fraction(z_value(lam))}
            else:
                assert prod.is_zero()


def test_kronecker_unit_and_commutativity():
    rng = random.Random(83)
    for n in range(1, 6):
        hn = basis_element("h", (n,))
        for _ in range(4):
            parts = partitions_of(n)
            f = sym_element(
                P, {parts[rng.randrange(len(parts))]: Fraction(rng.randint(1, 5))}
            )
            assert kronecker_product(hn, f) == f
            assert kronecker_product(f, hn) == f
            g = sym_element(
                P, {parts[rng.randrange(len(parts))]: Fraction(rng.randint(-5, 5))}
            )
            assert kronecker_product(f, g) == kronecker_product(g, f)
    # distinct degrees annihilate
    assert kronecker_product(
        basis_element(S, (2,)), basis_element(S, (1,))
    ).is_zero()


def test_kronecker_product_expands_by_coefficients():
    from symfunc.ring import convert

    for n in range(2, 5):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                prod = convert(
                    kronecker_product(basis_element(S, mu), basis_element(S, nu)), S
                )
                for lam in partitions_of(n):
                    assert prod.terms.get(lam, 0) == kronecker(lam, mu, nu)


def test_frobenius_is_multiplicative_for_kronecker():
    # ch(chi^mu . chi^nu pointwise) = ch(chi^mu) star ch(chi^nu)
    for n in range(1, 6):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                chi_mu, chi_nu = character_row(mu), character_row(nu)
                lhs = frobenius_ch(
                    class_function(n, {rho: chi_mu[rho] * chi_nu[rho] for rho in chi_mu})
                )
                rhs = kronecker_product(
                    basis_element(S, mu), basis_element(S, nu)
                )
                assert lhs == rhs


def test_youngs_rule_fixtures():
    assert youngs_rule((3, 2, 1)) == {
        (3, 2, 1): 1,
        (3, 3): 1,
        (4, 2): 2,
        (4, 1, 1): 1,
        (5, 1): 2,
        (6,): 1,
    }
    for n in range(1, 7):
        assert youngs_rule((n,)) == {(n,): 1}
        assert youngs_rule((1,) * n) == {
            lam: f_lambda(lam) for lam in partitions_of(n)
        }


def test_youngs_rule_is_kostka():
    """Young's rule by Pieri against the Kostka numbers counted as
    semistandard tableaux, a route that reads no Pieri expansion."""
    for n in range(1, 7):
        for mu in partitions_of(n):
            table = youngs_rule(mu)
            for lam in partitions_of(n):
                assert table.get(lam, 0) == count_ssyt(lam, len(mu), mu), (lam, mu)


def test_youngs_rule_is_the_h_to_s_conversion_to_8():
    """The Pieri rule against the table route, h_mu converted to s."""
    from symfunc.ring import H, convert

    for n in range(9):
        for mu in partitions_of(n):
            assert youngs_rule(mu) == convert(basis_element(H, mu), S).terms, mu


def test_char_inner_degree_mismatch():
    with pytest.raises(SizeMismatchError):
        char_inner(
            class_function(2, {(2,): 1}), class_function(3, {(3,): 1})
        )


def test_class_function_keys_are_exactly_partitions():
    with pytest.raises(SizeMismatchError):
        class_function(3, {(2, 2): 1})
    cf = class_function(3, {(3,): 5})
    assert dict(zip(partitions_of(3), cf.values)) == {(3,): 5, (2, 1): 0, (1, 1, 1): 0}
    assert [cf.value(mu) for mu in partitions_of(3)] == [5, 0, 0]
    with pytest.raises(SizeMismatchError):
        cf.value((2, 2))
