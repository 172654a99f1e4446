"""The benchmark's oracles on values known by hand. Run with
``python3 -m pytest perfbench``."""

from fractions import Fraction
from math import factorial

import pytest

import oracles as O

# S_4, rows in descending lex order, columns (1^4), (2,1,1), (2,2), (3,1), (4)
S4_COLUMNS = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_partitions_and_class_sizes():
    assert O.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert [len(O.partitions(n)) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert O.conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert O.z((2, 1, 1)) == 4 and O.z((3, 3)) == 18 and O.z((1, 1, 1)) == 6
    assert O.cycle_type((2, 3, 1, 5, 4)) == (3, 2)


def test_hook_length_formula():
    assert O.hook_length((3, 2)) == 5
    assert O.hook_length((3, 2, 1)) == 16
    assert O.hook_length((4, 2, 1)) == 35
    for n in range(1, 8):
        assert sum(O.hook_length(lam) ** 2 for lam in O.partitions(n)) == factorial(n)


def test_hook_content_formula():
    assert O.hook_content((2, 1), 3) == 8  # the adjoint representation of GL_3
    assert O.hook_content((1, 1), 4) == 6
    assert O.hook_content((2,), 3) == 6
    assert O.hook_content((1, 1, 1), 2) == 0


def test_murnaghan_nakayama_gives_the_s4_table():
    for lam, row in S4_TABLE.items():
        assert [O.character(lam, mu) for mu in S4_COLUMNS] == row


@pytest.mark.parametrize("n", [5, 6])
def test_character_table_columns_are_orthogonal(n):
    parts = O.partitions(n)
    for mu in parts:
        for nu in parts:
            dot = sum(O.character(lam, mu) * O.character(lam, nu) for lam in parts)
            assert dot == (O.z(mu) if mu == nu else 0)


def test_kostka_numbers():
    assert O.kostka((3, 2), (2, 2, 1)) == 2
    assert O.kostka((2, 1), (1, 1, 1)) == 2
    assert O.kostka((2, 2), (3, 1)) == 0
    assert O.kostka((3, 2, 1), (1,) * 6) == 16
    for mu in O.partitions(6):
        total = sum(O.kostka(lam, mu) * O.hook_length(lam) for lam in O.partitions(6))
        assert total == O.young_dimension(mu)


def test_littlewood_richardson_counts_s21_squared():
    # s_21 * s_21 = s_42 + s_411 + s_33 + 2 s_321 + s_3111 + s_222 + s_2211
    want = {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1,
            (2, 2, 2): 1, (2, 2, 1, 1): 1}
    for lam in O.partitions(6):
        assert O.lr(lam, (2, 1), (2, 1)) == want.get(lam, 0)
    assert O.lr((2, 1), (1,), (1, 1)) == 1
    assert O.lr((3,), (2,), (1, 1)) == 0


def test_kronecker_coefficients():
    assert O.kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert O.kronecker((2, 1), (2, 1), (3,)) == 1
    assert O.kronecker((2, 1), (2, 1), (1, 1, 1)) == 1
    for lam in O.partitions(5):
        for mu in O.partitions(5):
            assert O.kronecker(lam, mu, (5,)) == (lam == mu)


def permutation_matrix(perm):
    """P with P e_i = e_perm(i), so that P(st) = P(s) P(t)."""
    n = len(perm)
    return [[1 if perm[j] == i + 1 else 0 for j in range(n)] for i in range(n)]


def adjacent(i, n):
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def test_coxeter_relations_and_reduced_words():
    n = 4
    gens = {i: permutation_matrix(adjacent(i, n)) for i in range(1, n)}
    assert O.coxeter_relations_hold(gens, n)
    broken = dict(gens)
    broken[2] = O.identity(n)
    broken[2][0][0] = -1
    assert not O.coxeter_relations_hold(broken, n)
    for perm in [(2, 3, 1, 4), (4, 3, 2, 1), (1, 2, 3, 4), (3, 1, 4, 2)]:
        assert O.matrix_from_generators(gens, perm, n) == permutation_matrix(perm)
    assert len(O.reduced_word((4, 3, 2, 1))) == 6
    assert O.trace(permutation_matrix((2, 1, 3, 4))) == 2


def test_evaluation_at_integer_points():
    pt = O.Point((1, 2))
    assert pt.value("s", (2, 1)) == 6  # x^2 y + x y^2
    assert pt.value("h", (2,)) == 7
    assert pt.value("s", (1, 1, 1)) == 0
    pt = O.Point((1, 2, 3))
    assert pt.value("m", (2, 1)) == 48
    assert pt.value("e", (2,)) == 11
    assert pt.value("p", (2, 1)) == 14 * 6
    assert pt.value("s", (2,)) == pt.value("h", (2,))
    assert pt.element("s", {(1, 1): Fraction(1, 2), (2,): 1}) == Fraction(11, 2) + 25
    with pytest.raises(ValueError):
        O.Point((2, 2))


def test_points_split_one_alphabet():
    points = O.Points([2, 3, 5, 7])
    assert points(2).x == (2, 3) and points(2, offset=2).x == (5, 7)
    assert points(2, power=2).x == (4, 9)
    assert points(2) is points(2)


def test_bareiss_determinant_and_polynomial_values():
    assert O._det([[2, 1], [1, 3]]) == 5
    assert O._det([[0, 1], [1, 0]]) == -1
    assert O._det([[1, 2], [2, 4]]) == 0
    assert O.poly_value({(2, 0): 1, (1, 1): Fraction(1, 2)}, (3, 4)) == 15
