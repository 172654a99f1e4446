import random
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from symfunc.errors import SizeMismatchError
from symfunc.partitions import (
    all_permutations,
    as_partition,
    class_representative,
    compose,
    conjugate,
    count_of_type,
    cycle_type,
    dominates,
    inverse_perm,
    parse_partition,
    parse_permutation,
    partition_ranks,
    partitions_of,
    sign,
    z_value,
)


def brute_partitions(n):
    """Oracle: all weakly decreasing positive tuples summing to n."""
    found = set()

    def rec(prefix, remaining, cap):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        for k in range(1, min(remaining, cap) + 1):
            rec(prefix + [k], remaining - k, k)

    rec([], n, n)
    return found


@st.composite
def partition_st(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = partitions_of(n)
    return parts[draw(st.integers(min_value=0, max_value=len(parts) - 1))]


def test_partitions_of_zero_and_four():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_against_brute_force():
    for n in range(9):
        parts = partitions_of(n)
        assert set(parts) == brute_partitions(n)
        assert list(parts) == sorted(parts, reverse=True)  # descending lex
        if n >= 1:
            assert parts[0] == (n,)
    assert len(partitions_of(8)) == 22


def test_partition_ranks_are_positions_in_partitions_of():
    for n in range(13):
        ranks = partition_ranks(n)
        assert list(ranks) == list(partitions_of(n))
        assert all(ranks[lam] == i for i, lam in enumerate(partitions_of(n)))


def test_as_partition_validation():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


def test_conjugate_fixtures():
    assert conjugate((3, 2, 2)) == (3, 3, 1)
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)


def test_conjugate_involutive_up_to_12():
    for n in range(13):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_dominates_fixtures():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    with pytest.raises(SizeMismatchError):
        dominates((2, 1), (2, 2))


def test_dominance_is_partial_order_and_conjugation_reverses():
    for n in range(9):
        parts = partitions_of(n)
        for lam in parts:
            assert dominates(lam, lam)
        for lam, mu in product(parts, repeat=2):
            if dominates(lam, mu) and dominates(mu, lam):
                assert lam == mu
            assert dominates(lam, mu) == dominates(conjugate(mu), conjugate(lam))
        for lam, mu, nu in product(parts, repeat=3):
            if dominates(lam, mu) and dominates(mu, nu):
                assert dominates(lam, nu)


def test_z_value_fixtures():
    for n in range(1, 9):
        assert z_value((n,)) == n
    assert z_value((1, 1, 1)) == 6
    assert z_value((5, 2, 1)) == 10
    assert z_value(()) == 1


def test_z_value_takes_the_parts_in_any_order():
    """z is prod i^m_i m_i! over the multiplicities m_i, so any order of the
    same parts has the same z."""
    rng = random.Random(7)
    for n in range(10):
        for lam in partitions_of(n):
            want = prod(p ** lam.count(p) * factorial(lam.count(p)) for p in set(lam))
            for _ in range(3):
                shuffled = tuple(rng.sample(lam, len(lam)))
                assert z_value(shuffled) == want, shuffled
    assert z_value((1, 2, 1)) == z_value((2, 1, 1)) == 4
    assert z_value((3, 1, 3, 1, 3)) == 3 ** 3 * 6 * 2


def test_partitions_of_is_descending_lex_to_twenty():
    """The iterative listing is in descending lex order, with no repeat, and
    has p(n) entries."""
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
              385, 490, 627]
    for n, count in enumerate(counts):
        parts = partitions_of(n)
        assert list(parts) == sorted(set(parts), reverse=True) and len(parts) == count
        assert all(sum(lam) == n and lam == tuple(sorted(lam, reverse=True)) for lam in parts)
        assert all(lam[-1:] != (0,) for lam in parts)


def test_count_of_type_small_brute_force():
    assert count_of_type((1, 1, 1)) == 1
    assert count_of_type((2, 1)) == sum(
        1 for p in permutations((1, 2, 3)) if cycle_type(p) == (2, 1)
    )


def test_count_of_type_s8_brute_force():
    expected = sum(1 for p in all_permutations(8) if cycle_type(p) == (5, 2, 1))
    assert count_of_type((5, 2, 1)) == expected == 4032


def test_counts_sum_to_factorial():
    from math import factorial

    for n in range(1, 9):
        assert sum(count_of_type(lam) for lam in partitions_of(n)) == factorial(n)


def test_cycle_type_fixtures():
    assert cycle_type(parse_permutation("2 3 7 4 1 8 5 6")) == (5, 2, 1)
    assert cycle_type(tuple(range(1, 7))) == (1,) * 6
    assert cycle_type((2, 3, 4, 5, 1)) == (5,)


def test_cycle_type_is_a_class_invariant():
    import random

    rng = random.Random(7)
    for n in range(2, 9):
        word = list(range(1, n + 1))
        for _ in range(20):
            pi = tuple(rng.sample(word, n))
            sigma = tuple(rng.sample(word, n))
            conj = compose(sigma, compose(pi, inverse_perm(sigma)))
            assert cycle_type(conj) == cycle_type(pi)


def test_class_representative_has_its_type():
    for n in range(1, 9):
        for mu in partitions_of(n):
            assert cycle_type(class_representative(mu)) == mu


def test_sign_multiplicative():
    for p in permutations((1, 2, 3, 4)):
        for q in permutations((1, 2, 3, 4)):
            assert sign(compose(p, q)) == sign(p) * sign(q)


@given(partition_st())
def test_conjugate_preserves_size(lam):
    assert sum(conjugate(lam)) == sum(lam)
    assert conjugate(conjugate(lam)) == lam


def test_parse_and_format_roundtrip():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("()") == ()
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")


@pytest.mark.parametrize("p, q", [((2, 1), (1, 2, 3)), ((1, 2, 3), (2, 1)), ((), (1,))],
                         ids=["shorter-left", "shorter-right", "empty"])
def test_compose_rejects_words_of_different_degree(p, q):
    with pytest.raises(ValueError, match="permutations of different degree"):
        compose(p, q)
