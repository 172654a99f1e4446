import gc
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from symfunc.matrixreps import specht_module
from symfunc.partitions import conjugate, dominates, partitions_of
from symfunc.tableaux import (
    SkewShape,
    Tableau,
    count_ssyt,
    enumerate_ssyt,
    f_lambda,
    kostka,
    rsk,
    rsk_inverse,
    standard_tableaux,
)


def brute_skew_fillings(outer, inner, max_entry):
    """Oracle: try every assignment of 1..max_entry to the skew cells and
    keep the semistandard ones."""
    shape = SkewShape(outer, inner)
    cells = shape.cells()
    good = []
    for values in product(range(1, max_entry + 1), repeat=len(cells)):
        grid = dict(zip(cells, values))
        ok = True
        for (r, c), v in grid.items():
            if (r, c - 1) in grid and grid[(r, c - 1)] > v:
                ok = False
            if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
                ok = False
        if ok:
            good.append(tuple(values))
    return good


def test_column_of_three_needs_three_entries():
    assert list(enumerate_ssyt((1, 1, 1), 2)) == []


def test_kostka_two_fillings_of_32_with_content_221():
    tabs = list(enumerate_ssyt((3, 2), 3, (2, 2, 1)))
    assert [t.to_lists() for t in tabs] == [[[1, 1, 2], [2, 3]], [[1, 1, 3], [2, 2]]]
    for t in tabs:
        assert t.content() == (2, 2, 1)


def test_skew_enumeration_matches_brute_force():
    cases = [((2, 1), (1,), 2), ((3, 2), (1,), 2), ((3, 2, 1), (2, 1), 3), ((2, 2), (), 3)]
    for outer, inner, m in cases:
        got = [
            tuple(v for row in t.rows for v in row)
            for t in enumerate_ssyt(SkewShape(outer, inner), m)
        ]
        assert got == brute_skew_fillings(outer, inner, m)
    assert len(list(enumerate_ssyt(SkewShape((2, 1), (1,)), 2))) == 4


def test_enumeration_is_lexicographic_and_counts_agree():
    for lam in partitions_of(5):
        words = [
            tuple(v for row in t.rows for v in row) for t in enumerate_ssyt(lam, 3)
        ]
        assert words == sorted(words)
        assert len(words) == count_ssyt(lam, 3)


def test_kostka_fixtures():
    assert kostka((3, 2), (2, 2, 1)) == 2
    assert kostka((2, 2), (3, 1)) == 0
    assert kostka((2, 1), (1, 1, 1)) == 2


def test_kostka_dominance_and_diagonal_exhaustive():
    for n in range(8):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
            for mu in partitions_of(n):
                if kostka(lam, mu) != 0:
                    assert dominates(lam, mu)


def test_kostka_content_permutation_invariance():
    import random

    rng = random.Random(5)
    for n in range(2, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                perm = list(mu)
                rng.shuffle(perm)
                assert kostka(lam, tuple(perm)) == kostka(lam, mu)


def test_kostka_accepts_lists_and_unsorted_content():
    assert kostka([3, 2], [2, 2, 1]) == 2
    assert kostka([3, 2], [1, 2, 2]) == kostka((3, 2), (2, 2, 1))
    assert kostka([3, 2, 1], [1, 0, 3, 2]) == kostka((3, 2, 1), (3, 2, 1)) == 1
    assert kostka([2, 2], [1, 3]) == 0


def test_kostka_size_mismatch_is_zero():
    assert kostka((2, 1), (2, 2)) == 0


def test_f_lambda_fixtures():
    for n in range(1, 9):
        assert f_lambda((n,)) == 1
    assert f_lambda((2, 1)) == 2
    assert len(standard_tableaux((2, 1))) == 2


def test_f_lambda_squares_sum_to_factorial():
    for n in range(1, 9):
        assert sum(f_lambda(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_f_lambda_hook_length_matches_enumeration_to_8():
    # the hook-length formula against the standard tableaux it counts
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert f_lambda(lam) == len(standard_tableaux(lam)) == kostka(lam, (1,) * n)


def test_rsk_trivial_cases():
    p, q = rsk(())
    assert p.rows == () and q.rows == ()
    p, q = rsk((1, 1, 1))
    assert p.to_lists() == [[1, 1, 1]]
    assert q.to_lists() == [[1, 2, 3]]
    assert rsk_inverse(p, q) == (1, 1, 1)


def test_rsk_properties_and_bijectivity_exhaustive():
    for m in range(1, 5):
        for n in range(0, 5):
            seen = set()
            for word in product(range(1, m + 1), repeat=n):
                p, q = rsk(word)
                assert p.shape == q.shape
                assert p.is_semistandard()
                assert q.is_standard()
                assert max((v for row in p.rows for v in row), default=0) <= m
                assert rsk_inverse(p, q) == word
                key = (tuple(p.rows), tuple(q.rows))
                assert key not in seen
                seen.add(key)
            assert len(seen) == m**n


def test_rsk_counting_identity():
    for m in range(1, 6):
        for n in range(0, 6):
            total = sum(
                f_lambda(lam) * count_ssyt(lam, m)
                for lam in partitions_of(n)
                if len(lam) <= m
            )
            assert total == m**n


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=6), max_size=8))
def test_rsk_roundtrip_random_words(word):
    p, q = rsk(word)
    assert rsk_inverse(p, q) == tuple(word)


def test_content_fixtures():
    t = standard_tableaux((3, 2))[0]
    assert t.content() == (1, 1, 1, 1, 1)
    single = Tableau((1,), ((5,),))
    assert single.content() == (0, 0, 0, 0, 1)


def test_rsk_inverse_validates_input():
    p, q = rsk((2, 1, 2))
    bad_q = Tableau(p.shape, tuple(tuple(v + 1 for v in row) for row in q.rows))
    with pytest.raises(ValueError):
        rsk_inverse(p, bad_q)
    with pytest.raises(ValueError):
        rsk_inverse(p, Tableau((3,), ((1, 2, 3),)))


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))
    assert SkewShape((3, 2, 1), (1, 1)).size == 4


def test_enumeration_leaves_no_reference_cycles():
    """Enumerating tableaux, and building a Specht module over them, leaves
    nothing for the cycle collector: the garbage is freed by reference
    counting alone."""
    gc.collect()
    gc.disable()
    try:
        standard_tableaux((3, 2, 1))
        assert gc.collect() == 0
        count_ssyt((3, 2), 3)
        assert gc.collect() == 0
        specht_module((3, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()
