import importlib.util
import json
import os
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from pathlib import Path

import pytest

from symfunc import limits, matrixreps, ring
from symfunc.characters import (
    char_inner,
    character,
    character_row,
    class_function,
    frobenius_ch,
    kronecker,
)
from symfunc.errors import DegreeCapError, InvariantViolationError
from symfunc.matrixreps import (
    MatrixRep,
    SubgroupSpec,
    adjacent_transposition,
    character_of,
    classical_rep,
    decompose,
    direct_sum,
    exterior_square_character,
    gl_character,
    gl_dimension,
    induce,
    restrict,
    schur_weyl_check,
    sign_of,
    specht_module,
    square_class,
    tensor_product,
    trivial_of,
    young_basis,
    young_classes,
    young_module,
)
from symfunc.partitions import (
    all_permutations,
    class_representative,
    compose,
    cycle_type,
    identity_perm,
    inverse_perm,
    partitions_of,
    sign as perm_sign,
    z_value,
)
from symfunc.ring import basis_element, evaluate, multiply
from symfunc.tableaux import count_ssyt, f_lambda, standard_tableaux
import rep_digest
from specht_digest import digests, render
from specht_oracle import specht_polynomial

_spec = importlib.util.spec_from_file_location(
    "matrix_oracles", Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
)
O = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(O)

DEFINING_S3 = {
    (1, 2, 3): ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    (2, 1, 3): ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    (3, 2, 1): ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    (1, 3, 2): ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    (2, 3, 1): ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    (3, 1, 2): ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
}

STANDARD_S3 = {
    (1, 2, 3): ((1, 0), (0, 1)),
    (2, 1, 3): ((-1, -1), (0, 1)),
    (3, 2, 1): ((1, 0), (-1, -1)),
    (1, 3, 2): ((0, 1), (1, 0)),
    (2, 3, 1): ((-1, -1), (1, 0)),
    (3, 1, 2): ((0, 1), (-1, -1)),
}


def test_defining_s3_matches_worked_matrices():
    rep = classical_rep("defining", 3)
    for word, matrix in DEFINING_S3.items():
        assert rep.matrix(word) == matrix


def test_standard_s3_matches_worked_blocks():
    rep = classical_rep("standard", 3)
    for word, matrix in STANDARD_S3.items():
        assert rep.matrix(word) == matrix


def test_trivial_and_sign():
    for n in range(1, 6):
        triv = classical_rep("trivial", n)
        sgn = classical_rep("sign", n)
        for w in list(all_permutations(n))[:10]:
            assert triv.matrix(w) == ((1,),)
            assert sgn.matrix(w) == ((perm_sign(w),),)


def test_defining_trace_counts_fixed_points():
    rng = random.Random(307)
    for n in range(2, 6):
        rep = classical_rep("defining", n)
        for _ in range(5):
            w = tuple(rng.sample(range(1, n + 1), n))
            assert rep.trace(w) == sum(1 for i in range(1, n + 1) if w[i - 1] == i)


def test_character_of_defining_s3():
    chi = character_of(classical_rep("defining", 3))
    assert [chi.value(mu) for mu in [(1, 1, 1), (2, 1), (3,)]] == [3, 1, 0]


def test_regular_character_and_decomposition():
    for n in range(1, 6):
        reg = classical_rep("regular", n)
        chi = character_of(reg)
        assert chi.value((1,) * n) == factorial(n)
        for mu in partitions_of(n):
            if mu != (1,) * n:
                assert chi.value(mu) == 0
        if n <= 5:
            assert decompose(reg) == {lam: f_lambda(lam) for lam in partitions_of(n)}


def test_regular_and_induced_characters_list_no_word(monkeypatch):
    """The regular character is n! at the identity and 0 elsewhere, and a
    character induced from a Young subgroup S_c the inner rule times ring's h
    row of c: neither lists a word of S_n or of the subgroup. No built-in
    module builds a class word either: character_of and decompose of Young,
    induced, regular, defining, standard, Specht, tensor and direct-sum
    modules read class rules at cycle types, and equal the diagonal sums at
    the class representatives, taken before the word builders are cut."""
    def no_words(n):
        pytest.fail(f"the words of S_{n} were listed")

    def modules():
        sub, s31 = SubgroupSpec.young((1, 2, 1)), specht_module((3, 1))
        reps = [classical_rep(k, 4) for k in ("regular", "defining", "standard")]
        return reps + [
            young_module((2, 1, 1)), s31, specht_module((2, 1, 1)), induce(sign_of(sub), 4),
            induce(restrict(specht_module((2, 2)), SubgroupSpec.young((2, 2))), 4),
            tensor_product(s31, young_module((2, 2))), direct_sum(reps[0], reps[1])]

    diagonal = []
    for rep in modules():
        traces = {}
        for rho in partitions_of(4):
            m = rep.matrix(class_representative(rho))
            traces[rho] = sum(m[i][i] for i in range(rep.dim))
        chi = class_function(4, traces)
        diagonal.append((chi, {lam: m for lam in partitions_of(4)
                               if (m := char_inner(chi, class_function(4, character_row(lam))))}))

    def no_class_word(*args):
        pytest.fail("a class word was built")

    monkeypatch.setattr(matrixreps, "all_permutations", no_words)
    monkeypatch.setattr(matrixreps, "_perms", no_words)
    for name in ("class_representative", "young_classes", "cycle_type"):
        monkeypatch.setattr(matrixreps, name, no_class_word)
    regular = {lam: f_lambda(lam) for lam in partitions_of(6)}
    assert decompose(classical_rep("regular", 6)) == regular
    assert decompose(induce(sign_of(SubgroupSpec.young((1,) * 6)), 6)) == regular
    assert decompose(induce(trivial_of(SubgroupSpec.young((3, 2, 1))), 6)) == {
        lam: k for lam in partitions_of(6) if (k := O.kostka(lam, (3, 2, 1)))}
    for rep, (chi, mults) in zip(modules(), diagonal):
        assert character_of(rep) == chi, rep.label
        assert decompose(rep) == mults, rep.label


def test_frobenius_traces_reject_a_word_that_is_no_permutation():
    """The trace of a Young or induced module raises on a word with a
    repeated letter, whose cycles would never close, instead of looping."""
    sub = SubgroupSpec.young((2, 1))
    reps = [young_module((2, 1)), induce(sign_of(sub), 3),
            induce(trivial_of(sub), 3, transversal=[(1, 2, 3), (1, 3, 2), (2, 3, 1)])]
    for rep in reps:
        with pytest.raises(ValueError, match="not a permutation word"):
            rep.trace((1, 1, 2))


def test_regular_trace_rejects_a_word_that_is_no_permutation():
    with pytest.raises(ValueError, match="not a permutation word"):
        classical_rep("regular", 3).trace((1, 1, 2))


def test_every_module_rejects_a_word_that_is_no_permutation():
    """matrix() and trace() of every constructor raise on a word with a
    repeated letter, instead of answering or failing in a lookup."""
    sub = SubgroupSpec.young((2, 1))
    s21 = specht_module((2, 1))
    reps = [classical_rep(k, 3) for k in ("trivial", "sign", "defining", "regular", "standard")]
    reps += [young_module((2, 1)), s21, trivial_of(sub), sign_of(sub), induce(sign_of(sub), 3),
             induce(trivial_of(sub), 3, transversal=[(1, 2, 3), (1, 3, 2), (2, 3, 1)]),
             restrict(s21, sub), direct_sum(s21, young_module((2, 1))),
             tensor_product(s21, classical_rep("regular", 3)),
             MatrixRep(3, 1, lambda pi: ((1,),))]
    for rep in reps:
        for read in (rep.matrix, rep.trace):
            with pytest.raises(ValueError, match=r"not a permutation word: \(1, 1, 2\)"):
                read((1, 1, 2))


def test_regular_cap():
    with pytest.raises(DegreeCapError):
        classical_rep("regular", 7)


def test_char_inner_fixtures():
    triv = character_of(classical_rep("trivial", 3))
    std = character_of(classical_rep("standard", 3))
    dfn = character_of(classical_rep("defining", 3))
    assert char_inner(triv, std) == 0
    assert char_inner(triv, triv) == 1
    assert char_inner(std, std) == 1  # irreducible
    assert char_inner(dfn, dfn) == 2  # trivial + standard


def test_decompose_defining():
    for n in range(2, 6):
        assert decompose(classical_rep("defining", n)) == {(n,): 1, (n - 1, 1): 1}


def test_young_module_examples():
    ym = young_module((2, 1))
    assert ym.dim == 3
    assert set(young_basis((2, 1))) == {((1, 2), (3,)), ((1, 3), (2,)), ((2, 3), (1,))}
    assert character_of(ym).values == character_of(classical_rep("defining", 3)).values


def test_young_module_classical_specialisations():
    for n in range(2, 6):
        assert (
            character_of(young_module((n,))).values
            == character_of(classical_rep("trivial", n)).values
        )
        assert (
            character_of(young_module((n - 1, 1))).values
            == character_of(classical_rep("defining", n)).values
        )
        if n <= 5:
            assert (
                character_of(young_module((1,) * n)).values
                == character_of(classical_rep("regular", n)).values
            )


def test_young_module_dimension_formula():
    for n in range(1, 7):
        for lam in partitions_of(n):
            dim = factorial(n)
            for part in lam:
                dim //= factorial(part)
            ym = young_module(lam)
            assert ym.dim == dim
            assert ym.trace((1,) * 0 + tuple(range(1, n + 1))) == dim


def test_young_rule_decomposition_to_5():
    from symfunc.tableaux import kostka

    for n in range(1, 6):
        for mu in partitions_of(n):
            mults = decompose(young_module(mu))
            assert mults == {
                lam: kostka(lam, mu)
                for lam in partitions_of(n)
                if kostka(lam, mu)
            }
            assert mults[mu] == 1
            from symfunc.partitions import dominates

            for lam in mults:
                assert dominates(lam, mu)


def test_young_trace_rule_is_the_h_pairing_to_8(monkeypatch):
    """young_module(mu) at a permutation of cycle type rho deals its cycles
    into the rows of mu, <h_mu, p_rho>: the row of mu in ring's h table, for
    every mu, rho |- n <= 8. Its character and decomposition list no
    tabloid."""

    def no_tabloids(sizes):
        pytest.fail(f"the tabloids of {sizes} were listed")

    monkeypatch.setattr(matrixreps, "young_basis", no_tabloids)
    with limits.scoped(limits.current().raised(8)):
        for n in range(9):
            for mu, row in zip(partitions_of(n), ring._pairing("h", n)):
                rep = young_module(mu)
                traces = [rep.trace(class_representative(rho)) for rho in partitions_of(n)]
                assert traces == list(row), mu
                assert decompose(rep) == {lam: k for lam in partitions_of(n)
                                          if (k := O.kostka(lam, mu))}, mu


def test_concurrent_young_matrices_list_the_tabloids_once(monkeypatch):
    mu, n = (3, 2), 5
    rng = random.Random(23)
    perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(6)]
    want = [young_module(mu).matrix(pi) for pi in perms]
    built = []
    real = matrixreps.young_basis

    def listed(lam):
        built.append(lam)
        time.sleep(0.001)  # let the threads race for the same list
        return real(lam)

    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    monkeypatch.setattr(matrixreps, "young_basis", listed)
    rep = young_module(mu)
    start = threading.Barrier(8)
    results, errors = [], []

    def work():
        try:
            start.wait(timeout=60)
            results.append([rep.matrix(pi) for pi in perms])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and results == [want] * len(threads)
    assert built == [mu]


def test_young_and_regular_modules_share_one_coset_family(monkeypatch):
    """Two Young modules of one shape and two regular modules of S_5, each
    built separately and driven from 8 threads at once, list the tabloids
    once per composition and build each ("cosets", blocks) key once."""
    rng = random.Random(31)
    perms = [tuple(rng.sample(range(1, 6), 5)) for _ in range(6)]
    kinds = [lambda: young_module((3, 2)), lambda: classical_rep("regular", 5)]
    want = [[make().matrix(pi) for pi in perms] for make in kinds]
    built = []
    real = matrixreps.young_basis

    def listed(lam):
        built.append(lam)
        time.sleep(0.001)  # let the threads race for the same family
        return real(lam)

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    monkeypatch.setattr(matrixreps, "young_basis", listed)
    reps = [make() for make in kinds for _ in range(2)]
    start = threading.Barrier(8)
    results, errors = [None] * 8, []

    def work(k):
        try:
            start.wait(timeout=60)
            results[k] = [reps[k % 4].matrix(pi) for pi in perms]
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and results == [want[k % 4 // 2] for k in range(8)]
    assert sorted(built) == [(1, 1, 1, 1, 1), (3, 2)]
    assert fresh.compute_counts == {("cosets", (3, 2)): 1, ("cosets", (1, 1, 1, 1, 1)): 1}


def test_specht_polynomial_fixture_22():
    t = standard_tableaux((2, 2))[0]
    assert t.rows == ((1, 2), (3, 4))
    # (x3 - x1)(x4 - x2) expanded
    assert specht_polynomial(t) == {
        (0, 0, 1, 1): 1,
        (1, 0, 0, 1): -1,
        (0, 1, 1, 0): -1,
        (1, 1, 0, 0): 1,
    }


def test_specht_s3_polynomials():
    # S^(3) = span(1), S^(2,1) = span(x3-x1, x2-x1), S^(1,1,1) = span(Vandermonde)
    assert specht_polynomial(standard_tableaux((3,))[0]) == {(0, 0, 0): 1}
    polys = [specht_polynomial(t) for t in standard_tableaux((2, 1))]
    assert {(0, 0, 1): 1, (1, 0, 0): -1} in polys  # x3 - x1
    assert {(0, 1, 0): 1, (1, 0, 0): -1} in polys  # x2 - x1
    vdm = specht_polynomial(standard_tableaux((1, 1, 1))[0])
    # Vandermonde on three variables: 6 signed monomials
    assert vdm == {
        (0, 1, 2): 1, (0, 2, 1): -1, (1, 0, 2): -1,
        (2, 0, 1): 1, (1, 2, 0): 1, (2, 1, 0): -1,
    }


def test_specht_one_column_is_sign():
    for n in range(2, 6):
        rep = specht_module((1,) * n)
        assert rep.dim == 1
        for w in list(all_permutations(n))[: min(24, factorial(n))]:
            assert rep.matrix(w) == ((perm_sign(w),),)


def test_specht_dimensions_and_characters_to_5():
    """Dimension and character of every Specht module to the cap n = 5 and
    beyond it to n = 8: the diagonal sum of the matrix at every class, a
    reduced-word product of Garnir-straightened generators, against the
    character row, which the trace rule reads."""
    with limits.scoped(limits.current().raised(8)):
        for n in range(1, 9):
            for lam in partitions_of(n):
                rep = specht_module(lam)
                diagonals = []
                for mu in partitions_of(n):
                    m = rep.matrix(class_representative(mu))
                    diagonals.append(sum(m[i][i] for i in range(len(m))))
                assert len(m) == rep.dim == f_lambda(lam)
                row = character_row(lam)
                assert tuple(diagonals) == tuple(row[mu] for mu in partitions_of(n)), lam


def test_specht_characters_list_no_tableau(monkeypatch):
    """decompose of a Specht module, and of a tensor product of two, reads
    the trace rule: no standard tableau is listed."""
    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    listed = []
    real = matrixreps.standard_tableaux
    monkeypatch.setattr(matrixreps, "standard_tableaux", lambda lam: listed.append(lam) or real(lam))
    for lam in partitions_of(5):
        assert decompose(specht_module(lam)) == {lam: 1}
    tp = tensor_product(specht_module((3, 1, 1)), specht_module((2, 2, 1)))
    assert decompose(tp) == {nu: k for nu in partitions_of(5)
                             if (k := kronecker((3, 1, 1), (2, 2, 1), nu))}
    assert character_of(tp).value((5,)) == 0
    assert listed == []
    specht_module((2, 1)).matrix((2, 1, 3))  # the first matrix lists them
    assert listed == [(2, 1)]


def test_specht_cap_raised_above_the_coefficient_cap():
    """Raising only the Specht cap past the coefficient cap (12) builds the
    module and its matrices; its trace reads a character row, which stays
    capped, and raises naming that cap."""
    with limits.scoped(limits.Limits(specht=13)):
        rep = specht_module((12, 1))
        pi = (2, 3, 1) + tuple(range(4, 14))
        m = rep.matrix(pi)
        assert rep.dim == len(m) == 12 and sum(m[i][i] for i in range(12)) == 9
        with pytest.raises(DegreeCapError, match="character rows and coefficients are capped at n <= 12"):
            rep.trace(pi)
        with pytest.raises(DegreeCapError, match="capped at n <= 12"):
            decompose(rep)
        # a module induced from a line reads its inner matrix, not its trace
        line = induce(restrict(specht_module((13,)), SubgroupSpec.young((13,))), 13)
        assert line.matrix(pi) == ((1,),)
    with limits.scoped(limits.current().raised(13)):
        assert rep.trace(pi) == 9


def test_specht_irreducibility_criterion_to_5():
    for n in range(1, 6):
        for lam in partitions_of(n):
            chi = character_of(specht_module(lam))
            assert char_inner(chi, chi) == 1
        # a reducible one for contrast
        dfn = character_of(classical_rep("defining", n))
        assert (char_inner(dfn, dfn) == 1) == (n == 1)


def _act(pi, poly):
    """pi . F: the exponent of x_i moves to x_{pi(i)}."""
    out = {}
    for key, c in poly.items():
        moved = [0] * len(key)
        for i, e in enumerate(key):
            moved[pi[i] - 1] = e
        out[tuple(moved)] = c
    return out


def _check_expands_moved_polynomials(lam, perms):
    # column i of M_pi holds the coordinates of pi . F_{T_i} in the F_{T_j}
    rep = specht_module(lam)
    polys = [specht_polynomial(t) for t in standard_tableaux(lam)]
    for pi in perms:
        m = rep.matrix(pi)
        assert all(type(x) is int for row in m for x in row), (lam, pi)
        for i, poly in enumerate(polys):
            total = {}
            for j, other in enumerate(polys):
                if m[j][i]:
                    for key, c in other.items():
                        total[key] = total.get(key, 0) + m[j][i] * c
            total = {k: c for k, c in total.items() if c}
            assert total == _act(pi, poly), (lam, pi, i)


def test_specht_matrices_expand_the_moved_polynomials_to_5():
    for lam in partitions_of(5):
        _check_expands_moved_polynomials(lam, all_permutations(5))


def test_specht_matrices_expand_the_moved_polynomials_at_6_and_7():
    # every generator, and two seeded permutations, whose matrices are
    # products along reduced words; (3,2,1) is the smallest shape whose standard
    # tableaux, in row-major order, are not sorted by their leading monomials
    rng = random.Random(61)
    with limits.scoped(limits.current().raised(7)):
        for n in (6, 7):
            for lam in partitions_of(n):
                perms = [adjacent_transposition(n, i) for i in range(1, n)]
                perms += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(2)]
                _check_expands_moved_polynomials(lam, perms)


def test_specht_generator_trace_check_catches_a_corrupted_straightening(monkeypatch):
    # in T = 12/3 the letters 1 and 2 share a row, so s_1 T = 21/3 is the one
    # straightened tableau of S^(2,1); a wrong coefficient of e_T in its
    # straightened form moves the trace of s_1 off chi^(2,1) at a
    # transposition, while s_2 straightens nothing
    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    real = matrixreps._straighten

    def corrupted(tab, index, memo):
        out = dict(real(tab, index, memo))
        if tab == ((2, 3), (1,)):
            out[index[((1, 3), (2,))]] += 1
        return out

    want = specht_module((2, 1)).matrix((1, 3, 2))
    monkeypatch.setattr(matrixreps, "_straighten", corrupted)
    rep = specht_module((2, 1))
    assert rep.matrix((1, 3, 2)) == want
    with pytest.raises(InvariantViolationError, match="trace of s_1 is 1, not chi"):
        rep.matrix((2, 1, 3))


def test_concurrent_specht_matrices_build_each_generator_once(monkeypatch):
    lam, n = (3, 2), 5
    rng = random.Random(17)
    perms = [adjacent_transposition(n, i) for i in range(1, n)]
    perms += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(6)]
    want = [specht_module(lam).matrix(pi) for pi in perms]
    built = Counter()
    guard = threading.Lock()
    real_generator = matrixreps._natural_generator

    def generator(i, *args):
        with guard:
            built[i] += 1
        time.sleep(0.001)  # let the threads race for the same generator
        return real_generator(i, *args)

    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    monkeypatch.setattr(matrixreps, "_natural_generator", generator)
    rep = specht_module(lam)
    results, errors = [], []

    def work():
        try:
            results.append([rep.matrix(pi) for pi in perms])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and results == [want] * len(threads)
    assert built == Counter(range(1, n))


def test_concurrent_specht_modules_of_one_shape_build_it_once(monkeypatch):
    """Two modules of one shape, driven from 8 threads at once, share one
    build of the shape and one of each generator."""
    lam, n = (3, 2), 5
    rng = random.Random(29)
    perms = [adjacent_transposition(n, i) for i in range(1, n)]
    perms += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(6)]
    want = [specht_module(lam).matrix(pi) for pi in perms]

    def slow(real):
        def call(*args):
            time.sleep(0.001)  # let the threads race for the same key
            return real(*args)
        return call

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    monkeypatch.setattr(matrixreps, "standard_tableaux", slow(matrixreps.standard_tableaux))
    monkeypatch.setattr(matrixreps, "_natural_generator", slow(matrixreps._natural_generator))
    reps = [specht_module(lam), specht_module(lam)]
    start = threading.Barrier(8)
    results, errors = [], []

    def work(rep):
        try:
            start.wait(timeout=60)
            results.append([rep.matrix(pi) for pi in perms])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(reps[k % 2],)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and results == [want] * len(threads)
    assert fresh.compute_counts == {("specht", lam): 1} | {("specht", lam, i): 1 for i in range(1, n)}


def test_a_failed_specht_generator_build_publishes_nothing(monkeypatch):
    # the corrupted straightening of the trace-check test, which also keeps
    # its wrong form of s_1 T in the memo: the failed build of s_1 must
    # publish neither the generator nor that form, so that a later module of
    # the shape, straightening for real, answers the pinned matrix
    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    real = matrixreps._straighten

    def corrupted(tab, index, memo):
        out = dict(real(tab, index, memo))
        if tab == ((2, 3), (1,)):
            out[index[((1, 3), (2,))]] += 1
            memo[tab] = out
        return out

    with monkeypatch.context() as patch:
        patch.setattr(matrixreps, "_straighten", corrupted)
        with pytest.raises(InvariantViolationError, match="trace of s_1 is 1, not chi"):
            specht_module((2, 1)).matrix((2, 1, 3))
    assert fresh.compute_counts == {("specht", (2, 1)): 1}
    assert specht_module((2, 1)).matrix((2, 1, 3)) == ((1, 0), (-1, -1))
    assert fresh.compute_counts == {("specht", (2, 1)): 1, ("specht", (2, 1), 1): 1}


def test_specht_generators_match_the_pinned_digests(monkeypatch):
    """Every generator matrix of every lam |- n <= 8, built on a fresh
    cache, hashes to the digest pinned in tests/golden/specht_generators.json,
    which tests/specht_digest.py prints."""
    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    path = os.path.join(os.path.dirname(__file__), "golden", "specht_generators.json")
    with open(path) as fh:
        text = fh.read()
    got = digests()
    assert len(got) == 66
    assert got == json.loads(text)
    assert render(got) == text


def test_rep_matrices_match_the_pinned_digests(monkeypatch):
    """The generator matrices, the longest-element matrix and the character
    of every Young module of n <= 6, regular module of n <= 5, module
    induced from the trivial or sign of a Young subgroup of S_n, n <= 5,
    defining and standard module of n <= 6, and the four tensor products and
    four direct sums of rep_digest.names(), built on a fresh cache, hash to the
    digests pinned in tests/golden/rep_matrices.json, which
    tests/rep_digest.py prints."""
    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    path = os.path.join(os.path.dirname(__file__), "golden", "rep_matrices.json")
    with open(path) as fh:
        text = fh.read()
    got = rep_digest.digests()
    assert len(got) == 115
    assert got == json.loads(text)
    assert rep_digest.render(got) == text


def test_specht_cap():
    with pytest.raises(DegreeCapError):
        specht_module((3, 2, 1))


def test_generator_relations_hold_exactly():
    reps = [classical_rep("defining", n) for n in range(2, 7)]
    reps += [classical_rep("standard", n) for n in range(2, 7)]
    reps += [classical_rep("regular", n) for n in range(2, 5)]
    reps += [specht_module(lam) for n in range(2, 6) for lam in partitions_of(n)]
    reps += [young_module(lam) for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]]
    for rep in reps:
        assert O.coxeter_relations_hold(rep.generator_matrices(), rep.n), rep.label
    with limits.scoped(limits.current().raised(7)):
        for n in (6, 7):
            for lam in partitions_of(n):
                rep = specht_module(lam)
                assert O.coxeter_relations_hold(rep.generator_matrices(), n), lam


def test_matrix_map_is_a_homomorphism():
    rng = random.Random(311)
    sub = SubgroupSpec.young((2, 2))
    reps = [
        classical_rep("trivial", 4),
        classical_rep("sign", 4),
        classical_rep("standard", 4),
        specht_module((3, 2)),
        young_module((2, 2, 1)),
        classical_rep("regular", 4),
        induce(trivial_of(sub), 4),
        induce(sign_of(sub), 4),
    ]
    for rep in reps:
        n = rep.n
        for _ in range(6):
            p = tuple(rng.sample(range(1, n + 1), n))
            q = tuple(rng.sample(range(1, n + 1), n))
            assert O.same_matrix(rep.matrix(compose(p, q)), O.mat_mul(rep.matrix(p), rep.matrix(q)))
            assert all(type(x) is int for row in rep.matrix(p) for x in row)
            assert type(rep.trace(p)) is int


def test_large_permutation_modules_act_homomorphically():
    """Regular S_5 is 120x120, so its matrices are read as column maps, with
    no dense product: column j of matrix(p) has its one 1 at the lex index
    of p t_j, and the map of matrix(p q) is that of matrix(p) after that of
    matrix(q)."""
    rng = random.Random(313)
    reg = classical_rep("regular", 5)
    words = list(permutations(range(1, 6)))
    lex = {w: i for i, w in enumerate(words)}

    def column_map(m):
        cols = list(zip(*m))
        assert all(sorted(col) == [0] * 119 + [1] for col in cols)
        return [col.index(1) for col in cols]

    for _ in range(20):
        p = tuple(rng.sample(range(1, 6), 5))
        q = tuple(rng.sample(range(1, 6), 5))
        mp, mq = column_map(reg.matrix(p)), column_map(reg.matrix(q))
        assert mp == [lex[compose(p, t)] for t in words]
        assert column_map(reg.matrix(compose(p, q))) == [mp[i] for i in mq]


# --- character rules against the dense route ----------------------------------


def compositions(n):
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in compositions(n - k)]


def decompose_by_char_inner(rep):
    """The dense route: traces as diagonal sums, multiplicities as Fraction
    inner products with the irreducible characters."""
    traces = {}
    for mu in partitions_of(rep.n):
        m = rep.matrix(class_representative(mu))
        traces[mu] = sum(m[i][i] for i in range(rep.dim))
    chi = class_function(rep.n, traces)
    out = {}
    for lam in partitions_of(rep.n):
        m = char_inner(chi, class_function(rep.n, character_row(lam)))
        assert m.denominator == 1 and m >= 0
        if m:
            out[lam] = int(m)
    return out


def character_rule_reps():
    reps = [classical_rep(k, n) for k in ("defining", "regular") for n in range(1, 5)]
    reps += [young_module(mu) for n in range(1, 6) for mu in partitions_of(n)]
    for n in (4, 5):
        for comp in compositions(n):
            sub = SubgroupSpec.young(comp)
            reps += [induce(trivial_of(sub), n), induce(sign_of(sub), n)]
    s31, y22 = specht_module((3, 1)), young_module((2, 2))
    reg4, def4 = classical_rep("regular", 4), classical_rep("defining", 4)
    ind = induce(sign_of(SubgroupSpec.young((1, 2, 1))), 4)
    reps += [tensor_product(s31, y22), tensor_product(def4, reg4),
             tensor_product(ind, def4), direct_sum(y22, ind),
             direct_sum(reg4, tensor_product(s31, def4))]
    reps += [specht_module(lam) for n in range(1, 6) for lam in partitions_of(n)]
    return reps


def test_trace_rules_match_the_diagonal_sum():
    reps = character_rule_reps()
    sub = SubgroupSpec.young((2, 2))
    full = [r for r in reps if r.n == 4]
    reps += [restrict(r, sub) for r in full]
    reps += [restrict(restrict(r, sub), SubgroupSpec.young((2, 1, 1))) for r in full[:3]]
    reps.append(restrict(induce(sign_of(SubgroupSpec.young((2, 3))), 5),
                         SubgroupSpec.young((4, 1))))
    for rep in reps:
        assert rep._trace_fn is not None, rep.label
        for pi in rep.domain.elements if rep.domain else all_permutations(rep.n):
            m = rep.matrix(pi)
            tr = rep.trace(pi)
            assert type(tr) is int
            assert tr == sum(m[i][i] for i in range(rep.dim)), (rep.label, pi)


def test_decompose_matches_the_char_inner_route():
    for rep in character_rule_reps():
        assert decompose(rep) == decompose_by_char_inner(rep), rep.label
    for lam in [(3, 2), (2, 2, 1), (3, 1, 1)]:
        rep = specht_module(lam)
        assert decompose(rep) == decompose_by_char_inner(rep) == {lam: 1}


def test_decompose_rejects_a_trace_that_is_not_a_character():
    e = identity_perm(3)
    delta = MatrixRep(3, 1, lambda pi: ((1 if pi == e else 0,),))
    with pytest.raises(InvariantViolationError, match=r"multiplicity of \(3,\) is non-integral: 1/6"):
        decompose(delta)
    negative = MatrixRep(3, 1, lambda pi: ((-1,),))
    with pytest.raises(InvariantViolationError, match=r"negative multiplicity -1 at \(3,\)"):
        decompose(negative)


# --- induction ------------------------------------------------------------


def test_induce_golden_block_matrix():
    sub = SubgroupSpec.from_elements(3, [(1, 2, 3), (1, 3, 2)])  # {e, (2 3)}
    ind = induce(trivial_of(sub), 3, transversal=[(1, 2, 3), (2, 1, 3), (3, 2, 1)])
    assert ind.matrix((2, 1, 3)) == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    chi = character_of(ind)
    assert [chi.value(mu) for mu in [(1, 1, 1), (2, 1), (3,)]] == [3, 1, 0]
    assert decompose(ind) == {(3,): 1, (2, 1): 1}


def test_induce_character_is_transversal_independent():
    sub = SubgroupSpec.from_elements(3, [(1, 2, 3), (1, 3, 2)])
    base = trivial_of(sub)
    t1 = matrixreps._cosets(sub)[0]
    t2 = [(1, 2, 3), (2, 1, 3), (3, 2, 1)]
    c1 = character_of(induce(base, 3, transversal=t1))
    c2 = character_of(induce(base, 3, transversal=t2))
    assert c1.values == c2.values
    # matrices themselves may differ
    assert t1 != t2


def test_induce_rejects_non_transversal():
    sub = SubgroupSpec.from_elements(3, [(1, 2, 3), (1, 3, 2)])
    with pytest.raises(ValueError):
        induce(trivial_of(sub), 3, transversal=[(1, 2, 3), (1, 3, 2), (2, 1, 3)])


@pytest.mark.parametrize("words", [
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)],  # two words of one coset
    [(1, 2, 3), (2, 1, 3)],  # too few words
], ids=["same-coset", "too-few"])
def test_induce_names_a_bad_transversal(words):
    sub = SubgroupSpec.from_elements(3, [(1, 2, 3), (1, 3, 2)])
    with pytest.raises(ValueError, match="^not a transversal of the subgroup$"):
        induce(trivial_of(sub), 3, transversal=words)


def test_induce_rejects_a_transversal_of_non_permutation_words():
    """Six distinct words t h can pass the count check without being S_3;
    such a list raises at once, not with a KeyError in a later matrix."""
    sub = SubgroupSpec.from_elements(3, [(1, 2, 3), (1, 3, 2)])
    with pytest.raises(ValueError, match="not a permutation word"):
        induce(trivial_of(sub), 3, transversal=[(1, 1, 2), (2, 2, 1), (3, 3, 1)])


def test_induce_young_trivial_matches_young_module():
    for lam in [(2, 1), (3, 1), (2, 2), (2, 1, 1)]:
        sub = SubgroupSpec.young(lam)
        ind = induce(trivial_of(sub), sum(lam))
        assert character_of(ind).values == character_of(young_module(lam)).values


def test_induce_from_whole_group_is_identity():
    full = SubgroupSpec.from_elements(3, list(all_permutations(3)))
    std = classical_rep("standard", 3)
    ind = induce(restrict(std, full), 3)
    assert ind.dim == std.dim
    assert character_of(ind).values == character_of(std).values
    for w in all_permutations(3):
        assert ind.matrix(w) == std.matrix(w)


def test_restrict_basics():
    sub = SubgroupSpec.young((2, 2))
    std = classical_rep("standard", 4)
    res = restrict(std, sub)
    for h in sub.elements:
        assert res.matrix(h) == std.matrix(h)
    with pytest.raises(ValueError):
        res.matrix((2, 3, 4, 1))  # outside the domain
    triv = restrict(classical_rep("trivial", 4), sub)
    assert all(triv.matrix(h) == ((1,),) for h in sub.elements)


def test_young_classes_match_brute_force_classes():
    """The closed-form classes of a Young subgroup equal the conjugation
    orbits of its listed elements, for every composition with n <= 7 and at
    most 3 parts. The elements are given as a subgroup with no blocks, whose
    classes are found by conjugation."""
    count = 0
    for n in range(1, 8):
        for r in (1, 2, 3):
            for comp in product(range(1, n + 1), repeat=r):
                if sum(comp) != n:
                    continue
                listed = SubgroupSpec(n, SubgroupSpec.young(comp).elements)
                brute = [(cls[0], len(cls)) for cls in listed.conjugacy_classes()]
                assert young_classes(comp) == brute, comp
                count += 1
    assert count == 63
    with pytest.raises(ValueError):
        young_classes((2, 0))


def coset_table_character(base, sub):
    """The induced character at each class rho: the sum of base.trace(h) over
    the cosets t_j with g t_j = t_j h, read from the lex scan of _cosets."""
    ts, locate = matrixreps._cosets(sub)
    out = {}
    for rho in partitions_of(sub.n):
        g = class_representative(rho)
        cells = (locate(compose(g, t)) + (j,) for j, t in enumerate(ts))
        out[rho] = sum(base.trace(h) for i, h, j in cells if i == j)
    return class_function(sub.n, out)


def test_frobenius_induced_characters_match_the_coset_table_to_6():
    """The character induced from the trivial or sign of a Young subgroup,
    read from the h row of its blocks, equals the coset-table sum, for every
    composition of n <= 6."""
    count = 0
    for n in range(1, 7):
        for comp in compositions(n):
            sub = SubgroupSpec.young(comp)
            for base in (trivial_of(sub), sign_of(sub)):
                got = character_of(induce(base, n))
                assert got == coset_table_character(base, sub), (comp, base.label)
                count += 1
    assert count == 126


def young_classes_character(base, comp):
    """The induced character as the Frobenius sum (z_rho/|H|) sum |c| chi(c)
    over young_classes(comp), base traced at each class word."""
    n, sums = sum(comp), {}
    for word, size in young_classes(comp):
        rho = cycle_type(word)
        sums[rho] = sums.get(rho, 0) + size * base.trace(word)
    order = prod(map(factorial, comp))
    return class_function(n, {rho: Fraction(z_value(rho) * sums.get(rho, 0), order)
                              for rho in partitions_of(n)})


def test_induced_characters_from_the_h_row_equal_the_class_sums_to_7():
    """Induced from a Young subgroup S_c, a module with a rule chi has
    character chi(rho) <h_c, p_rho>, read from ring's h row of c sorted; it
    equals the Frobenius sum over young_classes(c), for every composition c
    of n <= 7, unsorted and with repeated parts, and four inner modules:
    trivial, sign, a restricted Specht module and that tensored with sign.
    With the ring cap at n - 1, the class sum answers, with the same values."""
    count = 0
    with limits.scoped(limits.current().raised(7)):
        for n in range(1, 8):
            shapes = partitions_of(n)
            for k, comp in enumerate(compositions(n)):
                sub = SubgroupSpec.young(comp)
                res = restrict(specht_module(shapes[k % len(shapes)]), sub)
                for base in (trivial_of(sub), sign_of(sub), res, tensor_product(res, sign_of(sub))):
                    want = young_classes_character(base, comp)  # reads the Specht row here
                    assert character_of(induce(base, n)) == want, (comp, base.label)
                    with limits.scoped(limits.Limits(ring=n - 1, specht=7)):
                        assert character_of(induce(base, n)) == want, (comp, base.label)
                    count += 1
    assert count == 4 * 127


def test_induced_characters_read_only_the_h_row_family(monkeypatch):
    """Within the ring cap, the character induced from the trivial module of
    S_(2,3) computes exactly the h rows of (3, 2), (2) and () and the merge
    and insertion maps they read, and lists no class of the subgroup. Above
    the cap it sums over young_classes and computes no ring key."""
    sub = SubgroupSpec.young((2, 3))
    want = young_classes_character(trivial_of(sub), (2, 3))
    listed, real = [], matrixreps.young_classes
    monkeypatch.setattr(matrixreps, "young_classes", lambda comp: listed.append(comp) or real(comp))
    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    assert character_of(induce(trivial_of(sub), 5)) == want
    assert set(fresh.compute_counts) == {
        ("row", "h", (3, 2)), ("row", "h", (2,)), ("row", "h", ()),
        ("merge", 3, 2), ("merge", 2, 3), ("merge", 2, 0), ("merge", 0, 2), ("merge", 0, 3),
        ("merge", 1, 3), ("insert", 2, 3), ("insert", 1, 4), ("insert", 1, 3)}
    assert listed == []
    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    with limits.scoped(limits.Limits(ring=4)):
        assert character_of(induce(trivial_of(sub), 5)) == want
    assert fresh.compute_counts == {} and listed == [(2, 3)]


def test_induced_matrices_of_lines_are_the_block_definition():
    """Induced from a one-dimensional module on a Young subgroup H, entry
    (i, j) of matrix(g) is Y(t_i^-1 g t_j) when that falls in H and 0
    otherwise, at every g of S_4 and S_5, for the trivial and sign modules
    and the rule-less sign of the first block; and matrix(g) matrix(h) =
    matrix(gh)."""
    rng = random.Random(43)
    cases = [(4, comp) for comp in compositions(4)]
    cases += [(5, comp) for comp in [(5,), (2, 3), (4, 1), (3, 1, 1), (1, 2, 2)]]
    for n, comp in cases:
        sub = SubgroupSpec.young(comp)
        ts = matrixreps._young_cosets(comp)[0]
        inverses = list(map(inverse_perm, ts))
        first = MatrixRep(n, 1, lambda h: ((perm_sign(h[:comp[0]]),),), sub, "sign of block 1")
        for base in (trivial_of(sub), sign_of(sub), first):
            rep = induce(base, n)
            for g in all_permutations(n):
                cells = ((compose(compose(ti, g), t) for t in ts) for ti in inverses)
                want = tuple(tuple(base.matrix(h)[0][0] if h in sub else 0 for h in row) for row in cells)
                assert rep.matrix(g) == want, (comp, base.label, g)
            for _ in range(3):
                g, h = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
                assert O.same_matrix(O.mat_mul(rep.matrix(g), rep.matrix(h)), rep.matrix(compose(g, h)))


def test_young_conjugacy_classes_are_the_products_of_block_classes_to_6():
    """A Young subgroup's classes, products of its blocks' cycle-type
    groups, are the conjugation orbits of the same elements given as a
    listed subgroup, in the same order, for every composition of n <= 6."""
    count = 0
    for n in range(1, 7):
        for comp in compositions(n):
            young = SubgroupSpec.young(comp)
            listed = SubgroupSpec.from_elements(n, young.elements)
            assert young.conjugacy_classes() == listed.conjugacy_classes(), comp
            count += 1
    assert count == 63


def test_young_conjugacy_classes_conjugate_nothing(monkeypatch):
    """S_(4,4) lists its 25 classes, 5 cycle types per block, without
    composing or inverting a permutation."""
    def refuse(*args):
        pytest.fail("a permutation was composed or inverted")

    monkeypatch.setattr(matrixreps, "compose", refuse)
    monkeypatch.setattr(matrixreps, "inverse_perm", refuse)
    classes = SubgroupSpec.young((4, 4)).conjugacy_classes()
    assert len(classes) == 25 and sum(map(len, classes)) == 576
    assert classes[0] == (tuple(range(1, 9)),)
    assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)


def test_listed_subgroup_traces_one_element_per_class():
    """Induced from a subgroup given by its elements, the Frobenius sum
    reads the class rule at the cycle type of one element of each of its
    conjugacy classes and equals the coset-table character."""
    sub = SubgroupSpec.from_elements(5, [p + (5,) for p in all_permutations(4)])
    base = restrict(specht_module((2, 1, 1, 1)), sub)
    traced = []
    counting = MatrixRep(5, base.dim, base._matrix_fn, sub,
                         _trace_fn=lambda rho: traced.append(rho) or base._trace_fn(rho))
    got = character_of(induce(counting, 5))
    assert sorted(traced) == sorted(cycle_type(c[0]) for c in sub.conjugacy_classes())
    assert len(traced) == 5
    assert got == coset_table_character(base, sub)


def test_rule_less_modules_are_traced_at_their_own_words():
    """A module built by hand with no rule need not be a class function of
    S_n: sign on the first block and trivial on the second, on S_(2,2),
    traces -1 at (1 2) and 1 at (3 4), which share a cycle type. Induced,
    it is traced at the subgroup's own class words and equals the
    coset-table character; restricted, tensored or summed, it has no rule
    and traces to the diagonal sum at every element."""
    sub = SubgroupSpec.young((2, 2))
    mixed = MatrixRep(4, 1, lambda h: ((-1 if h[0] == 2 else 1,),), sub)
    assert (mixed.trace((2, 1, 3, 4)), mixed.trace((1, 2, 4, 3))) == (-1, 1)
    assert character_of(induce(mixed, 4)) == coset_table_character(mixed, sub)
    s31 = restrict(specht_module((3, 1)), sub)
    for rep in (restrict(mixed, SubgroupSpec.young((2, 1, 1))), tensor_product(mixed, s31),
                tensor_product(s31, mixed), direct_sum(mixed, sign_of(sub))):
        assert rep._trace_fn is None, rep.label
        for h in rep.domain.elements:
            m = rep.matrix(h)
            assert rep.trace(h) == sum(m[i][i] for i in range(rep.dim)), (rep.label, h)


def test_rule_less_pairs_are_traced_through_their_factors():
    """A sum or tensor of the regular module of S_5 with a line module that
    has no rule is traced at each word as the sum or product of its
    factors' traces, and so is its restriction to S_(3,2): the regular
    factor's matrix is never built, and each character and each trace is
    the diagonal sum of the joined matrix."""
    def raising(pi):
        raise AssertionError("the regular module's matrix was built")

    def diagonal_sum(m):
        return sum(m[i][i] for i in range(len(m)))

    line = MatrixRep(5, 1, lambda pi: ((perm_sign(pi),),), label="line")
    sub = SubgroupSpec.young((3, 2))
    for pair in (tensor_product, direct_sum):
        real = pair(classical_rep("regular", 5), line)
        blind = classical_rep("regular", 5)
        blind._matrix_fn = raising
        rep = pair(blind, line)
        assert rep._trace_fn is None, rep.label
        diagonal = {mu: diagonal_sum(real.matrix(class_representative(mu)))
                    for mu in partitions_of(5)}
        assert character_of(rep) == class_function(5, diagonal), rep.label
        restricted = restrict(rep, sub)
        for h in sub.elements:
            assert restricted.trace(h) == diagonal_sum(real.matrix(h)), (rep.label, h)


def test_block_sorted_cosets_are_the_lex_scan_to_6(monkeypatch):
    """The block-increasing words are the transversal that the lex scan of
    _cosets finds, and sorting each block's values puts every word of S_n in
    the same coset with the same h, for every composition of n <= 6. It
    runs on a fresh cache, so that it leaves no coset family behind."""
    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    for n in range(1, 7):
        for comp in compositions(n):
            ts, locate = matrixreps._young_cosets(comp)
            lex, where = matrixreps._cosets(SubgroupSpec.young(comp))
            assert ts == lex, comp
            assert all(locate(w) == where(w) for w in all_permutations(n)), comp


def outer_tensor_on_young(mu, nu):
    """The genuine outer tensor S^mu x S^nu as a matrix representation of
    the Young subgroup S_a x S_b."""
    a, b = sum(mu), sum(nu)
    sub = SubgroupSpec.young((a, b))
    left_rep = specht_module(mu)
    right_rep = specht_module(nu)

    def fn(h):
        left = left_rep.matrix(tuple(h[i] for i in range(a)))
        right = right_rep.matrix(tuple(h[i] - a for i in range(a, a + b)))
        return tuple(tuple(x * y for x in ra for y in rb) for ra in left for rb in right)

    return MatrixRep(a + b, left_rep.dim * right_rep.dim, fn, domain=sub)


def test_induction_multiplicativity_matches_ring_product():
    # inducing the outer tensor of irreducibles up to S_(a+b) realizes the
    # Schur-basis product: ch(induced) = ch(left) * ch(right)
    from symfunc.ring import convert

    for a, b in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3), (4, 1)]:
        n = a + b
        for mu in partitions_of(a):
            for nu in partitions_of(b):
                ind = induce(outer_tensor_on_young(mu, nu), n)
                product = multiply(
                    basis_element("s", mu), basis_element("s", nu)
                )
                assert frobenius_ch(character_of(ind)) == product
                coeffs = convert(product, "s").terms
                assert decompose(ind) == {lam: int(c) for lam, c in coeffs.items()}


def test_direct_sum_and_tensor_fixtures():
    triv = classical_rep("trivial", 3)
    std = classical_rep("standard", 3)
    dsum = direct_sum(triv, std)
    assert character_of(dsum).values == character_of(
        classical_rep("defining", 3)
    ).values
    s21 = specht_module((2, 1))
    tp = tensor_product(s21, s21)
    assert character_of(tp).values == tuple(
        character((2, 1), mu) ** 2 for mu in partitions_of(3)
    )
    assert decompose(tp) == {(3,): 1, (2, 1): 1, (1, 1, 1): 1}
    # tensoring with the trivial representation changes nothing
    tpt = tensor_product(std, triv)
    assert character_of(tpt).values == character_of(std).values


def test_tensor_decomposition_matches_kronecker_to_4():
    for n in range(2, 5):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                tp = tensor_product(specht_module(mu), specht_module(nu))
                mults = decompose(tp)
                for lam in partitions_of(n):
                    assert mults.get(lam, 0) == kronecker(lam, mu, nu)


def test_square_class():
    assert square_class((2,)) == (1, 1)
    assert square_class((3,)) == (3,)
    assert square_class((4, 2, 1)) == (2, 2, 1, 1, 1)


def test_exterior_square_against_explicit_wedge_basis():
    # brute-force oracle: act on e_i ^ e_j for the defining representation
    for n in range(2, 6):
        rep = classical_rep("defining", n)
        chi = exterior_square_character(character_of(rep))
        pairs = list(combinations(range(1, n + 1), 2))

        def wedge_trace(w):
            tr = 0
            for (i, j) in pairs:
                a, b = w[i - 1], w[j - 1]
                if (a, b) == (i, j):
                    tr += 1
                elif (b, a) == (i, j):
                    tr -= 1
            return tr

        from symfunc.partitions import class_representative

        for mu in partitions_of(n):
            assert chi.value(mu) == wedge_trace(class_representative(mu))


def test_exterior_square_of_a_line_is_zero():
    chi = character_of(classical_rep("trivial", 4))
    sq = exterior_square_character(chi)
    assert all(v == 0 for v in sq.values)


def test_exterior_square_is_a_character():
    chi = character_of(classical_rep("defining", 5))
    sq = exterior_square_character(chi)
    norm = char_inner(sq, sq)
    assert norm.denominator == 1 and norm >= 0


def test_gl_character_and_dimension():
    poly = gl_character((2,), 2)
    assert poly.terms == {(2, 0): 1, (0, 2): 1, (1, 1): 1}
    assert gl_dimension((2,), 2) == 3
    for m in range(1, 6):
        for k in range(1, 6):
            assert gl_dimension((1,) * k, m) == comb(m, k)
    assert gl_dimension((1, 1, 1), 2) == 0
    assert gl_character((1, 1, 1), 2).is_zero()
    # dimension equals the character at all-ones
    for lam in partitions_of(4):
        for m in range(1, 5):
            assert sum(gl_character(lam, m).terms.values()) == gl_dimension(lam, m)


def test_gl_dimension_hook_content_matches_ssyt_count():
    for n in range(0, 7):
        for lam in partitions_of(n):
            for m in range(0, 7):
                assert gl_dimension(lam, m) == count_ssyt(lam, m), (lam, m)


def test_schur_weyl_fixtures():
    assert schur_weyl_check(3, 1)
    assert 2**2 == f_lambda((2,)) * gl_dimension((2,), 2) + f_lambda(
        (1, 1)
    ) * gl_dimension((1, 1), 2)
    assert sum(
        f_lambda(lam) * gl_dimension(lam, 3)
        for lam in partitions_of(4)
        if len(lam) <= 3
    ) == 81
    for n in range(7):
        for m in range(7):
            assert schur_weyl_check(n, m)


def test_specht_frobenius_cross_route_to_5():
    # the strongest oracle: explicit polynomial modules vs the Schur table
    # of ring, built by Murnaghan-Nakayama
    for n in range(1, 6):
        for lam in partitions_of(n):
            rep = specht_module(lam)
            assert frobenius_ch(character_of(rep)) == basis_element("s", lam)


def test_subgroup_spec_validation():
    with pytest.raises(ValueError):
        SubgroupSpec.from_elements(3, [(1, 2, 3), (2, 1, 3), (2, 3, 1)])
    with pytest.raises(ValueError):
        SubgroupSpec.from_elements(3, [(2, 1, 3)])
    sub = SubgroupSpec.young((2, 1))
    assert sub.order == 2
    assert (2, 1, 3) in sub


def test_young_subgroup_lists_the_block_preserving_words():
    """SubgroupSpec.young(c) lists, in lex order, exactly the words of S_n
    that map each block of c onto itself, for every composition of n <= 5."""
    count = 0
    for n in range(1, 6):
        for k in range(n):
            for cuts in combinations(range(1, n), k):
                bounds = list(zip((0, *cuts), (*cuts, n)))
                comp = tuple(b - a for a, b in bounds)
                keep = tuple(w for w in all_permutations(n)
                             if all(a < w[i] <= b for a, b in bounds for i in range(a, b)))
                assert SubgroupSpec.young(comp).elements == keep, comp
                count += 1
    assert count == 31
    assert SubgroupSpec.young(()).elements == ((),)


def test_young_basis_lists_every_tabloid_in_lex_order():
    """young_basis(lam) is the sorted list of tabloids of shape lam, read off
    every word of S_n cut into rows of lengths lam, for every lam |- n <= 5."""
    for n in range(6):
        for lam in partitions_of(n):
            bounds = [(sum(lam[:r]), sum(lam[:r + 1])) for r in range(len(lam))]
            brute = {tuple(tuple(sorted(w[a:b])) for a, b in bounds)
                     for w in all_permutations(n)}
            assert young_basis(lam) == sorted(brute), lam


def test_young_subgroups_compare_by_blocks():
    """Two Young subgroups are equal iff their blocks are: a tensor product
    of modules restricted to S_8 lists none of its 40,320 words. A Young
    subgroup equals, and hashes like, the same subgroup given by elements."""
    subs = [SubgroupSpec.young((8,)), SubgroupSpec.young((8,))]
    a, b = (restrict(classical_rep(k, 8), sub) for k, sub in zip(("defining", "sign"), subs))
    tp = tensor_product(a, b)
    assert tp.trace((2, 1) + tuple(range(3, 9))) == -6
    assert all("elements" not in vars(sub) for sub in subs)
    assert SubgroupSpec.young((1, 2)) != SubgroupSpec.young((2, 1))
    assert SubgroupSpec.young((2, 1)) != SubgroupSpec.young((2, 1, 1))
    listed = SubgroupSpec.from_elements(3, [(1, 2, 3), (2, 1, 3)])
    young = SubgroupSpec.young((2, 1))
    assert young == listed and listed == young and hash(young) == hash(listed)
    assert SubgroupSpec.young((1, 2)) != listed
    with pytest.raises(ValueError, match="domains differ"):
        tensor_product(a, restrict(classical_rep("sign", 8), SubgroupSpec.young((4, 4))))


def test_young_subgroup_order():
    for comp in [(2, 2), (3, 1), (1, 1, 1, 1), (4,)]:
        assert SubgroupSpec.young(comp).order == int(
            __import__("math").prod(factorial(c) for c in comp)
        )


def test_concurrent_matrix_calls_agree_and_each_runs_the_rule_once():
    """Concurrent matrix() calls agree, and every call runs the rule: a
    representation keeps no matrix."""
    base = specht_module((2, 2))
    calls = Counter()
    guard = threading.Lock()

    def counted(pi):
        with guard:
            calls[pi] += 1
        time.sleep(0.001)  # let the threads interleave
        return base.matrix(pi)

    rep = MatrixRep(4, base.dim, counted)
    perms = list(all_permutations(4))
    results = []
    errors = []

    def work():
        try:
            results.append([rep.matrix(pi) for pi in perms])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(results) == len(threads)
    assert all(r == results[0] for r in results)
    assert calls == Counter({pi: len(threads) for pi in perms})


@pytest.mark.parametrize("call, fragment", [
    (lambda: SubgroupSpec.from_elements(3, [(1, 2, 3), (1, 2)]), "is not a word of length 3"),
    (lambda: SubgroupSpec.from_elements(3, [(1, 2, 3), (2, 3, 1)]),
     "not closed under inverse at (2, 3, 1)"),
    (lambda: trivial_of(SubgroupSpec.young((2, 1))).generator_matrices(),
     "generator matrices only defined on full S_n"),
    (lambda: adjacent_transposition(3, 3), "s_3 is not a generator of S_3"),
    (lambda: adjacent_transposition(3, 0), "s_0 is not a generator of S_3"),
    (lambda: classical_rep("bogus", 3), "unknown classical representation 'bogus'"),
    (lambda: character_of(trivial_of(SubgroupSpec.young((2, 1)))),
     "character_of needs a full-S_n representation"),
    (lambda: induce(classical_rep("trivial", 3), 3),
     "induce needs a representation with a subgroup domain"),
    (lambda: induce(trivial_of(SubgroupSpec.young((2, 1))), 4), "same word degree"),
    (lambda: restrict(classical_rep("trivial", 3), SubgroupSpec.young((2, 2))),
     "subgroup degree differs from the representation's"),
    (lambda: restrict(trivial_of(SubgroupSpec.young((2, 1))), SubgroupSpec.young((1, 2))),
     "new domain is not a subgroup of the current one"),
], ids=["word-length", "inverse", "generators-on-subgroup", "generator-high", "generator-low",
        "classical-kind", "character-on-subgroup", "induce-full", "induce-degree",
        "restrict-degree", "restrict-not-subgroup"])
def test_outside_input_is_rejected_with_its_reason(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)


def test_no_multiplicity_above_the_ring_cap_reads_its_classes(monkeypatch):
    """decompose and kronecker check the coefficient and ring caps before
    reading the class sizes of their degree, so no ("classes", n) key lands
    above the ring cap."""
    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    rep = young_module((3, 2, 1))
    with limits.scoped(limits.Limits(ring=5)):
        with pytest.raises(DegreeCapError, match="transition tables are capped at n <= 5, got 6"):
            decompose(rep)
        with pytest.raises(DegreeCapError, match="transition tables are capped at n <= 5, got 6"):
            kronecker((3, 2, 1), (4, 2), (6,))
    assert [key for key in fresh._data if key[0] == "classes" and key[1] > 5] == []
    assert decompose(rep)[(3, 2, 1)] == 1
    assert ("classes", 6) in fresh._data
