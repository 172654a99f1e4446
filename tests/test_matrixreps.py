import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from symfunc import limits, matrixreps
from symfunc.characters import (
    char_inner,
    character,
    character_row,
    class_function,
    frobenius_ch,
    irreducible_character,
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
    lex_transversal,
    restrict,
    schur_weyl_check,
    sign_of,
    specht_module,
    specht_polynomial,
    square_class,
    subgroup_char_inner,
    tensor_product,
    trivial_of,
    verify_generator_relations,
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
)
from symfunc.ring import basis_element, evaluate, multiply
from symfunc.tableaux import count_ssyt, f_lambda, standard_tableaux

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
    for n in range(1, 6):
        for lam in partitions_of(n):
            rep = specht_module(lam)
            assert rep.dim == f_lambda(lam)
            got = character_of(rep)
            assert got.values == tuple(
                character(lam, mu) for mu in partitions_of(n)
            )


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


def test_specht_straightening_keeps_the_span_check(monkeypatch):
    # in T = 12/3 the letters 1 and 2 share a row, so s_1 . F_T is the one
    # straightened polynomial of S^(2,1); a stray monomial in F_T must make
    # it leave the span, while s_2 reads no polynomial at all
    real = matrixreps.specht_polynomial

    def corrupted(tab):
        poly = real(tab)
        if tab.rows == ((1, 2), (3,)):
            poly[(0, 5, 0)] = 1
        return poly

    want = specht_module((2, 1)).matrix((1, 3, 2))
    monkeypatch.setattr(matrixreps, "specht_polynomial", corrupted)
    rep = specht_module((2, 1))
    assert rep.matrix((1, 3, 2)) == want
    with pytest.raises(InvariantViolationError, match="left the span"):
        rep.matrix((2, 1, 3))


def test_concurrent_specht_matrices_build_each_generator_once(monkeypatch):
    lam, n = (3, 2), 5
    rng = random.Random(17)
    perms = [adjacent_transposition(n, i) for i in range(1, n)]
    perms += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(6)]
    want = [specht_module(lam).matrix(pi) for pi in perms]
    built, polys = Counter(), Counter()
    guard = threading.Lock()
    real_generator, real_polynomial = matrixreps._natural_generator, specht_polynomial

    def generator(i, *args):
        with guard:
            built[i] += 1
        time.sleep(0.001)  # let the threads race for the same generator
        return real_generator(i, *args)

    def polynomial(tab):
        with guard:
            polys[tab.rows] += 1
        return real_polynomial(tab)

    monkeypatch.setattr(matrixreps, "_natural_generator", generator)
    monkeypatch.setattr(matrixreps, "specht_polynomial", polynomial)
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
    assert polys == Counter(t.rows for t in standard_tableaux(lam))


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
        assert verify_generator_relations(rep), rep.label
    with limits.scoped(limits.current().raised(7)):
        for n in (6, 7):
            for lam in partitions_of(n):
                assert verify_generator_relations(specht_module(lam)), lam


def test_matrix_map_is_a_homomorphism():
    rng = random.Random(311)
    from symfunc.linalg import mat_mul

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
            assert rep.matrix(compose(p, q)) == mat_mul(rep.matrix(p), rep.matrix(q))
            assert all(type(x) is int for row in rep.matrix(p) for x in row)
            assert type(rep.trace(p)) is int


def test_large_permutation_modules_act_homomorphically():
    # regular S_5 is 120x120: check the underlying action instead of
    # multiplying dense matrices
    rng = random.Random(313)
    reg = classical_rep("regular", 5)
    basis = list(all_permutations(5))
    for _ in range(20):
        p = tuple(rng.sample(range(1, 6), 5))
        q = tuple(rng.sample(range(1, 6), 5))
        for h in rng.sample(basis, 8):
            assert compose(compose(p, q), h) == compose(p, compose(q, h))


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
        m = char_inner(chi, irreducible_character(lam))
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
        for pi in rep.elements():
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
    t1 = lex_transversal(sub)
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
    most 3 parts."""
    count = 0
    for n in range(1, 8):
        for r in (1, 2, 3):
            for comp in product(range(1, n + 1), repeat=r):
                if sum(comp) != n:
                    continue
                brute = [(cls[0], len(cls)) for cls in SubgroupSpec.young(comp).conjugacy_classes()]
                assert young_classes(comp) == brute, comp
                count += 1
    assert count == 63
    with pytest.raises(ValueError):
        young_classes((2, 0))


def test_frobenius_reciprocity_young_subgroups_of_s4():
    for comp in partitions_of(4):
        sub = SubgroupSpec.young(comp)
        for base_maker in (trivial_of, sign_of):
            y = base_maker(sub)
            ind_chi = character_of(induce(y, 4))
            for lam in partitions_of(4):
                chi = irreducible_character(lam)
                lhs = char_inner(ind_chi, chi)
                rhs = subgroup_char_inner(
                    sub,
                    lambda h: y.matrix(h)[0][0],
                    lambda h: character(lam, cycle_type(h)),
                )
                assert lhs == rhs


def outer_tensor_on_young(mu, nu):
    """The genuine outer tensor S^mu x S^nu as a matrix representation of
    the Young subgroup S_a x S_b."""
    a, b = sum(mu), sum(nu)
    sub = SubgroupSpec.young((a, b))
    left_rep = specht_module(mu)
    right_rep = specht_module(nu)
    from symfunc.linalg import kron as _kron

    def fn(h):
        left = tuple(h[i] for i in range(a))
        right = tuple(h[i] - a for i in range(a, a + b))
        return _kron(left_rep.matrix(left), right_rep.matrix(right))

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
            assert gl_character(lam, m).at_ones() == gl_dimension(lam, m)


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
