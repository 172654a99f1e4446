"""Acceptance suite: one test per criterion, exact equality throughout
(tolerance zero), with the stated runtime bounds asserted.

Run under pytest (`pytest tests/test_acceptance.py -v`), or directly
(`python tests/test_acceptance.py`) to get one PASS/FAIL line per
criterion on stdout.
"""

import os
import random
import sys
import time
from fractions import Fraction
from itertools import permutations as iterperms, product
from math import factorial

try:
    import symfunc  # noqa: F401
except ModuleNotFoundError:  # direct `python tests/test_acceptance.py` run
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from symfunc.characters import (
    char_inner,
    character,
    character_row,
    frobenius_ch,
    irreducible_character,
    kronecker,
    kronecker_product,
    littlewood_richardson,
    youngs_rule,
)
from symfunc.hopf import (
    antipode,
    cauchy_kernel,
    coproduct_prod,
    coproduct_sum,
    counit,
    plethysm,
    tensor_convert,
    tensor_inner,
)
from symfunc.matrixreps import (
    SubgroupSpec,
    character_of,
    decompose,
    gl_dimension,
    induce,
    restrict,
    schur_weyl_check,
    sign_of,
    specht_module,
    subgroup_char_inner,
    tensor_product,
    trivial_of,
    young_module,
)
from symfunc.partitions import (
    conjugate,
    cycle_type,
    partitions_of,
    z_value,
)
from symfunc.ring import (
    E,
    H,
    M,
    P,
    S,
    basis_element,
    convert,
    evaluate,
    hall_inner,
    multiply,
    omega,
    one,
    skew_schur,
    sym_element,
    to_p_terms,
    zero,
)
from symfunc.tableaux import (
    count_ssyt,
    enumerate_ssyt,
    f_lambda,
    kostka,
    rsk,
    rsk_inverse,
)

from plethysm_oracle import plethysm_alphabet_oracle

YOUNG_RULE_321 = {
    (3, 2, 1): 1,
    (3, 3): 1,
    (4, 2): 2,
    (4, 1, 1): 1,
    (5, 1): 2,
    (6,): 1,
}


def _timed(bound_seconds):
    def deco(fn):
        def wrapper():
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            assert elapsed < bound_seconds, (
                f"{fn.__name__} took {elapsed:.2f}s, bound {bound_seconds}s"
            )
            print(f"ACCEPTANCE {fn.__name__[5:]}: PASS ({elapsed:.2f}s)")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


@_timed(1.0)
def test_c01_kostka_fixture():
    assert kostka((3, 2), (2, 2, 1)) == 2
    tabs = [t.to_lists() for t in enumerate_ssyt((3, 2), 3, (2, 2, 1))]
    assert tabs == [[[1, 1, 2], [2, 3]], [[1, 1, 3], [2, 2]]]


@_timed(30.0)
def test_c02_youngs_rule_golden():
    assert decompose(young_module((3, 2, 1))) == YOUNG_RULE_321
    assert youngs_rule((3, 2, 1)) == YOUNG_RULE_321


@_timed(60.0)
def test_c03_schur_and_skew_fixtures():
    got = convert(basis_element(S, (2, 1)), M)
    assert got.terms == {(2, 1): Fraction(1), (1, 1, 1): Fraction(2)}
    sk = convert(skew_schur((2, 1), (1,)), H)
    h1sq = convert(
        multiply(basis_element(H, (1,)), basis_element(H, (1,))), H
    )
    assert sk == h1sq
    assert sk.terms == {(1, 1): Fraction(1)}


@_timed(60.0)
def test_c04_identity_suites_to_degree_12():
    def h_or_1(k):
        return basis_element(H, (k,) if k else ())

    def e_or_1(k):
        return basis_element(E, (k,) if k else ())

    for k in range(1, 13):
        acc = zero()
        for i in range(0, k + 1):
            acc = acc + ((-1) ** i) * multiply(e_or_1(i), h_or_1(k - i))
        assert acc.is_zero()
        # Newton, coefficient forms of P = H'/H and P(-t) = E'/E
        rhs_h = zero()
        rhs_e = zero()
        for i in range(1, k + 1):
            rhs_h = rhs_h + multiply(basis_element(P, (i,)), h_or_1(k - i))
            rhs_e = rhs_e + ((-1) ** (i - 1)) * multiply(
                basis_element(P, (i,)), e_or_1(k - i)
            )
        assert k * basis_element(H, (k,)) == rhs_h
        assert k * basis_element(E, (k,)) == rhs_e
    for n in range(1, 13):
        assert to_p_terms(basis_element(H, (n,))) == {
            lam: Fraction(1, z_value(lam)) for lam in partitions_of(n)
        }
        assert to_p_terms(basis_element(E, (n,))) == {
            lam: Fraction((-1) ** (n + len(lam)), z_value(lam))
            for lam in partitions_of(n)
        }
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert omega(basis_element(S, lam)) == basis_element(S, conjugate(lam))


@_timed(120.0)
def test_c05_character_machinery_to_8():
    for n in range(1, 9):
        parts = partitions_of(n)
        rows = {lam: character_row(lam) for lam in parts}
        for lam in parts:
            for nu in parts:
                total = sum(
                    Fraction(rows[lam][mu] * rows[nu][mu], z_value(mu)) for mu in parts
                )
                assert total == (1 if lam == nu else 0)
        for mu in parts:
            for rho in parts:
                total = sum(rows[lam][mu] * rows[lam][rho] for lam in parts)
                assert total == (z_value(mu) if mu == rho else 0)
        for lam in parts:
            assert rows[lam][(1,) * n] == f_lambda(lam)
        assert sum(rows[lam][(1,) * n] ** 2 for lam in parts) == factorial(n)


@_timed(60.0)
def test_c06_specht_frobenius_cross_route():
    for n in range(1, 6):
        for lam in partitions_of(n):
            rep = specht_module(lam)
            assert rep.dim == f_lambda(lam)
            assert frobenius_ch(character_of(rep)) == basis_element(S, lam)


@_timed(60.0)
def test_c07_induction_fixtures():
    sub = SubgroupSpec.from_elements(3, [(1, 2, 3), (1, 3, 2)])
    ind = induce(
        trivial_of(sub), 3, transversal=[(1, 2, 3), (2, 1, 3), (3, 2, 1)]
    )
    assert ind.matrix((2, 1, 3)) == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    chi = character_of(ind)
    assert [chi.value(mu) for mu in [(1, 1, 1), (2, 1), (3,)]] == [3, 1, 0]
    # Frobenius reciprocity over every (Young subgroup of S_4, irreducible)
    for comp in partitions_of(4):
        h = SubgroupSpec.young(comp)
        for maker in (trivial_of, sign_of):
            y = maker(h)
            ind_chi = character_of(induce(y, 4))
            for lam in partitions_of(4):
                lhs = char_inner(ind_chi, irreducible_character(lam))
                rhs = subgroup_char_inner(
                    h,
                    lambda g: y.matrix(g)[0][0],
                    lambda g: character(lam, cycle_type(g)),
                )
                assert lhs == rhs


@_timed(60.0)
def test_c08_coefficient_symmetry_and_consistency():
    for n in range(0, 6):
        for lam in partitions_of(n):
            for k in range(0, n + 1):
                for mu in partitions_of(k):
                    sk = skew_schur(lam, mu)
                    for nu in partitions_of(n - k):
                        c = littlewood_richardson(lam, mu, nu)
                        assert c == littlewood_richardson(lam, nu, mu)
                        assert c == hall_inner(sk, basis_element(S, nu))
    for n in range(1, 6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                assert kronecker(lam, mu, (n,)) == int(lam == mu)
                for nu in parts:
                    base = kronecker(lam, mu, nu)
                    for a, b, c in iterperms((lam, mu, nu)):
                        assert kronecker(a, b, c) == base
    for n in range(1, 5):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                mults = decompose(tensor_product(specht_module(mu), specht_module(nu)))
                for lam in partitions_of(n):
                    assert mults.get(lam, 0) == kronecker(lam, mu, nu)


@_timed(120.0)
def test_c09_hopf_suite():
    for n in range(1, 9):
        assert coproduct_sum(basis_element(P, (n,))).terms == {
            ((n,), ()): Fraction(1),
            ((), (n,)): Fraction(1),
        }
        dh = tensor_convert(coproduct_sum(basis_element(H, (n,))), (H, H))
        assert dh.terms == {
            ((k,) if k else (), (n - k,) if n - k else ()): Fraction(1)
            for k in range(n + 1)
        }
        assert coproduct_prod(basis_element(P, (n,))).terms == {
            ((n,), (n,)): Fraction(1)
        }
        dsh = tensor_convert(coproduct_prod(basis_element(H, (n,))), (S, S))
        assert dsh.terms == {(lam, lam): Fraction(1) for lam in partitions_of(n)}
        dse = tensor_convert(coproduct_prod(basis_element(E, (n,))), (S, S))
        assert dse.terms == {
            (lam, conjugate(lam)): Fraction(1) for lam in partitions_of(n)
        }
        # antipode axiom on h_n
        acc = sym_element(P, {})
        for (a, b), c in coproduct_sum(basis_element(H, (n,))).terms.items():
            acc = acc + c * multiply(
                basis_element(P, a), antipode(basis_element(P, b))
            )
        assert acc == counit(basis_element(H, (n,))) * one()
        # Cauchy kernel diagonals
        assert cauchy_kernel(n, (S, S)).terms == {
            (lam, lam): Fraction(1) for lam in partitions_of(n)
        }
        assert cauchy_kernel(n, (H, M)).terms == {
            (lam, lam): Fraction(1) for lam in partitions_of(n)
        }
    # 100 random degree-<=6 triples for both adjointness statements
    rng = random.Random(2024)
    bases = (M, E, H, P, S)

    def rand_hom(degree):
        parts = partitions_of(degree)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            lam = parts[rng.randrange(len(parts))]
            terms[lam] = terms.get(lam, 0) + Fraction(
                rng.randint(-3, 3), rng.randint(1, 2)
            )
        return sym_element(bases[rng.randrange(5)], terms)

    for _ in range(100):
        df = rng.randint(0, 6)
        f = rand_hom(df)
        dg = rng.randint(0, df)
        g = rand_hom(dg)
        h = rand_hom(df - dg if rng.random() < 0.8 else rng.randint(0, 6))
        assert tensor_inner(coproduct_sum(f), g, h) == hall_inner(f, multiply(g, h))
        assert tensor_inner(coproduct_prod(f), g, h) == hall_inner(
            f, kronecker_product(g, h)
        )


@_timed(60.0)
def test_c10_plethysm():
    for n in range(1, 5):
        for m in range(1, 5):
            assert plethysm(
                basis_element(P, (n,)), basis_element(P, (m,))
            ) == basis_element(P, (n * m,))
    cases = [
        (basis_element(H, (2,)), basis_element(H, (2,))),
        (basis_element(E, (2,)), basis_element(E, (2,))),
        (basis_element(H, (3,)), basis_element(H, (2,))),
    ]
    for f, g in cases:
        composed = plethysm(f, g)
        for nvars in range(1, 5):
            assert evaluate(composed, nvars) == plethysm_alphabet_oracle(f, g, nvars)
    gens = [basis_element(P, (i,)) for i in (1, 2, 3)]
    for f in gens:
        for g in gens:
            for h in gens:
                if f.degree() * g.degree() * h.degree() <= 8:
                    assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))


@_timed(120.0)
def test_c11_rsk_and_schur_weyl():
    for m in range(1, 5):
        for n in range(0, 5):
            seen = set()
            for word in product(range(1, m + 1), repeat=n):
                p, q = rsk(word)
                assert rsk_inverse(p, q) == word
                key = (tuple(p.rows), tuple(q.rows))
                assert key not in seen
                seen.add(key)
            assert len(seen) == m**n
    for m in range(1, 6):
        for n in range(0, 6):
            assert (
                sum(
                    f_lambda(lam) * count_ssyt(lam, m)
                    for lam in partitions_of(n)
                    if len(lam) <= m
                )
                == m**n
            )
    for n in range(0, 7):
        for m in range(0, 7):
            assert schur_weyl_check(n, m)


@_timed(60.0)
def test_c12_cli_determinism():
    import io
    from contextlib import redirect_stdout

    from symfunc.cli import main as cli_main

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0
        return buf.getvalue().encode()

    import os

    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    for argv, fname in [
        (["chartable", "5"], "chartable5.txt"),
        (["youngs-rule", "3,2,1"], "youngs_rule_321.txt"),
        (["kostka", "3,2", "2,2,1"], "kostka_32_221.txt"),
    ]:
        first = capture(argv)
        second = capture(argv)
        with open(os.path.join(golden_dir, fname), "rb") as fh:
            frozen = fh.read()
        assert first == second == frozen


ALL_CRITERIA = [
    test_c01_kostka_fixture,
    test_c02_youngs_rule_golden,
    test_c03_schur_and_skew_fixtures,
    test_c04_identity_suites_to_degree_12,
    test_c05_character_machinery_to_8,
    test_c06_specht_frobenius_cross_route,
    test_c07_induction_fixtures,
    test_c08_coefficient_symmetry_and_consistency,
    test_c09_hopf_suite,
    test_c10_plethysm,
    test_c11_rsk_and_schur_weyl,
    test_c12_cli_determinism,
]


if __name__ == "__main__":
    failures = 0
    for crit in ALL_CRITERIA:
        try:
            crit()
        except Exception as exc:  # keep going and report every criterion
            failures += 1
            print(f"ACCEPTANCE {crit.__name__[5:]}: FAIL ({exc})")
    sys.exit(1 if failures else 0)
