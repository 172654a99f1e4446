import random
import threading
from fractions import Fraction
from itertools import product

import pytest

from symfunc import limits
from symfunc.errors import DegreeCapError
from symfunc.linalg import identity, mat_mul
from symfunc.partitions import conjugate, partitions_of, z_value
from symfunc.ring import (
    BASES,
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
    parse_sym_element,
    perp,
    skew_schur,
    sym_element,
    sym_from_json,
    sym_to_json,
    to_p_terms,
    zero,
)
from symfunc.tableaux import enumerate_ssyt, kostka, weight_monomial


def invert(a):
    """Inverse of a square matrix by Gauss-Jordan elimination: the
    independent oracle for the inverse transitions, which the package reads
    off the Hall dual's pairing table without solving anything."""
    d = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(a)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def random_element(rng, max_degree=6, nterms=3, basis=None):
    b = basis or rng.choice(BASES)
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        d = rng.randint(0, max_degree)
        parts = partitions_of(d)
        lam = parts[rng.randrange(len(parts))]
        terms[lam] = terms.get(lam, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return sym_element(b, terms)


def test_basis_element_fixtures():
    p2 = basis_element(P, (2,))
    assert to_p_terms(p2) == {(2,): 1}
    unit = basis_element(S, ())
    assert unit == one()
    h21 = basis_element(H, (2, 1))
    assert h21 == multiply(basis_element(H, (2,)), basis_element(H, (1,)))


def test_convert_schur_to_monomial_fixture():
    got = convert(basis_element(S, (2, 1)), M)
    assert got.terms == {(2, 1): Fraction(1), (1, 1, 1): Fraction(2)}


def test_convert_h_and_e_to_schur():
    # h_n is the one-row Schur function; e_n the one-column one.
    for n in range(1, 7):
        assert convert(basis_element(H, (n,)), S).terms == {(n,): Fraction(1)}
        assert convert(basis_element(S, (n,)), H).terms == {(n,): Fraction(1)}
        assert convert(basis_element(E, (n,)), S).terms == {(1,) * n: Fraction(1)}
        assert convert(basis_element(S, (1,) * n), E).terms == {(n,): Fraction(1)}


def test_schur_to_monomial_is_kostka():
    for n in range(9):
        for lam in partitions_of(n):
            expansion = convert(basis_element(S, lam), M).terms
            for mu in partitions_of(n):
                assert expansion.get(mu, 0) == kostka(lam, mu)


@pytest.mark.parametrize("basis", [M, E, H, S])
def test_from_p_tables_invert_to_p_tables(basis):
    """The inverse transition read off the Hall dual's pairing table agrees
    with Gauss-Jordan inversion of the forward table, and from_p_terms reads
    exactly that matrix."""
    from symfunc import ring

    for d in range(9):
        lams = partitions_of(d)
        table = ring._pairing(basis, d)
        forward = tuple(
            tuple(Fraction(table[lam].get(mu, 0), z_value(mu)) for lam in lams)
            for mu in lams
        )
        dual = ring._pairing(ring._DUAL[basis], d)
        sign = {mu: (-1) ** (d - len(mu)) if basis == E else 1 for mu in lams}
        inverse = tuple(
            tuple(Fraction(sign[mu] * dual[lam].get(mu, 0)) for mu in lams)
            for lam in lams
        )
        assert mat_mul(inverse, forward) == identity(len(lams))
        assert inverse == invert(forward)
        for j, mu in enumerate(lams):
            column = {lam: inverse[i][j] for i, lam in enumerate(lams) if inverse[i][j]}
            assert ring.from_p_terms(basis, {mu: Fraction(1)}).terms == column


def _murnaghan_nakayama(lam, mu):
    """chi^lam(mu) by removing border strips of length mu[0], on beta-sets:
    a strip of length k moves one bead from b to the free position b - k,
    with the sign (-1)^(beads strictly between)."""
    if not mu:
        return 1 if not lam else 0
    k, ell = mu[0], len(lam)
    beta = [p + ell - 1 - i for i, p in enumerate(lam)]
    total = 0
    for b in beta:
        if b - k < 0 or b - k in beta:
            continue
        sign = (-1) ** sum(1 for c in beta if b - k < c < b)
        moved = sorted([c for c in beta if c != b] + [b - k], reverse=True)
        nu = tuple(p for p in (c - (ell - 1 - i) for i, c in enumerate(moved)) if p)
        total += sign * _murnaghan_nakayama(nu, mu[1:])
    return total


def test_schur_pairing_table_is_murnaghan_nakayama():
    from symfunc import ring

    for n in range(1, 9):
        table = ring._pairing(S, n)
        for lam in partitions_of(n):
            chars = {mu: _murnaghan_nakayama(lam, mu) for mu in partitions_of(n)}
            assert table[lam] == {mu: v for mu, v in chars.items() if v}


def test_pairing_tables_are_integers_and_e_twists_h():
    from symfunc import ring

    for d in range(11):
        for basis in (M, E, H, S):
            table = ring._pairing(basis, d)
            assert tuple(table) == partitions_of(d)
            for row in table.values():
                assert all(type(v) is int and v for v in row.values())
        h_table = ring._pairing(H, d)
        assert ring._pairing(E, d) == {
            lam: {mu: (-1) ** (d - len(mu)) * c for mu, c in row.items()}
            for lam, row in h_table.items()
        }


def test_convert_roundtrips_mixed_degrees_and_large_denominators():
    terms = {
        (): Fraction(1, 10007),
        (2, 1): Fraction(3, 65537),
        (3, 3, 1): Fraction(-7, 3),
        (5,): Fraction(2),
        (1, 1, 1, 1, 1, 1): Fraction(5, 10007 * 65537),
    }
    for src in BASES:
        f = sym_element(src, terms)
        for dst in BASES:
            g = convert(f, dst)
            assert g.basis == dst and g.degrees() == f.degrees()
            assert convert(g, src).terms == f.terms
            assert convert(zero(src), dst).terms == {}


def test_convert_roundtrips():
    rng = random.Random(11)
    for _ in range(20):
        f = random_element(rng)
        for b in BASES:
            assert convert(convert(f, b), f.basis) == f


def test_multiply_power_sums_concatenate():
    f = multiply(basis_element(P, (3, 1)), basis_element(P, (2, 1)))
    assert f.terms == {(3, 2, 1, 1): Fraction(1)}


def test_multiply_s1_squared_via_inner_product_oracle():
    # <s_lam, s_1 s_1> computed directly in the p basis:
    # s_1 s_1 = p_1^2 = p_(1,1); s_2, s_11 = (p_2 +- p_11)/2.
    s1s1 = multiply(basis_element(S, (1,)), basis_element(S, (1,)))
    assert to_p_terms(s1s1) == {(1, 1): Fraction(1)}
    oracle_s2 = {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    oracle_s11 = {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    c2 = sum(c * oracle_s2.get(lam, 0) * z_value(lam) for lam, c in to_p_terms(s1s1).items())
    c11 = sum(c * oracle_s11.get(lam, 0) * z_value(lam) for lam, c in to_p_terms(s1s1).items())
    assert (c2, c11) == (1, 1)
    assert convert(s1s1, S).terms == {(2,): Fraction(1), (1, 1): Fraction(1)}


def test_multiply_h_row_fixture():
    # h_{n-1} h_1 = s_(n) + s_(n-1,1)
    for n in range(2, 8):
        prod = multiply(basis_element(H, (n - 1,)), basis_element(H, (1,)))
        assert convert(prod, S).terms == {(n,): Fraction(1), (n - 1, 1): Fraction(1)}


def test_multiply_is_commutative_associative_unital():
    rng = random.Random(23)
    for _ in range(8):
        f, g, h = (random_element(rng, max_degree=4) for _ in range(3))
        assert multiply(f, g) == multiply(g, f)
        assert multiply(f, multiply(g, h)) == multiply(multiply(f, g), h)
        assert multiply(f, one()) == f


def test_convert_is_a_ring_isomorphism_on_samples():
    rng = random.Random(31)
    for _ in range(6):
        f = random_element(rng, max_degree=3)
        g = random_element(rng, max_degree=3)
        fg = multiply(f, g)
        for b in BASES:
            lhs = convert(fg, b)
            rhs = convert(multiply(convert(f, b), convert(g, b)), b)
            assert lhs == rhs


def test_hall_inner_dual_pairs():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                delta = Fraction(int(lam == mu))
                assert hall_inner(basis_element(S, lam), basis_element(S, mu)) == delta
                assert hall_inner(basis_element(M, lam), basis_element(H, mu)) == delta
                assert hall_inner(
                    basis_element(P, lam), basis_element(P, mu)
                ) == delta * z_value(lam)


def test_hall_inner_symmetric_bilinear():
    rng = random.Random(41)
    for _ in range(10):
        f, g, h = (random_element(rng, max_degree=5) for _ in range(3))
        assert hall_inner(f, g) == hall_inner(g, f)
        assert hall_inner(f + g, h) == hall_inner(f, h) + hall_inner(g, h)
        assert hall_inner(3 * f, h) == 3 * hall_inner(f, h)


def test_omega_fixtures_and_isometry():
    for n in range(1, 13):
        assert omega(basis_element(E, (n,))) == basis_element(H, (n,))
        assert omega(basis_element(H, (n,))) == basis_element(E, (n,))
    rng = random.Random(43)
    for _ in range(8):
        f = random_element(rng, max_degree=5)
        g = random_element(rng, max_degree=5)
        assert omega(omega(f)) == f
        assert hall_inner(omega(f), omega(g)) == hall_inner(f, g)


def test_omega_transposes_schur_to_degree_8():
    for n in range(9):
        for lam in partitions_of(n):
            assert omega(basis_element(S, lam)) == basis_element(S, conjugate(lam))


def test_e_h_alternating_recurrence_to_12():
    # sum_{i+j=k} (-1)^i e_i h_j = 0, the coefficient form of E(t)H(t)=1
    for k in range(1, 13):
        acc = zero()
        for i in range(0, k + 1):
            term = multiply(
                basis_element(E, (i,) if i else ()),
                basis_element(H, (k - i,) if k - i else ()),
            )
            acc = acc + ((-1) ** i) * term
        assert acc.is_zero()


def test_newton_identities_to_12():
    # coefficient forms of P(t) = H'(t)/H(t) and P(-t) = E'(t)/E(t):
    # k h_k = sum_{i=1..k} p_i h_{k-i},  k e_k = sum (-1)^{i-1} p_i e_{k-i}
    for k in range(1, 13):
        lhs_h = k * basis_element(H, (k,))
        rhs_h = zero()
        lhs_e = k * basis_element(E, (k,))
        rhs_e = zero()
        for i in range(1, k + 1):
            rest = (k - i,) if k - i else ()
            rhs_h = rhs_h + multiply(basis_element(P, (i,)), basis_element(H, rest))
            rhs_e = rhs_e + ((-1) ** (i - 1)) * multiply(
                basis_element(P, (i,)), basis_element(E, rest)
            )
        assert lhs_h == rhs_h
        assert lhs_e == rhs_e


def test_h_and_e_power_sum_expansions_to_12():
    for n in range(1, 13):
        h_exp = to_p_terms(basis_element(H, (n,)))
        e_exp = to_p_terms(basis_element(E, (n,)))
        assert h_exp == {lam: Fraction(1, z_value(lam)) for lam in partitions_of(n)}
        assert e_exp == {
            lam: Fraction((-1) ** (n + len(lam)), z_value(lam))
            for lam in partitions_of(n)
        }


def test_h_is_sum_of_all_monomials():
    # independent route: h_n = sum of m_lam over lam |- n, checked through
    # the monomial conversion and by brute evaluation
    for n in range(1, 9):
        hm = convert(basis_element(H, (n,)), M)
        assert hm.terms == {lam: Fraction(1) for lam in partitions_of(n)}
    poly = evaluate(basis_element(H, (3,)), 3)
    monoms = {
        (a, b, c)
        for a in range(4)
        for b in range(4)
        for c in range(4)
        if a + b + c == 3
    }
    assert set(poly.terms) == monoms
    assert all(v == 1 for v in poly.terms.values())


def test_skew_schur_fixtures():
    sk = skew_schur((2, 1), (1,))
    assert sk.terms == {(2,): Fraction(1), (1, 1): Fraction(1)}
    assert sk == multiply(basis_element(H, (1,)), basis_element(H, (1,)))
    assert skew_schur((3, 2, 1), ()) == basis_element(S, (3, 2, 1))
    assert skew_schur((2, 2), (2, 2)) == one(S)
    assert skew_schur((2, 1), (3,)).is_zero()


def test_perp_fixtures_and_adjointness():
    assert perp((1,), basis_element(S, (2, 1))).terms == {
        (2,): Fraction(1),
        (1, 1): Fraction(1),
    }
    assert perp((2, 2), basis_element(S, (2, 1))).is_zero()
    rng = random.Random(53)
    for _ in range(6):
        f = random_element(rng, max_degree=5)
        assert perp((), f) == f
    for _ in range(12):
        d = rng.randint(0, 3)
        mus = partitions_of(d)
        mu = mus[rng.randrange(len(mus))]
        f = random_element(rng, max_degree=5)
        g = random_element(rng, max_degree=5)
        smu = basis_element(S, mu)
        assert hall_inner(multiply(smu, g), f) == hall_inner(g, perp(mu, f))


def test_evaluate_fixtures():
    e2 = evaluate(basis_element(E, (2,)), 3)
    assert e2.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    h2 = evaluate(basis_element(H, (2,)), 3)
    assert h2.terms == {
        (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
        (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1,
    }
    p2 = evaluate(basis_element(P, (2,)), 3)
    assert p2.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    assert evaluate(basis_element(S, (1, 1, 1)), 2).is_zero()


def test_evaluate_schur_matches_tableau_weights():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for m in range(1, 4):
                poly = evaluate(basis_element(S, lam), m)
                expected = {}
                for t in enumerate_ssyt(lam, m):
                    w = weight_monomial(t)
                    key = tuple(w.get(i, 0) for i in range(1, m + 1))
                    expected[key] = expected.get(key, 0) + 1
                assert {k: int(v) for k, v in poly.terms.items()} == expected


def test_evaluate_is_multiplicative():
    rng = random.Random(61)
    for _ in range(6):
        f = random_element(rng, max_degree=5)
        g = random_element(rng, max_degree=5)
        for m in range(5):
            assert evaluate(multiply(f, g), m) == evaluate(f, m) * evaluate(g, m)


def test_semantic_equality_across_bases():
    h2 = basis_element(H, (2,))
    as_p = sym_element(P, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert h2 == as_p
    assert h2 != basis_element(E, (2,))


def test_no_zero_terms_are_stored():
    f = sym_element(S, {(2, 1): 0, (3,): 1})
    assert (3,) in f.terms and (2, 1) not in f.terms
    g = f - basis_element(S, (3,))
    assert g.is_zero()


def test_json_roundtrip():
    f = sym_element(S, {(2, 1): Fraction(1), (1, 1, 1): Fraction(-3, 2)})
    obj = sym_to_json(f)
    assert obj == {
        "basis": "s",
        "terms": [
            {"partition": [2, 1], "coeff": "1"},
            {"partition": [1, 1, 1], "coeff": "-3/2"},
        ],
    }
    assert sym_from_json(obj) == f


def test_parse_sym_element():
    assert parse_sym_element("s:1*2,1") == basis_element(S, (2, 1))
    f = parse_sym_element("p:1/2*2+-1/2*1,1")
    assert f.terms == {(2,): Fraction(1, 2), (1, 1): Fraction(-1, 2)}
    assert parse_sym_element("h:3") == basis_element(H, (3,))
    with pytest.raises(ValueError):
        parse_sym_element("x:1*2")
    with pytest.raises(ValueError):
        parse_sym_element("s")


def test_degree_cap_enforced():
    with limits.scoped(limits.Limits(ring=5)):
        with pytest.raises(DegreeCapError, match="--max-degree or symfunc.limits"):
            convert(basis_element(S, (4, 2)), M)


def test_transition_cache_concurrent_and_once():
    """Concurrent conversions at a fresh degree agree and compute the
    per-degree table exactly once."""
    from symfunc import ring

    # degree 11 in the monomial basis is unlikely to be warmed by other tests
    key = ("pairing", M, 11)
    ring._cache.compute_counts.pop(key, None)
    ring._cache._data.pop(key, None)
    results = []
    errors = []

    def work():
        try:
            results.append(convert(basis_element(M, (6, 3, 2)), P))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r == results[0] for r in results)
    assert ring._cache.compute_counts.get(key) == 1
