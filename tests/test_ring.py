import importlib.util
import json
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pairing_digest
import pytest

from symfunc import limits
from symfunc.errors import DegreeCapError, InvariantViolationError
from symfunc.partitions import conjugate, count_of_type, partition_ranks, partitions_of, z_value
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
    parse_coeff,
    parse_sym_element,
    perp,
    skew_schur,
    sym_element,
    sym_to_json,
    zero,
)
from symfunc.tableaux import enumerate_ssyt, kostka

_spec = importlib.util.spec_from_file_location(
    "matrix_oracles", Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
)
O = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(O)

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
    assert convert(p2, P).terms == {(2,): 1}
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


def _e_table(d):
    """A_e[lam][mu] = <e_lam, p_mu>, which the package does not store: the
    eps twist of the h table, since e_lam = omega(h_lam)."""
    from symfunc import ring

    return tuple(
        tuple((-1) ** (d - len(mu)) * c for mu, c in zip(partitions_of(d), row))
        for row in ring._pairing(H, d)
    )


@pytest.mark.parametrize("basis", [M, E, H, S])
def test_from_p_tables_invert_to_p_tables(basis):
    """The inverse transition read off the Hall dual's pairing table agrees
    with Gauss-Jordan inversion of the forward table, and convert out of p
    reads exactly that matrix."""
    from symfunc import ring

    for d in range(9):
        lams = partitions_of(d)
        table = _e_table(d) if basis == E else ring._pairing(basis, d)
        forward = tuple(
            tuple(Fraction(row[j], z_value(mu)) for row in table)
            for j, mu in enumerate(lams)
        )
        dual = ring._pairing(ring._DUAL[basis], d)
        sign = [(-1) ** (d - len(mu)) if basis == E else 1 for mu in lams]
        inverse = tuple(tuple(Fraction(e * c) for e, c in zip(sign, row)) for row in dual)
        assert O.same_matrix(O.mat_mul(inverse, forward), O.identity(len(lams)))
        assert inverse == invert(forward)
        for j, mu in enumerate(lams):
            column = {lam: inverse[i][j] for i, lam in enumerate(lams) if inverse[i][j]}
            assert convert(sym_element(P, {mu: Fraction(1)}), basis).terms == column


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
        for lam, row in zip(partitions_of(n), table, strict=True):
            assert row == tuple(_murnaghan_nakayama(lam, mu) for mu in partitions_of(n))


def _jacobi_trudi_h(lam):
    """The Schur function in the h basis, as the determinant
    det(h_{lambda_i - i + j}) expanded row by row over column subsets."""
    from symfunc import ring

    ell = len(lam)
    if ell == 0:
        return {(): 1}
    state = {0: {(): 1}}
    for i in range(ell):
        nxt = {}
        for mask, exp in state.items():
            for j in range(ell):
                bit = 1 << j
                if mask & bit:
                    continue
                k = lam[i] - i + j
                if k < 0:
                    continue
                sgn = -1 if (i + bin(mask & (bit - 1)).count("1")) % 2 else 1
                row = exp if k == 0 else {
                    tuple(sorted(mu + (k,), reverse=True)): c for mu, c in exp.items()
                }
                ring._add_scaled(nxt.setdefault(mask | bit, {}), sgn, row)
        state = nxt
    (expansion,) = state.values()
    return expansion


def test_schur_pairing_table_is_jacobi_trudi_over_h():
    """Every row of the Schur table, built by border strips from smaller s
    rows, equals its Jacobi-Trudi determinant summed over the h table. A
    shape with more rows than columns takes the dual form
    s_lam = det(e_(lam'_i - i + j)) over the e table, whose determinant is
    the smaller one."""
    from symfunc import ring

    for d in range(13):
        h_table, e_table = ring._pairing(H, d), _e_table(d)
        for lam, row in zip(partitions_of(d), ring._pairing(S, d), strict=True):
            conj = conjugate(lam)
            shape, table = (lam, h_table) if len(lam) <= len(conj) else (conj, e_table)
            expected = [0] * len(row)
            for nu, c in _jacobi_trudi_h(shape).items():
                nu_row = table[partition_ranks(d)[nu]]
                expected = [a + c * b for a, b in zip(expected, nu_row, strict=True)]
            assert row == tuple(expected), lam


def test_pairing_tables_are_integers_and_e_twists_h():
    """h, s and m each keep one integer table, a tuple of dense rows in
    partitions_of(d) order on both axes; e keeps none, and its power sums
    are omega of those of h."""
    from symfunc import ring

    for d in range(11):
        for basis in (M, H, S):
            table = ring._pairing(basis, d)
            assert type(table) is tuple and len(table) == len(partitions_of(d))
            for row in table:
                assert type(row) is tuple and len(row) == len(partitions_of(d)) and any(row)
                assert all(type(v) is int for v in row)
        for lam in partitions_of(d):
            assert convert(basis_element(E, lam), P).terms == {
                mu: (-1) ** (d - len(mu)) * c
                for mu, c in convert(basis_element(H, lam), P).terms.items()
            }
    with pytest.raises(ValueError, match="no pairing table"):
        ring._pairing(E, 3)


def test_pairing_tables_match_the_pinned_digests(monkeypatch):
    """Every h, s and m table of degree <= 16, built cold, hashes to the
    digest pinned in tests/golden/pairing_tables.json, which
    tests/pairing_digest.py prints."""
    from symfunc import ring

    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    path = Path(__file__).resolve().parent / "golden" / "pairing_tables.json"
    text = path.read_text()
    got = pairing_digest.digests()
    assert len(got) == 3 * 17
    assert got == json.loads(text)
    assert pairing_digest.render(got) == text


def test_convert_builds_one_fraction_per_output_coefficient(monkeypatch):
    """The kernels hand power sums to each other as integers over one
    denominator: converting a dense degree-10 element whose tables are
    built constructs one Fraction per coefficient of the result and no
    other."""
    from symfunc import ring

    rng = random.Random(10)
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    for src, dst in product(BASES, BASES):
        if src == dst:
            continue
        terms = {lam: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for lam in partitions_of(10)}
        f = sym_element(src, terms)
        expected = convert(f, dst)
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(ring, "Fraction", counted)
            out = convert(f, dst)
        assert out.terms == expected.terms
        assert len(built) == len(out.terms), (src, dst)


def test_clear_equals_the_three_read_form():
    """_clear, which takes one integer ratio per value, gives the same
    (D, nums) as reading the denominator for the lcm, then the numerator and
    the denominator again, on Fractions and ints of either sign."""
    from math import lcm

    from symfunc import ring

    def three_reads(terms):
        den = 1
        for c in terms.values():
            if den % c.denominator:
                den = lcm(den, c.denominator)
        return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}

    rng = random.Random(39)
    cases = [{}, {(): Fraction(-4)}, {(1,): 3, (2,): Fraction(-5, 6)}]
    for _ in range(200):
        cases.append({lam: Fraction(rng.randint(-30, 30) or 1, rng.choice([1, 1, 2, 6, 9, 10007]))
                      for lam in rng.sample(partitions_of(6), rng.randint(1, 11))})
    for terms in cases:
        den, nums = ring._clear(terms)
        assert (den, nums) == three_reads(terms)
        assert list(nums) == list(terms) and all(type(n) is int for n in nums.values())


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
    assert convert(s1s1, P).terms == {(1, 1): Fraction(1)}
    oracle_s2 = {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    oracle_s11 = {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    c2 = sum(c * oracle_s2.get(lam, 0) * z_value(lam) for lam, c in convert(s1s1, P).terms.items())
    c11 = sum(c * oracle_s11.get(lam, 0) * z_value(lam) for lam, c in convert(s1s1, P).terms.items())
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
        h_exp = convert(basis_element(H, (n,)), P).terms
        e_exp = convert(basis_element(E, (n,)), P).terms
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


def test_skew_schur_is_perp_of_s_lam_to_9():
    """The LR-tableau count against the p route, s_mu^perp s_lam through the
    power sums, for every mu of every degree and every lam |- n <= 9."""
    for n in range(10):
        for lam in partitions_of(n):
            s_lam = basis_element(S, lam)
            for m in range(n + 1):
                for mu in partitions_of(m):
                    assert skew_schur(lam, mu).terms == perp(mu, s_lam).terms, (lam, mu)


def test_perp_by_a_shape_above_every_degree_is_zero_and_reads_no_table(monkeypatch):
    """s_mu^perp kills every degree below |mu|, so it needs no s table of
    degree |mu|, even one above the ring cap."""
    from symfunc import ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    assert perp((25,), basis_element(S, (2,))).is_zero()
    assert perp((10, 10), basis_element(H, (3, 1))).is_zero()
    assert skew_schur((3,), (21,)).is_zero()
    # only the h rows of (3, 1) and what they read, and the class sizes that
    # put them over 4!, all of degree <= 4; an h map reads no eps
    assert fresh.compute_counts == {
        **{("row", H, lam): 1 for lam in ((3, 1), (1,), ())},
        **{("merge", a, b): 1 for a, b in ((3, 1), (1, 3), (0, 3), (1, 0), (0, 1))},
        ("insert", 1, 3): 1, ("sizes", 4): 1}


@pytest.mark.parametrize("b", BASES)
def test_perp_stops_on_the_first_above_cap_degree_in_term_order(b):
    """perp is capped as a conversion of its input is, p input included, and
    names the first degree above the cap in the order of the terms."""
    with limits.scoped(limits.Limits(ring=5)):
        for terms, first in (({(7,): 1, (6,): 1, (1,): 1}, 7), ({(6,): 1, (7,): 1}, 6)):
            with pytest.raises(DegreeCapError, match=f"got {first};"):
                perp((1,), sym_element(b, terms))


def test_perp_reads_the_s_row_of_mu_not_its_table(monkeypatch):
    """s_mu^perp reads the one s row of mu, and no s table of degree |mu|."""
    from symfunc import ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    f = sym_element(H, {(3, 2): 1, (4, 1): Fraction(-2, 3), (2, 2, 1): 5})
    got = perp((2, 1), f)
    assert ("row", S, (2, 1)) in fresh._data
    assert ("pairing", S, 3) not in fresh._data
    want = zero(S)
    for lam, c in convert(f, S).terms.items():
        want = want + c * skew_schur(lam, (2, 1))
    assert got == want


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
                    w = t.content()
                    key = w + (0,) * (m - len(w))
                    expected[key] = expected.get(key, 0) + 1
                assert {k: int(v) for k, v in poly.terms.items()} == expected


def test_evaluate_is_multiplicative():
    rng = random.Random(61)
    for _ in range(6):
        f = random_element(rng, max_degree=5)
        g = random_element(rng, max_degree=5)
        for m in range(5):
            assert evaluate(multiply(f, g), m) == evaluate(f, m) * evaluate(g, m)


def test_evaluate_is_additive():
    rng = random.Random(67)
    for _ in range(6):
        f = random_element(rng, max_degree=5)
        g = random_element(rng, max_degree=5)
        for m in range(5):
            assert evaluate(f + g, m) == evaluate(f, m) + evaluate(g, m)
    with pytest.raises(ValueError):
        evaluate(f, 2) + evaluate(g, 3)


def test_element_product_negation_and_coefficients():
    s1 = basis_element(S, (1,))
    assert convert(s1 * s1, S).terms == {(2,): 1, (1, 1): 1}
    assert (s1 * Fraction(2, 3)).terms == {(1,): Fraction(2, 3)}
    rng = random.Random(71)
    for _ in range(10):
        f = random_element(rng)
        g = random_element(rng)
        assert f * g == multiply(f, g)
        neg = -f
        assert neg.basis == f.basis and (neg + f).is_zero()
        for lam, c in f.terms.items():
            assert neg.coefficient(list(lam)) == -c == -f.coefficient(lam)
    assert basis_element(H, (2, 1)).coefficient((3,)) == 0


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


def sym_from_json(obj: dict):
    """The inverse of ``sym_to_json``, to check that its output round-trips."""
    terms = {tuple(t["partition"]): parse_coeff(t["coeff"]) for t in obj["terms"]}
    return sym_element(obj["basis"], terms)


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
    # terms of one partition add up, and a sum that cancels is no term
    assert parse_sym_element("s:2*2,1+-2*2,1").is_zero()
    assert parse_sym_element("m:3+1/2*2,1+-1*3+2,1,0+1e2*()").terms == {
        (2, 1): Fraction(3, 2), (): Fraction(100)}


def test_parse_sym_element_splits_only_where_a_term_begins():
    """A + in a coefficient's exponent, as in 1e+2, is no term boundary;
    a + before a bare partition, or an empty term, still is."""
    assert parse_sym_element("s:1e+2*2").terms == {(2,): Fraction(100)}
    assert parse_sym_element("s:1E+2*2+1e-1*1,1+3e+0*2").terms == {
        (2,): Fraction(103), (1, 1): Fraction(1, 10)}
    with pytest.raises(ValueError, match="malformed partition '3e'"):
        parse_sym_element("s:3e+2")
    with pytest.raises(ValueError, match="empty term"):
        parse_sym_element("s:2++1*3")


def test_parse_sym_element_makes_one_fraction_per_term(monkeypatch):
    """Each term builds its coefficient once: no zero default for a new
    partition and no second pass over the terms."""
    from symfunc import ring

    calls = []
    monkeypatch.setattr(ring, "Fraction", lambda *args: calls.append(args) or Fraction(*args))
    f = parse_sym_element("p:1*3+2*2,1+-1/2*1,1,1+1_000*2,1+4+3*()")
    assert len(calls) <= 6
    assert f.terms == {(3,): 1, (2, 1): 1002, (1, 1, 1): Fraction(-1, 2), (4,): 1, (): 3}
    assert all(type(c) is Fraction for c in f.terms.values())


def test_same_basis_equality_compares_terms_and_builds_no_table(monkeypatch):
    """Elements in one basis are equal term by term, with no table built and
    at any degree, the ring cap's included; mixed bases still compare in p."""
    from symfunc import ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    s21 = basis_element(S, (21,))
    assert s21 == basis_element(S, (21,)) and s21 != 2 * s21
    s10 = basis_element(S, (10,))
    assert s10 == sym_element(S, {(10,): 1}) and s10 != basis_element(S, (9, 1))
    assert ring.SymElement(S, {(10,): 1, (9, 1): 0}) == s10  # a zero term is no term
    assert fresh.compute_counts == {}
    rng = random.Random(20)
    for _ in range(200):
        f, g = random_element(rng, max_degree=4), random_element(rng, max_degree=4)
        for a, b in ((f, g), (f, convert(f, g.basis)), (f, convert(f, g.basis) + g)):
            assert (a == b) == (convert(a, P).terms == convert(b, P).terms)
    assert basis_element(H, (2,)) == basis_element(S, (2,)) != basis_element(E, (2,))


def test_degree_cap_enforced():
    with limits.scoped(limits.Limits(ring=5)):
        with pytest.raises(DegreeCapError, match="--max-degree or symfunc.limits"):
            convert(basis_element(S, (4, 2)), M)


def test_terms_print_by_degree_then_in_partitions_of_order():
    lams = [lam for n in range(9) for lam in partitions_of(n)]
    f = sym_element(S, {lam: 1 for lam in reversed(lams)})
    assert [tuple(t["partition"]) for t in sym_to_json(f)["terms"]] == lams
    assert str(f).split(" + ")[:4] == ["s[]", "s[1]", "s[2]", "s[1,1]"]


def _listing_above_the_cap_fails(monkeypatch):
    """Make listing or ranking the partitions of a degree above the ring
    cap fail at once, in every module that lists them."""
    from symfunc import characters, hopf, ring

    cap = limits.current().ring

    def capped(fn):
        def listing(n):
            assert n <= cap, f"listed the partitions of {n}"
            return fn(n)
        return listing

    for module in (ring, characters, hopf):
        for name in ("partitions_of", "partition_ranks"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, capped(getattr(module, name)))


def test_power_sums_above_the_cap_stay_sparse(monkeypatch):
    """Kernels that are diagonal or multiplicative on power sums answer for
    p input of any degree without listing its partitions."""
    from symfunc import characters, hopf

    _listing_above_the_cap_fails(monkeypatch)

    def p(*lam):
        return basis_element(P, lam)

    assert omega(p(200)).terms == {(200,): -1}
    assert str(omega(p(200))) == "-p[200]"
    assert sym_to_json(multiply(p(60), p(1)))["terms"] == [{"partition": [60, 1], "coeff": "1"}]
    assert omega(p(101, 100)).terms == {(101, 100): -1}
    assert hall_inner(p(100), p(100)) == 100
    assert multiply(p(60), p(1)).terms == {(60, 1): 1}
    assert characters.kronecker_product(p(100), p(100)).terms == {(100,): 100}
    assert hopf.coproduct_sum(p(100)).terms == {((100,), ()): 1, ((), (100,)): 1}
    pairs = [hall_inner(p(*lam), p(100)) * hall_inner(p(*mu), one()) * c
             for (lam, mu), c in hopf.coproduct_sum(p(100)).terms.items()]
    assert sum(pairs) == 100  # <Delta p_100, p_100 x 1>
    assert hopf.plethysm(p(2), p(50)).terms == {(100,): 1}
    # factors below the cap whose product is above it stay sparse too
    assert multiply(p(15) + p(2, 1), p(10)).terms == {(15, 10): 1, (10, 2, 1): 1}
    assert hopf.plethysm(p(3), p(7)).terms == {(21,): 1}
    mixed = hopf.tensor_element((P, S), {((100,), (1,)): 3})
    assert hopf.tensor_convert(mixed, (P, P)).terms == {((100,), (1,)): 3}
    assert mixed == hopf.tensor_element((P, P), {((100,), (1,)): 3})
    assert mixed != hopf.tensor_element((P, S), {((100,), (1,)): 2})
    assert hopf.antipode(p(200)).terms == {(200,): -1}
    assert hopf.antipode(p(200, 1)).terms == {(200, 1): 1}
    assert hopf.counit(p(200)) == 0
    assert hopf.counit(p(200) + 3 * one()) == 3
    assert hopf.counit_star(p(200) + 3 * one()) == 4
    assert hopf.coproduct_prod(p(200)).terms == {((200,), (200,)): 1}
    t = hopf.tensor_element((P, P), {((200,), (1,)): 1})
    assert t.terms == {((200,), (1,)): 1}
    assert t == hopf.tensor_element((P, P), {((200,), (1,)): 1})
    assert t != hopf.coproduct_prod(p(200))


def test_converting_power_sums_above_the_cap_fails_before_listing(monkeypatch):
    """A conversion out of p meets a pairing table of the input's degree:
    the cap refuses it before any partition of that degree is listed."""
    _listing_above_the_cap_fails(monkeypatch)
    for target in (M, E, H, S):
        with pytest.raises(DegreeCapError):
            convert(basis_element(P, (100,)), target)
    with pytest.raises(DegreeCapError):
        convert(sym_element(P, {(1,): Fraction(1), (100,): Fraction(1)}), S)
    with pytest.raises(DegreeCapError):
        perp((1,), basis_element(P, (100,)))


def _concurrently(fn):
    """fn() from 8 threads released together; the list of its results."""
    results = []
    errors = []
    start = threading.Barrier(8)

    def work():
        try:
            start.wait()
            results.append(fn())
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    return results


def _s_row_keys(shapes) -> dict:
    """{key: 1} for the cache keys that building the s rows of ``shapes``
    computes: the row of every shape it reads, these included, and one
    ("classes", d) per degree d >= 1 read, for its blocks and eps; no s row
    reads the class sizes ("sizes", d). A shape with more rows than
    columns reads its conjugate's row; any other reads lam minus each rim
    hook. The hook of cell (i, j), of leg l, leaves rows i .. i + l - 1 at
    lam_(r+1) - 1 and row i + l at j."""
    seen, todo = set(), list(shapes)
    while todo:
        lam = todo.pop()
        if lam in seen:
            continue
        seen.add(lam)
        cols = conjugate(lam)
        if len(cols) < len(lam):
            todo.append(cols)
            continue
        for i, row in enumerate(lam):
            for j in range(row):
                leg = cols[j] - i - 1
                nu = lam[:i] + tuple(p - 1 for p in lam[i + 1:i + leg + 1]) + (j,) + lam[i + leg + 1:]
                todo.append(tuple(p for p in nu if p))
    return {**{("row", S, lam): 1 for lam in seen},
            **{("classes", d): 1 for d in {sum(lam) for lam in seen} - {0}}}


def test_transition_cache_concurrent_and_once(monkeypatch):
    """Concurrent conversions at a fresh degree agree and compute the
    per-degree table exactly once (p to h reads the m table, h's Hall dual);
    the Schur table is the tuple of its rows, which read only smaller Schur
    rows, each computed once, and no h, e or m table."""
    from symfunc import ring

    # degree 11 in the monomial basis is unlikely to be warmed by other tests
    key = ("pairing", M, 11)
    ring._cache.compute_counts.pop(key, None)
    ring._cache._data.pop(key, None)
    results = _concurrently(lambda: convert(basis_element(P, (6, 3, 2)), H))
    assert all(r == results[0] for r in results)
    assert ring._cache.compute_counts.get(key) == 1

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    tables = _concurrently(lambda: ring._pairing(S, 11))
    assert len(tables) == 8 and all(t is tables[0] for t in tables)
    # the s table of degree 11 and every row it reads exactly once, and no
    # other s table, nor any h, e or m table
    assert fresh.compute_counts == {("pairing", S, 11): 1, **_s_row_keys(partitions_of(11))}
    assert all(row is fresh._data[("row", S, lam)]
               for lam, row in zip(partitions_of(11), tables[0], strict=True))


def test_schur_rows_concurrent_and_once(monkeypatch):
    """Concurrent character rows at a fresh cache agree with Murnaghan-Nakayama,
    compute each s row they read exactly once, and build no s table."""
    from symfunc import ring
    from symfunc.characters import character_row

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    shapes = [(5, 3, 2, 1), (3, 3, 2, 1, 1, 1)]  # expanded, and an eps twist
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _concurrently(lambda: [character_row(lam) for lam in shapes])
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
    for lam, row in zip(shapes, results[0]):
        assert row == {mu: _murnaghan_nakayama(lam, mu) for mu in partitions_of(11)}, lam
    assert fresh.compute_counts == _s_row_keys(shapes)
    assert [key for key in fresh._data if key[0] == "pairing"] == []


def test_h_rows_concurrent_and_once(monkeypatch):
    """Concurrent conversions of short h and e elements to p at a fresh cache
    agree with the product of the h_k = sum of p_mu / z_mu, compute the h
    row of each key and of each of its tails exactly once, with the merge
    maps they read, the class sizes of each degree and, for e only, the
    classes for eps, and build no h table."""
    from symfunc import ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    h = sym_element(H, {(4, 3, 2, 1): 2, (6, 4): Fraction(-1, 3), (10,): 1, (2, 2): 5})
    e = sym_element(E, {(5, 3, 1): 1, (3, 3, 2, 1): -4})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _concurrently(lambda: (convert(h, P), convert(e, P)))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
    rows = {lam[i:] for f in (h, e) for lam in f.terms for i in range(len(lam) + 1)}
    assert {key for key in fresh.compute_counts if key[0] == "row"} == {
        ("row", H, lam) for lam in rows}
    assert {key[0] for key in fresh.compute_counts} == {"row", "merge", "insert", "sizes", "classes"}
    assert {key for key in fresh.compute_counts if key[0] in ("sizes", "classes")} == {
        ("sizes", 4), ("sizes", 9), ("sizes", 10), ("classes", 9)}
    assert set(fresh.compute_counts.values()) == {1}

    def h_in_p(lam):
        f = one()
        for k in lam:
            f = multiply(f, sym_element(P, {mu: Fraction(1, z_value(mu)) for mu in partitions_of(k)}))
        return f

    want_h, want_e = (sum((c * h_in_p(lam) for lam, c in f.terms.items()), zero()) for f in (h, e))
    assert results[0] == (want_h, omega(want_e))
    assert [key for key in fresh._data if key[0] == "pairing"] == []
    # the h table is the tuple of the same cached row objects
    assert all(row is fresh._data[("row", H, lam)]
               for lam, row in zip(partitions_of(10), ring._pairing(H, 10), strict=True))


def _m_row_keys(shapes) -> dict:
    """{key: 1} for the cache keys that building the m rows of ``shapes``
    computes: the row of every shape it reads, these included, where lam
    reads its tail nu = lam[1:] and, for each distinct part q of nu, the
    shape (q + lam_1,) + nu less one q; and the insertion map (lam_1, |nu|)
    of each nonempty lam."""
    seen, todo = set(), list(shapes)
    while todo:
        lam = todo.pop()
        if lam in seen:
            continue
        seen.add(lam)
        if lam:
            k, nu = lam[0], lam[1:]
            todo.append(nu)
            for q in set(nu):
                rest = list(nu)
                rest.remove(q)
                todo.append((q + k,) + tuple(rest))
    return {**{("row", M, lam): 1 for lam in seen},
            **{("insert", lam[0], sum(lam) - lam[0]): 1 for lam in seen if lam}}


def test_m_rows_concurrent_and_once(monkeypatch):
    """Concurrent conversions of short m elements to p at a fresh cache agree,
    compute the m row of each key and of every shape it reads exactly once,
    with the insertion maps they scatter through and the class sizes of each
    degree, and build no table; the h table, which no m
    row reads, maps each answer back to its input."""
    from symfunc import ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    f = sym_element(M, {(4, 3, 2, 1): 2, (3, 3, 1, 1): Fraction(-1, 3), (2, 2, 2): 5, (1,) * 6: 1})
    g = basis_element(M, (6, 5, 4, 3, 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with limits.scoped(limits.current().raised(20)):
            results = _concurrently(lambda: (convert(f, P), convert(g, P)))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
    assert fresh.compute_counts == {
        **_m_row_keys([*f.terms, *g.terms]), **{("sizes", d): 1 for d in (*f.degrees(), 20)}}
    assert [key for key in fresh._data if key[0] == "pairing"] == []
    with limits.scoped(limits.current().raised(20)):
        assert [convert(r, M) for r in results[0]] == [f, g]
    assert ("pairing", H, 20) in fresh._data


def test_an_m_row_with_a_remainder_raises_and_publishes_nothing(monkeypatch):
    """The division by m_k(lam) in an m row is checked: a wrong tail row
    that leaves a remainder raises InvariantViolationError, and the row of
    lam is not cached."""
    from symfunc import ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    fresh._data[("row", M, (1, 1))] = (0, 1)  # <m_(1,1), p_mu> is (-1, 1)
    with pytest.raises(InvariantViolationError, match=r"m row of \(1, 1, 1\) is non-integral"):
        ring._m_row((1, 1, 1))
    assert ("row", M, (1, 1, 1)) not in fresh._data


def test_strips_are_the_rim_hooks_of_every_cell():
    """The one pass over beta numbers lists, by length, the rim hook of each
    cell (i, j) once: of length arm + leg + 1 and sign (-1)^leg, leaving
    rows i .. i + leg - 1 at lam_(r+1) - 1 and row i + leg at j, with no
    trailing zero part."""
    from symfunc import ring

    for n in range(11):
        for lam in partitions_of(n):
            cols, want = conjugate(lam), {}
            for i, row in enumerate(lam):
                for j in range(row):
                    arm, leg = row - j - 1, cols[j] - i - 1
                    nu = lam[:i] + tuple(p - 1 for p in lam[i + 1:i + leg + 1]) + (j,) + lam[i + leg + 1:]
                    want.setdefault(arm + leg + 1, []).append(
                        (tuple(p for p in nu if p), (-1) ** leg))
            got = ring._strips(lam)
            assert {k: sorted(v) for k, v in got.items()} == {k: sorted(v) for k, v in want.items()}, lam
            assert all(nu[-1:] != (0,) for v in got.values() for nu, _ in v)


def test_once_cache_computes_each_key_once_and_publishes_no_failure():
    """Each key is computed once, also under concurrent first reads; a failed
    compute publishes and counts nothing, and the retry computes once."""
    from symfunc import ring

    cache = ring._OnceCache()
    for key in range(50):
        assert cache.get(key, lambda key=key: key * key) == key * key
    together = threading.Barrier(8)

    def compute(i):
        time.sleep(0.002)  # yield: without the lock the other threads compute it too
        return -i

    def read(i):
        together.wait(timeout=30)  # the 8 threads ask for each key at once
        return cache.get(("k", i), lambda: compute(i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _concurrently(lambda: [read(i) for i in range(40)])
    finally:
        sys.setswitchinterval(interval)
    assert got == [[-i for i in range(40)]] * 8
    assert cache.compute_counts == {**dict.fromkeys(range(50), 1),
                                    **{("k", i): 1 for i in range(40)}}

    def fail():
        raise ValueError("no value")

    with pytest.raises(ValueError):
        cache.get("x", fail)
    assert "x" not in cache._data and "x" not in cache.compute_counts
    assert cache.get("x", lambda: 7) == 7 and cache.compute_counts["x"] == 1


def test_merge_maps_concurrent_and_once(monkeypatch):
    """Concurrent products at a fresh cache agree and build each merge and
    insertion map they read exactly once."""
    from symfunc import ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    f, g = sym_element(P, {lam: 1 for lam in partitions_of(9)}), basis_element(P, (5, 3))
    results = _concurrently(lambda: multiply(g, f))
    assert all(r == results[0] for r in results)
    assert ("merge", 8, 9) in fresh.compute_counts and ("merge", 9, 8) not in fresh.compute_counts
    assert {key[0] for key in fresh.compute_counts} == {"merge", "insert"}
    assert set(fresh.compute_counts.values()) == {1}


def test_sum_coproducts_concurrent_and_once(monkeypatch):
    """Concurrent sum coproducts of one dense degree-8 element at a fresh
    cache agree and compute each s row and each ("coproduct", lam) key
    they read exactly once; mapping s to p reads the rows of f's keys and
    the class sizes of degree 8, and builds no s table."""
    from symfunc import hopf, ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    f = sym_element(S, {lam: i + 1 for i, lam in enumerate(partitions_of(8))})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _concurrently(lambda: hopf.coproduct_sum(f))
    finally:
        sys.setswitchinterval(interval)
    assert all(r.terms == results[0].terms for r in results)
    lams = ring._p_ints(f)[1]
    assert len(lams) == len(partitions_of(8))
    assert fresh.compute_counts == {**_s_row_keys(partitions_of(8)), ("sizes", 8): 1,
                                    **{("coproduct", lam): 1 for lam in lams}}


def test_class_sizes_are_the_counts_of_each_type_to_twenty(monkeypatch):
    """The sizes in ("sizes", d) are the class sizes d! / z_rho over
    partitions_of(d), and they sum to d!."""
    from math import factorial

    from symfunc import ring

    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    for d in range(21):
        sizes = ring._class_sizes(d)
        assert sizes == tuple(map(count_of_type, partitions_of(d))), d
        assert sum(sizes) == factorial(d)


def _size_degrees(monkeypatch) -> Counter:
    """A fresh ring cache, and the degree of every z_rho that ring computes
    from now on: each class size d! / z_rho reads one, and no s row reads
    any."""
    from symfunc import ring

    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    degrees: Counter = Counter()
    monkeypatch.setattr(ring, "z_value", lambda rho: degrees.update([sum(rho)]) or z_value(rho))
    return degrees


def test_s_tables_compute_no_class_sizes(monkeypatch):
    """Every s table through degree 12 reads the blocks and eps of its
    classes, and computes no class size d! / z_rho."""
    from symfunc import ring

    degrees = _size_degrees(monkeypatch)
    for d in range(13):
        ring._pairing(S, d)
    assert degrees == Counter()
    assert {key[0] for key in ring._cache._data} == {"pairing", "row", "classes"}


def test_a_map_to_p_computes_the_class_sizes_of_its_degree_only(monkeypatch):
    """convert(s_lam, P) computes the class sizes of |lam| once, and of no
    degree below, though it reads the s rows of every degree below."""
    from symfunc import ring

    want = convert(basis_element(S, (4, 3, 2, 1)), P)
    degrees = _size_degrees(monkeypatch)
    assert convert(basis_element(S, (4, 3, 2, 1)), P) == want
    assert degrees == Counter({10: len(partitions_of(10))})
    assert [key for key in ring._cache._data if key[0] == "sizes"] == [("sizes", 10)]
    assert ("row", S, (1,)) in ring._cache._data


def test_kronecker_and_decompose_compute_the_class_sizes_of_their_n_only(monkeypatch):
    """kronecker and decompose weight the classes of S_n by their sizes,
    computed for n alone, while the s rows they read span every degree."""
    from symfunc import matrixreps, ring
    from symfunc.characters import kronecker

    degrees = _size_degrees(monkeypatch)
    assert kronecker((3, 2, 1), (3, 2, 1), (4, 2)) == 3
    assert degrees == Counter({6: len(partitions_of(6))})
    degrees = _size_degrees(monkeypatch)
    assert matrixreps.decompose(matrixreps.classical_rep("defining", 7)) == {(7,): 1, (6, 1): 1}
    assert degrees == Counter({7: len(partitions_of(7))})
    assert [key for key in ring._cache._data if key[0] == "sizes"] == [("sizes", 7)]


def test_an_s_table_conjugates_only_the_shapes_it_twists(monkeypatch):
    """Building the s table of degree 10 calls conjugate once for each shape
    it reads with lam_1 < len(lam), the eps twists, and for no other."""
    from symfunc import ring

    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    calls: Counter = Counter()
    monkeypatch.setattr(ring, "conjugate", lambda lam: calls.update([lam]) or conjugate(lam))
    ring._pairing(S, 10)
    shapes = [key[2] for key in _s_row_keys(partitions_of(10)) if key[0] == "row"]
    twisted = [lam for lam in shapes if lam and lam[0] < len(lam)]
    assert twisted and calls == Counter(twisted)


def test_require_integer_formats_its_message_only_when_it_raises():
    """The message names the value by the format string and its arguments,
    a partition printed as a tuple; a whole value formats nothing."""
    from symfunc import ring

    class Unformatted(str):
        def format(self, *args):
            raise AssertionError("formatted a message that was not raised")

    assert ring._require_integer(12, Unformatted("multiplicity of {}"), 4, (2, 1)) == 3
    with pytest.raises(InvariantViolationError) as err:
        ring._require_integer(Fraction(7, 2), "multiplicity of {} in p_{}", 3, (2, 1, 1), 4)
    assert str(err.value) == "multiplicity of (2, 1, 1) in p_4 is non-integral: 7/6"


@pytest.mark.parametrize("op", ["__add__", "__mul__"])
def test_polynomials_in_different_variable_counts_do_not_combine(op):
    from symfunc.ring import PolynomialValue

    a, b = PolynomialValue(2, {(1, 0): Fraction(1)}), PolynomialValue(3, {(0, 0, 1): Fraction(2)})
    with pytest.raises(ValueError, match="variable counts differ"):
        getattr(a, op)(b)


def test_every_cache_key_is_a_ring_family_within_the_cap(monkeypatch):
    """convert, multiply, plethysm, perp and the sum coproduct at the default
    cap leave only pairing, row, classes, class sizes, merge, insertion and
    coproduct keys in ring's cache, each of a degree within the ring cap; input above
    the cap adds no key."""
    from symfunc import hopf, ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    rng = random.Random(24)
    f, g = random_element(rng, max_degree=8), random_element(rng, max_degree=6)
    for basis in BASES:
        convert(f, basis)
    multiply(f, g)
    multiply(basis_element(P, (15,)) + basis_element(P, (2, 1)), basis_element(P, (5,)))
    hopf.plethysm(basis_element(H, (2,)), g)
    perp((2, 1), f)
    hopf.coproduct_sum(f)
    degree = {"pairing": lambda key: key[2], "row": lambda key: sum(key[2]),
              "classes": lambda key: key[1], "sizes": lambda key: key[1],
              "merge": lambda key: key[1] + key[2], "insert": lambda key: key[1] + key[2],
              "coproduct": lambda key: sum(key[1])}
    cap = limits.current().ring
    assert cap == limits.Limits().ring
    assert {key[0] for key in fresh._data} == set(degree)
    assert [key for key in fresh._data if degree[key[0]](key) > cap] == []
    assert ("merge", 15, 5) in fresh._data
    keys = set(fresh._data)
    hopf.coproduct_sum(basis_element(P, (200,)))
    multiply(basis_element(P, (15,)), basis_element(P, (10,)))
    assert set(fresh._data) == keys


def test_no_union_below_the_cap_is_merged_by_sorting(monkeypatch):
    """Table builds, products, plethysm and s_mu^perp within the ring cap
    read every union from the merge map; ring's sort serves only products
    above the cap."""
    from symfunc import hopf, ring

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted a union below the cap")

    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    monkeypatch.setattr(ring, "sorted", no_sort, raising=False)
    for d in range(9):
        for basis in (H, M):
            ring._pairing(basis, d)
    rng = random.Random(23)
    f, g = random_element(rng, max_degree=6), random_element(rng, max_degree=6)
    multiply(f, g)
    hopf.plethysm(basis_element(H, (2,)), g)
    perp((2, 1), f)
    skew_schur((4, 2, 1), (2, 1))
    with pytest.raises(AssertionError, match="sorted a union"):
        multiply(basis_element(P, (15,)), basis_element(P, (10,)))


def test_merge_map_is_the_sorted_union_with_its_z_weight():
    """Every merge map with a + b <= 12 holds, at (alpha, beta), the rank of
    the sorted concatenation and z_(alpha u beta) / (z_alpha z_beta)."""
    from symfunc import ring

    for n in range(13):
        ranks = partition_ranks(n)
        for a in range(n + 1):
            want = []
            for alpha in partitions_of(a):
                unions = [tuple(sorted(alpha + beta, reverse=True)) for beta in partitions_of(n - a)]
                want.append((tuple(ranks[rho] for rho in unions), tuple(
                    z_value(rho) // (z_value(alpha) * z_value(beta))
                    for rho, beta in zip(unions, partitions_of(n - a)))))
            assert list(zip(*ring._merge_map(a, n - a))) == want, (a, n - a)


def test_e_reads_the_h_and_m_tables_and_builds_none_of_its_own(monkeypatch):
    """Conversions of e elements to and from every basis, and e-leg tensor
    conversions, compute no table keyed by e."""
    from symfunc import hopf, ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    for d in range(9):
        terms = {lam: i + 1 for i, lam in enumerate(partitions_of(d))}
        for basis in BASES:
            for b, c in ((E, basis), (basis, E)):
                f = sym_element(b, terms)
                assert convert(convert(f, c), b).terms == f.terms
        lam = partitions_of(d)[len(terms) // 2]
        delta = hopf.tensor_convert(hopf.coproduct_sum(basis_element(S, lam)), (S, S))
        t = hopf.tensor_convert(delta, (E, M))
        assert t.bases == (E, M) and t == delta
        assert hopf.tensor_convert(hopf.tensor_convert(delta, (M, E)), (S, S)).terms == delta.terms
    assert ("pairing", H, 8) in fresh.compute_counts
    assert ("pairing", M, 8) in fresh.compute_counts
    assert [key for key in fresh.compute_counts if E in key] == []
