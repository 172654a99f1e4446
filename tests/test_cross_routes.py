"""Cross-route checks at degree 12 and above: each answer of the ring,
character and Hopf kernels against a route that shares no code with them.

The second routes are the benchmark's oracles (``perfbench/oracles.py``),
which import nothing from symfunc: Murnaghan-Nakayama on beta numbers,
lattice-word LR counts, horizontal-strip Kostka numbers, Kronecker
coefficients as character sums, and symmetric functions evaluated at
integer points (Schur functions as bialternants, m by symmetrizing, h and e
by their generating functions). Every case is drawn from a fixed seed.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from symfunc import hopf, limits, ring
from symfunc.characters import (
    character_row,
    frobenius_inverse,
    kronecker,
    kronecker_product,
    littlewood_richardson,
)
from symfunc.ring import (
    BASES,
    M,
    P,
    S,
    basis_element,
    convert,
    hall_inner,
    multiply,
    omega,
    perp,
    skew_schur,
    sym_element,
)
from symfunc.matrixreps import gl_character, gl_dimension, specht_module
from symfunc.partitions import class_representative, partitions_of, z_value
from symfunc.tableaux import count_ssyt, f_lambda, kostka

_spec = importlib.util.spec_from_file_location(
    "cross_route_oracles", Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"
)
O = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(O)

N = 12  # the coefficient cap, and the degree of every ring check below
TOP = 20  # the ring cap: single coefficients against a route with no shared kernel
SEED = 20260418
COORDS = random.Random(SEED).sample(range(2, 60), 2 * N)
DUAL = {"s": "s", "h": "m", "m": "h", "p": "p"}


@pytest.fixture(scope="module")
def points():
    return O.Points(COORDS)


def dense(rng, degree) -> dict:
    """Every partition of ``degree`` with a small random nonzero rational."""
    return {lam: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
            for lam in O.partitions(degree)}


def value(points, basis, terms, k=N, **kw):
    return points(k, **kw).element(basis, terms)


def class_values(s_terms, n) -> dict:
    """The class function whose characteristic is sum c s_lam, by MN."""
    return {rho: sum((c * O.character(lam, rho) for lam, c in s_terms.items()), Fraction(0))
            for rho in O.partitions(n)}


def test_character_rows_are_murnaghan_nakayama_on_beta_numbers():
    rng = random.Random(SEED)
    lams = O.partitions(N)
    for lam in rng.sample(lams, 12) + [lams[0], lams[-1]]:
        assert character_row(lam) == O.character_row(lam), lam


def test_lr_coefficients_and_skew_schur_are_lattice_word_counts():
    rng = random.Random(SEED + 1)
    for _ in range(6):
        lam = rng.choice([p for p in O.partitions(N) if len(p) > 1])
        m = rng.randint(2, 5)
        mu = rng.choice([q for q in O.partitions(m) if O.contains(q, lam)])
        want = {nu: O.lr(lam, mu, nu) for nu in O.partitions(N - m)}
        for nu, c in want.items():
            assert littlewood_richardson(lam, mu, nu) == c, (lam, mu, nu)
        assert skew_schur(lam, mu).terms == {nu: c for nu, c in want.items() if c}


def test_perp_of_a_dense_schur_element_is_lattice_word_counts():
    rng = random.Random(SEED + 2)
    terms = dense(rng, N)
    mu = (2, 1)
    want: dict = {}
    for lam, c in terms.items():
        if O.contains(mu, lam):
            for nu in O.partitions(N - 3):
                want[nu] = want.get(nu, 0) + c * O.lr(lam, mu, nu)
    out = perp(mu, sym_element(S, terms))
    assert out.basis == S and out.terms == {nu: c for nu, c in want.items() if c}


def test_kronecker_coefficients_are_oracle_character_sums():
    rng = random.Random(SEED + 3)
    lams = O.partitions(N)
    for _ in range(8):
        lam, mu, nu = (rng.choice(lams) for _ in range(3))
        assert kronecker(lam, mu, nu) == O.kronecker(lam, mu, nu), (lam, mu, nu)
    assert kronecker((N,), lams[5], lams[5]) == 1


def test_kronecker_product_and_frobenius_inverse_match_class_values():
    rng = random.Random(SEED + 4)
    ta, tb = dense(rng, N), dense(rng, N)
    fa, fb = class_values(ta, N), class_values(tb, N)
    out = kronecker_product(sym_element(S, ta), sym_element(S, tb))
    assert out.basis == P
    assert out.terms == {rho: fa[rho] * fb[rho] / O.z(rho)
                         for rho in O.partitions(N) if fa[rho] * fb[rho]}
    g = frobenius_inverse(sym_element(S, ta), N)
    assert dict(zip(O.partitions(N), g.values)) == fa


@pytest.mark.parametrize("src", BASES)
def test_convert_between_every_basis_pair_at_integer_points(src, points):
    """Dense p input is also listed in reverse rank order and with one
    partition missing: the map out of p reads the dual table's rows as they
    are only when its keys are every partition in rank order."""
    rng = random.Random(SEED + 5 + BASES.index(src))
    terms = dense(rng, N)
    inputs = [terms]
    if src == P:
        missing = rng.choice(list(terms))
        inputs += [dict(reversed(terms.items())), {lam: c for lam, c in terms.items() if lam != missing}]
    for terms in inputs:
        want = value(points, src, terms)
        f = sym_element(src, terms)
        for dst in BASES:
            out = convert(f, dst)
            assert out.basis == dst
            assert value(points, dst, out.terms) == want, (src, dst, list(terms)[0], len(terms))


def test_hall_inner_of_dual_bases_and_kostka_numbers():
    rng = random.Random(SEED + 10)
    for b, dual in DUAL.items():
        ta, tb = dense(rng, N), dense(rng, N)
        want = sum((c * tb[lam] * (O.z(lam) if b == P else 1) for lam, c in ta.items()),
                   Fraction(0))
        assert hall_inner(sym_element(b, ta), sym_element(dual, tb)) == want, b
    lams = O.partitions(N)
    for lam, mu in zip(rng.sample(lams, 6), rng.sample(lams, 6)):
        got = hall_inner(basis_element(S, lam), basis_element("h", mu))
        assert got == O.kostka(lam, mu), (lam, mu)


def test_kostka_numbers_are_horizontal_strip_and_ssyt_counts():
    """tableaux.kostka reads the Pieri expansion of h_mu; the oracle peels
    the largest entry off as a horizontal strip, and count_ssyt enumerates
    the semistandard tableaux themselves."""
    for lam in O.partitions(8):
        for mu in O.partitions(8):
            assert kostka(lam, mu) == O.kostka(lam, mu) == count_ssyt(lam, len(mu), mu), (lam, mu)
    assert kostka((4, 3, 2, 1, 1, 1), (1,) * 12) == 5632


def test_multiply_and_omega_at_integer_points(points):
    rng = random.Random(SEED + 11)
    da, db = 5, N - 5
    ba, bb = rng.choice(BASES), rng.choice(BASES)
    ta, tb = dense(rng, da), dense(rng, db)
    out = multiply(sym_element(ba, ta), sym_element(bb, tb))
    assert value(points, out.basis, out.terms) == value(points, ba, ta) * value(points, bb, tb)
    terms = dense(rng, N)
    out = omega(sym_element(S, terms))
    assert value(points, out.basis, out.terms) == value(
        points, S, {O.conjugate(lam): c for lam, c in terms.items()})


def test_coproduct_is_evaluation_at_a_union_of_alphabets(points):
    """Sources in h and e, whose values at 2N coordinates are cheap; the
    legs go to s, m and e."""
    rng = random.Random(SEED + 12)
    for b, (left, right) in (("h", (S, "m")), ("e", ("e", S))):
        terms = dense(rng, N)
        delta = hopf.tensor_convert(hopf.coproduct_sum(sym_element(b, terms)), (left, right))
        assert delta.bases == (left, right)
        got = sum((c * points(N).value(left, lam) * points(N, offset=N).value(right, mu)
                   for (lam, mu), c in delta.terms.items()), Fraction(0))
        assert got == value(points, b, terms, k=2 * N), b


def test_plethysm_into_schur_is_evaluation_at_squares(points):
    """h_2[g](x) = (g(x)^2 + g(x^2)) / 2 and e_2[g](x) = (g(x)^2 - g(x^2)) / 2."""
    rng = random.Random(SEED + 13)
    for outer, sign in (("h", 1), ("e", -1)):
        gb = rng.choice(BASES)
        g_terms = dense(rng, N // 2)
        out = convert(hopf.plethysm(basis_element(outer, (2,)), sym_element(gb, g_terms)), S)
        gx = value(points, gb, g_terms)
        gx2 = value(points, gb, g_terms, power=2)
        assert value(points, S, out.terms) == (gx * gx + sign * gx2) / 2, (outer, gb)


def test_schur_rows_at_degree_20_round_trip_through_m_as_kostka_numbers():
    """s -> m -> s at the ring cap reads the s, h and m tables of degree 20;
    the m coefficients of s_lam are the Kostka numbers K_(lam, mu)."""
    rng = random.Random(SEED + 14)
    lams = O.partitions(20)
    for lam in rng.sample(lams, 3):
        f = basis_element(S, lam)
        m = convert(f, M)
        assert convert(m, S).terms == f.terms, lam
        for mu in rng.sample(lams, 8) + [lam, lams[-1]]:
            assert m.terms.get(mu, 0) == O.kostka(lam, mu), (lam, mu)


def test_standard_tableau_counts_are_character_degrees_to_20():
    """f_lambda, which counts by the hook-length formula, is chi^lam at the
    identity, read from the character row, for every lam |- n <= 20."""
    with limits.scoped(limits.current().raised(20)):
        for n in range(21):
            for lam in partitions_of(n):
                assert f_lambda(lam) == character_row(lam)[(1,) * n], lam


def test_gl_dimensions_are_hook_contents_and_character_values_at_ones():
    """gl_dimension is the oracle's hook-content product and the coefficient
    sum of gl_character, the Schur polynomial at 1, ..., 1, for every
    lam |- n <= 8 and m <= 6 variables."""
    for n in range(9):
        for lam in partitions_of(n):
            for m in range(7):
                dim = sum(gl_character(lam, m).terms.values())
                assert gl_dimension(lam, m) == O.hook_content(lam, m) == dim, (lam, m)


# The oracles above count LR tableaux, add horizontal strips and run MN on
# beta numbers, as src/ now does. So each single-coefficient route is also
# checked at degree 20 against a route that shares no algorithm with it: the
# p route (perp, the Hall pairing through the tables), SSYT enumeration, and
# the orthogonality of the character rows and the Specht matrices.


def test_lr_and_skew_schur_at_degree_20_are_the_perp_route():
    rng = random.Random(SEED + 20)
    with limits.scoped(limits.current().raised(TOP)):
        for m in (4, 7):
            lam = rng.choice([p for p in partitions_of(TOP) if len(p) > 2])
            mu = rng.choice([q for q in partitions_of(m) if O.contains(q, lam)])
            skew = perp(mu, basis_element(S, lam))
            assert skew_schur(lam, mu).terms == skew.terms, (lam, mu)
            for nu in rng.sample(partitions_of(TOP - m), 5) + rng.sample(sorted(skew.terms), 3):
                want = hall_inner(skew, basis_element(S, nu))
                assert littlewood_richardson(lam, mu, nu) == want, (lam, mu, nu)
        lam, mu = (6, 5, 4, 3, 2), (4, 3, 2, 1)
        assert littlewood_richardson(lam, mu, mu) == perp(mu, basis_element(S, lam)).coefficient(mu) == 16


def test_kostka_numbers_are_ssyt_counts_and_hall_pairings_at_degree_20():
    """The Pieri route against SSYT enumeration for every pair to n = 7, a
    sample to n = 10 and compositions with zeros, and against <s_lam, h_mu>
    at degree 20."""
    rng = random.Random(SEED + 21)
    for n in range(11):
        lams = partitions_of(n)
        pairs = [(a, b) for a in lams for b in lams] if n <= 7 else [
            (rng.choice(lams), rng.choice(lams)) for _ in range(12)]
        for lam, mu in pairs:
            comp = list(mu) + [0] * rng.randint(0, 2)
            rng.shuffle(comp)
            want = count_ssyt(lam, len(mu), mu)
            assert kostka(lam, mu) == kostka(lam, comp) == want == count_ssyt(lam, len(comp), comp)
    lams = partitions_of(TOP)
    for lam, mu in list(zip(rng.sample(lams, 5), rng.sample(lams, 5))) + [(lams[300], (1,) * TOP)]:
        assert kostka(lam, mu) == hall_inner(basis_element(S, lam), basis_element("h", mu)), (lam, mu)


def test_character_rows_at_degree_20_are_orthonormal(monkeypatch):
    """Rows built one shape at a time, on a fresh cache, satisfy
    sum over rho of chi^lam(rho) chi^mu(rho) / z_rho = delta."""
    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    rng = random.Random(SEED + 22)
    with limits.scoped(limits.current().raised(TOP)):
        lams = rng.sample(partitions_of(TOP), 3) + [(6, 5, 4, 3, 2), (5, 5, 4, 3, 2, 1)]
        rows = [character_row(lam) for lam in lams]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            dot = sum(Fraction(a[rho] * b[rho], z_value(rho)) for rho in partitions_of(TOP))
            assert dot == (i == j), (lams[i], lams[j])


def test_character_rows_are_specht_matrix_diagonals_to_6(monkeypatch):
    """chi^lam(rho), built one shape at a time on a fresh cache, is the trace
    of the Garnir-straightened Specht matrix at a permutation of type rho."""
    monkeypatch.setattr(ring, "_cache", ring._OnceCache())
    with limits.scoped(limits.current().raised(6)):
        for n in range(1, 7):
            for lam in partitions_of(n):
                row, rep = character_row(lam), specht_module(lam)
                for rho in partitions_of(n):
                    m = rep.matrix(class_representative(rho))
                    assert sum(m[i][i] for i in range(len(m))) == row[rho], (lam, rho)
