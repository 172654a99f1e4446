"""The closed forms in an element's own basis against the route through the
power sums, which stays their oracle: the Hall pairing of a dual pair, omega,
the antipode, both counits, and the class functions read off the rows
(frobenius_inverse, kronecker_product). Each is checked for every basis it
serves at every degree up to 8, on degree 0, empty and mixed-degree elements
too, all drawn from a fixed seed. The Cauchy kernel, the diagonal of a dual
pair, is checked against the product coproduct of h_n mapped through p."""

import random
from fractions import Fraction

import pytest

from symfunc import limits, ring
from symfunc.characters import frobenius_inverse, kronecker_product
from symfunc.errors import DegreeCapError
from symfunc.hopf import antipode, cauchy_kernel, coproduct_prod, counit, counit_star, tensor_convert
from symfunc.partitions import partitions_of, z_value
from symfunc.ring import BASES, E, H, M, P, S, basis_element, convert, hall_inner, omega, sym_element

SEED = 20261020
TOP = 8
DUAL = {S: S, H: M, M: H, P: P}
OMEGA = {S: S, H: E, E: H, P: P, M: P}  # the basis each returns in
DEGREES = [(d,) for d in range(TOP + 1)] + [(), (0, 3, 5), (8, 1, 2)]


def element(rng, basis, degrees):
    """Every partition of each degree, with a random coefficient (0 drops it)."""
    return sym_element(basis, {lam: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                               for d in degrees for lam in partitions_of(d)})


def cases(bases):
    rng = random.Random(SEED)
    return [(b, degrees, element(rng, b, degrees)) for b in bases for degrees in DEGREES]


def in_p(f) -> dict:
    """The oracle: [p_mu] f, by the map to p."""
    return convert(f, P).terms


def eps(mu) -> int:
    return (-1) ** (sum(mu) - len(mu))


@pytest.mark.parametrize("b,degrees,f", cases(BASES))
def test_omega_and_the_antipode_match_the_p_route(b, degrees, f):
    want = in_p(f)
    got = omega(f)
    assert got.basis == OMEGA[b]
    assert in_p(got) == {mu: eps(mu) * c for mu, c in want.items()}
    got = antipode(f)
    assert got.basis == OMEGA[b]
    assert in_p(got) == {mu: (-1) ** len(mu) * c for mu, c in want.items()}
    twice = omega(omega(f))
    assert twice == f and (twice.basis != b or twice.terms == f.terms)
    for k in degrees:  # on degree k the antipode is (-1)^k omega
        fk = sym_element(b, {lam: c for lam, c in f.terms.items() if sum(lam) == k})
        assert antipode(fk).terms == ((-1) ** k * omega(fk)).terms


@pytest.mark.parametrize("b,degrees,f", cases(BASES))
def test_the_counits_match_the_p_route(b, degrees, f):
    want = in_p(f)
    assert counit(f) == want.get((), 0)
    assert counit_star(f) == sum(want.values())
    assert type(counit(f)) is type(counit_star(f)) is Fraction


@pytest.mark.parametrize("b,degrees,f", cases(DUAL))
def test_the_pairing_of_a_dual_pair_matches_the_p_route(b, degrees, f):
    rng = random.Random(repr((SEED, b, degrees)))
    for other in (degrees, (0, 2, 6), ()):
        g = element(rng, DUAL[b], other)
        fp, gp = in_p(f), in_p(g)
        want = sum((c * gp[mu] * z_value(mu) for mu, c in fp.items() if mu in gp), Fraction(0))
        assert hall_inner(f, g) == hall_inner(g, f) == want


@pytest.mark.parametrize("b,degrees,f", cases(BASES))
def test_the_class_functions_match_the_p_route(b, degrees, f):
    want = in_p(f)
    if len(degrees) <= 1:
        n = degrees[0] if degrees else 3
        cf = frobenius_inverse(f, n)
        assert cf.values == tuple(z_value(mu) * want.get(mu, 0) for mu in partitions_of(n))
    elif f.terms and len({sum(lam) for lam in f.terms}) > 1:
        with pytest.raises(ValueError, match="not homogeneous"):
            frobenius_inverse(f, max(degrees))
    rng = random.Random(repr((SEED, b, degrees)))
    for gb in BASES:
        g = element(rng, gb, degrees[:1] + (3,))
        gp = in_p(g)
        assert kronecker_product(f, g).terms == {
            mu: c * gp[mu] * z_value(mu) for mu, c in want.items() if mu in gp}


@pytest.mark.parametrize("pair", list(DUAL.items()))
@pytest.mark.parametrize("n", range(11))
def test_the_cauchy_kernel_is_the_product_coproduct_of_h_n(pair, n):
    want = tensor_convert(coproduct_prod(basis_element(H, (n,) if n else ())), pair)
    got = cauchy_kernel(n, pair)
    assert got.bases == want.bases == pair
    assert got.terms == want.terms
    assert all(type(c) is Fraction for c in got.terms.values())


def test_the_closed_forms_read_no_table(monkeypatch):
    """A dual-pair pairing, omega and the antipode of s, h, e or p input,
    both counits of any input and the Cauchy kernel of every dual pair touch
    no cache key: no row, pairing table, classes or class sizes."""
    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    rng = random.Random(SEED)
    for b in BASES:
        f = element(rng, b, (6, 0, 2))
        if b in DUAL:
            hall_inner(f, element(rng, DUAL[b], (6, 2)))
        if b != M:
            omega(f), antipode(f)
        counit(f), counit_star(f)
    for pair in DUAL.items():
        cauchy_kernel(6, pair)
    assert fresh.compute_counts == {}


@pytest.mark.parametrize("b", [S, H, E, M])
def test_the_closed_forms_keep_the_cap_of_the_p_route_in_term_order(b):
    """Each stops on the first degree of its input, in term order, that is
    above the ring cap, as the map to p did; p input is not capped. The
    Cauchy kernel of every dual pair stops on its degree, as h_n's map did."""
    f = sym_element(b, {(7,): 1, (6,): 1, (1,): 1})
    dual = sym_element(DUAL.get(b, b), {(1,): 1})
    calls = [lambda: counit(f), lambda: counit_star(f), lambda: omega(f), lambda: antipode(f),
             lambda: frobenius_inverse(f, 7), lambda: kronecker_product(dual, f),
             lambda: hall_inner(dual, f), lambda: hall_inner(f, dual),
             *(lambda pair=pair: cauchy_kernel(7, pair) for pair in DUAL.items())]
    with limits.scoped(limits.Limits(ring=5)):
        for call in calls:
            with pytest.raises(DegreeCapError, match="got 7;"):
                call()
        p = sym_element(P, {(7,): 2, (6,): 1})
        assert (counit(p), counit_star(p)) == (0, 3)
        assert omega(p).terms == {(7,): 2, (6,): -1}
        assert antipode(p).terms == {(7,): -2, (6,): -1}
