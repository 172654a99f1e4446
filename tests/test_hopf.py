import random
from fractions import Fraction

import pytest

from symfunc.characters import kronecker_product, littlewood_richardson
from symfunc.hopf import (
    TensorElement,
    antipode,
    cauchy_kernel,
    coproduct_prod,
    coproduct_sum,
    counit,
    counit_star,
    plethysm,
    tensor_convert,
    tensor_element,
    tensor_to_json,
)
from symfunc.partitions import conjugate, partitions_of
from symfunc.ring import (
    BASES,
    E,
    H,
    M,
    P,
    S,
    SymElement,
    basis_element,
    convert,
    evaluate,
    hall_inner,
    multiply,
    omega,
    one,
    sym_element,
)

from plethysm_oracle import plethysm_alphabet_oracle


def random_homogeneous(rng, degree, basis=None):
    b = basis or rng.choice(BASES)
    parts = partitions_of(degree)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lam = parts[rng.randrange(len(parts))]
        terms[lam] = terms.get(lam, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return sym_element(b, terms)


def h_or_unit(n):
    return basis_element(H, (n,) if n else ())


def test_sum_coproduct_on_power_sums():
    for n in range(1, 9):
        cp = coproduct_sum(basis_element(P, (n,)))
        assert cp.terms == {((n,), ()): Fraction(1), ((), (n,)): Fraction(1)}


def test_split_p_groups_the_sub_multiset_splits_by_their_ways_to_12():
    """For every lam |- d <= 12, the pairs of _split_p(lam) are distinct and
    are the splits of lam's parts into a left and a right sub-multiset, each
    under ways = z_lam / (z_alpha z_beta), the number of index subsets that
    give it; so the ways of all pairs sum to 2^len(lam). No ways repeats."""
    from itertools import combinations

    from symfunc.partitions import z_value
    from symfunc.ring import _split_p

    for d in range(13):
        for lam in partitions_of(d):
            groups = _split_p(lam)
            pairs = [pair for _, ps in groups for pair in ps]
            assert len(pairs) == len(set(pairs))
            assert len({ways for ways, _ in groups}) == len(groups)
            subsets = {}
            for k in range(len(lam) + 1):
                for left in combinations(range(len(lam)), k):
                    alpha = tuple(lam[i] for i in left)
                    beta = tuple(p for i, p in enumerate(lam) if i not in left)
                    subsets[(alpha, beta)] = subsets.get((alpha, beta), 0) + 1
            assert {pair: ways for ways, ps in groups for pair in ps} == subsets, lam
            for ways, ps in groups:
                assert all(ways * z_value(a) * z_value(b) == z_value(lam) for a, b in ps)
            assert sum(ways * len(ps) for ways, ps in groups) == 2 ** len(lam)


def test_sum_coproduct_and_its_tensor_convert_build_one_fraction_per_distinct_value(monkeypatch):
    """coproduct_sum of a dense degree-8 p element builds one Fraction per
    distinct (lam, ways), 53 against one per term, 185; its map to (s, s)
    builds one per distinct value of the answer."""
    from symfunc import hopf
    from symfunc.ring import _split_p

    rng = random.Random(39)
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    f = sym_element(P, {lam: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
                        for lam in partitions_of(8)})
    delta = coproduct_sum(f)
    out = tensor_convert(delta, (S, S))
    assert (sum(len(_split_p(lam)) for lam in partitions_of(8)), len(delta.terms)) == (53, 185)
    with monkeypatch.context() as m:
        m.setattr(hopf, "Fraction", counted)
        assert coproduct_sum(f).terms == delta.terms
        assert len(built) == 53
        built.clear()
        assert tensor_convert(delta, (S, S)).terms == out.terms
        assert len(built) == len(set(out.terms.values())) < len(out.terms)
    assert all(type(c) is Fraction for c in (*delta.terms.values(), *out.terms.values()))


def test_sum_coproduct_on_h_to_8():
    for n in range(1, 9):
        cp = tensor_convert(coproduct_sum(basis_element(H, (n,))), (H, H))
        expected = {}
        for k in range(n + 1):
            key = ((k,) if k else (), (n - k,) if n - k else ())
            expected[key] = Fraction(1)
        assert cp.terms == expected


def test_sum_coproduct_on_schur_gives_lr_to_8():
    for n in range(1, 9):
        for lam in partitions_of(n):
            cp = tensor_convert(coproduct_sum(basis_element(S, lam)), (S, S))
            for (mu, nu), c in cp.terms.items():
                assert c == littlewood_richardson(lam, mu, nu)
            total = sum(
                littlewood_richardson(lam, mu, nu)
                for k in range(n + 1)
                for mu in partitions_of(k)
                for nu in partitions_of(n - k)
            )
            assert total == sum(cp.terms.values())


def test_prod_coproduct_closed_forms_to_8():
    for n in range(1, 9):
        assert coproduct_prod(basis_element(P, (n,))).terms == {
            ((n,), (n,)): Fraction(1)
        }
        dh = tensor_convert(coproduct_prod(basis_element(H, (n,))), (S, S))
        assert dh.terms == {(lam, lam): Fraction(1) for lam in partitions_of(n)}
        de = tensor_convert(coproduct_prod(basis_element(E, (n,))), (S, S))
        assert de.terms == {
            (lam, conjugate(lam)): Fraction(1) for lam in partitions_of(n)
        }


def test_counit_fixtures():
    assert counit(one()) == 1
    for n in range(1, 7):
        assert counit(basis_element(P, (n,))) == 0
        assert counit_star(basis_element(H, (n,))) == 1
        assert counit_star(basis_element(P, (n,))) == 1
        assert counit_star(basis_element(E, (n,))) == (1 if n == 1 else 0)
    assert counit_star(one()) == 1


def test_counit_law():
    # (epsilon x 1) Delta = id on basis elements of degree <= 8
    for n in range(0, 9):
        for b in BASES:
            for lam in partitions_of(n):
                f = basis_element(b, lam)
                collapsed = {}
                for (mu, nu), c in coproduct_sum(f).terms.items():
                    if mu == ():  # epsilon kills every positive-degree left leg
                        collapsed[nu] = collapsed.get(nu, 0) + c
                assert sym_element(P, collapsed) == f


def test_coassociativity_on_basis_elements():
    # (Delta x 1) Delta = (1 x Delta) Delta, expanded into triples in p
    def triples_left(f):
        out = {}
        for (a, b), c in coproduct_sum(f).terms.items():
            for (a1, a2), c2 in coproduct_sum(basis_element(P, a)).terms.items():
                key = (a1, a2, b)
                out[key] = out.get(key, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    def triples_right(f):
        out = {}
        for (a, b), c in coproduct_sum(f).terms.items():
            for (b1, b2), c2 in coproduct_sum(basis_element(P, b)).terms.items():
                key = (a, b1, b2)
                out[key] = out.get(key, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    for n in range(0, 9):
        for b in (P, H, S):
            for lam in partitions_of(n):
                f = basis_element(b, lam)
                assert triples_left(f) == triples_right(f)


def pp_product(s: TensorElement, t: TensorElement) -> TensorElement:
    """The leg-by-leg product of two (p, p) tensors: p_a p_b = p_(a u b)."""
    out = {}
    for (la, ra), a in s.terms.items():
        for (lb, rb), b in t.terms.items():
            key = (tuple(sorted(la + lb, reverse=True)), tuple(sorted(ra + rb, reverse=True)))
            out[key] = out.get(key, 0) + a * b
    return tensor_element((P, P), out)


def test_sum_coproduct_is_algebra_morphism():
    rng = random.Random(97)
    for _ in range(8):
        f = random_homogeneous(rng, rng.randint(0, 3))
        g = random_homogeneous(rng, rng.randint(0, 3))
        lhs = coproduct_sum(multiply(f, g))
        rhs = pp_product(coproduct_sum(f), coproduct_sum(g))
        assert lhs == rhs


def test_coproducts_are_linear():
    rng = random.Random(101)
    for _ in range(8):
        f = random_homogeneous(rng, rng.randint(0, 4))
        g = random_homogeneous(rng, rng.randint(0, 4))
        for delta in (coproduct_sum, coproduct_prod):
            fg = tensor_convert(delta(f), (S, H)) + delta(g)
            assert fg.bases == (S, H)
            assert fg == delta(f + g)
            assert 2 * delta(f) == delta(2 * f)
            assert (0 * delta(f)).is_zero()


def test_inner_product_compatibility_100_random_triples():
    # <Delta f, g x h> = <f, g h> and <Delta* f, g x h> = <f, g star h>
    rng = random.Random(101)
    for _ in range(100):
        df = rng.randint(0, 6)
        f = random_homogeneous(rng, df)
        dg = rng.randint(0, df)
        g = random_homogeneous(rng, dg)
        h = random_homogeneous(rng, df - dg if rng.random() < 0.8 else rng.randint(0, 6))

        def paired(t):  # <t, g x h>, the Hall pairing leg by leg
            bl, br = t.bases
            return sum(c * hall_inner(basis_element(bl, lam), g) * hall_inner(basis_element(br, mu), h)
                       for (lam, mu), c in t.terms.items())

        assert paired(coproduct_sum(f)) == hall_inner(f, multiply(g, h))
        assert paired(coproduct_prod(f)) == hall_inner(f, kronecker_product(g, h))


def test_antipode_fixtures():
    assert antipode(one()) == one()
    for i in range(1, 9):
        assert antipode(basis_element(H, (i,))) == ((-1) ** i) * basis_element(E, (i,))
    # homogeneous degree-k antipode = (-1)^k omega
    rng = random.Random(103)
    for _ in range(6):
        k = rng.randint(0, 6)
        f = random_homogeneous(rng, k)
        assert antipode(f) == ((-1) ** k) * omega(f)


def test_antipode_axiom_on_h_to_8():
    # multiply the antipode into one leg of Delta h_n and sum: epsilon(h_n) 1
    for n in range(0, 9):
        f = h_or_unit(n)
        acc = sym_element(P, {})
        for (a, b), c in coproduct_sum(f).terms.items():
            acc = acc + c * multiply(basis_element(P, a), antipode(basis_element(P, b)))
        expected = counit(f) * one()
        assert acc == expected
        # and on the other side
        acc2 = sym_element(P, {})
        for (a, b), c in coproduct_sum(f).terms.items():
            acc2 = acc2 + c * multiply(antipode(basis_element(P, a)), basis_element(P, b))
        assert acc2 == expected


def test_cauchy_kernel_pairs_to_8():
    for n in range(0, 9):
        ss = cauchy_kernel(n, (S, S))
        assert ss.terms == {(lam, lam): Fraction(1) for lam in partitions_of(n)}
        hm = cauchy_kernel(n, (H, M))
        assert hm.terms == {(lam, lam): Fraction(1) for lam in partitions_of(n)}
        mh = cauchy_kernel(n, (M, H))
        assert mh.terms == {(lam, lam): Fraction(1) for lam in partitions_of(n)}
        from symfunc.partitions import z_value

        pp = cauchy_kernel(n, (P, P))
        assert pp.terms == {
            (lam, lam): Fraction(1, z_value(lam)) for lam in partitions_of(n)
        }


def test_cauchy_kernel_rejects_non_dual_pairs():
    with pytest.raises(ValueError):
        cauchy_kernel(3, (S, H))
    with pytest.raises(ValueError):
        cauchy_kernel(3, (E, E))


@pytest.mark.parametrize("bases", [(S,), (S, S, S), ()])
def test_tensor_basis_pair_must_have_two_bases(bases):
    t = tensor_element((S, S), {((1,), ()): 1})
    for make in (lambda: tensor_convert(t, bases), lambda: tensor_element(bases, {})):
        with pytest.raises(ValueError, match="basis pair must be two bases"):
            make()


def test_cauchy_zero_degree():
    assert cauchy_kernel(0, (S, S)).terms == {((), ()): Fraction(1)}


def test_plethysm_power_sum_rule():
    for n in range(1, 5):
        for m in range(1, 5):
            assert plethysm(
                basis_element(P, (n,)), basis_element(P, (m,))
            ) == basis_element(P, (n * m,))


def test_plethysm_scaled_alphabet():
    # p_n of the doubled one-letter alphabet: 2 x^n + 2 y^n in two variables
    for n in range(1, 5):
        f = plethysm(basis_element(P, (n,)), basis_element(P, (1,)), scale=2)
        poly = evaluate(f, 2)
        assert poly.terms == {(n, 0): Fraction(2), (0, n): Fraction(2)}
    # p_lam of a doubled alphabet picks up 2^len(lam)
    for lam in [(2, 1), (3, 2, 1), (2, 2)]:
        f = plethysm(basis_element(P, lam), basis_element(P, (1,)), scale=2)
        assert f == (2 ** len(lam)) * basis_element(P, lam)


def test_plethysm_against_alphabet_oracle():
    cases = [
        (basis_element(H, (2,)), basis_element(H, (2,))),
        (basis_element(E, (2,)), basis_element(E, (2,))),
        (basis_element(H, (3,)), basis_element(H, (2,))),
    ]
    for f, g in cases:
        composed = plethysm(f, g)
        for m in range(1, 5):
            assert evaluate(composed, m) == plethysm_alphabet_oracle(f, g, m)


def test_plethysm_associativity_samples():
    gens = [basis_element(P, (i,)) for i in (1, 2, 3)]
    for f in gens:
        for g in gens:
            for h in gens:
                if f.degree() * g.degree() * h.degree() <= 8:
                    assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))
    f = basis_element(H, (2,))
    g = basis_element(P, (2,))
    h = basis_element(P, (2,))
    assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))


def test_plethysm_morphism_in_outer_argument():
    rng = random.Random(107)
    g = basis_element(H, (2,))
    for _ in range(5):
        f1 = random_homogeneous(rng, rng.randint(1, 3))
        f2 = random_homogeneous(rng, rng.randint(1, 3))
        assert plethysm(multiply(f1, f2), g) == multiply(
            plethysm(f1, g), plethysm(f2, g)
        )
        assert plethysm(f1 + f2, g) == plethysm(f1, g) + plethysm(f2, g)


def test_plethysm_commutes_with_power_sums():
    # p_n[f] = f[p_n]
    rng = random.Random(109)
    for n in range(1, 4):
        pn = basis_element(P, (n,))
        for _ in range(4):
            f = random_homogeneous(rng, rng.randint(1, 4))
            assert plethysm(pn, f) == plethysm(f, pn)


def test_tensor_element_json_and_convert_roundtrip():
    t = tensor_element((S, S), {((2,), (1,)): Fraction(3, 2)})
    assert tensor_to_json(t) == [{"left": [2], "right": [1], "coeff": "3/2"}]
    roundtrip = tensor_convert(tensor_convert(t, (P, P)), (S, S))
    assert roundtrip == t
    # mixed-pair conversion keeps the element
    viahm = tensor_convert(tensor_convert(t, (H, M)), (S, S))
    assert viahm == t


# --- the per-partner leg map, kept as an oracle for the integer pass ----------


def _map_leg_oracle(terms, leg, fn):
    """Apply fn, a linear map on one-leg term dicts, to one leg of a tensor,
    one call per partition of the other leg."""
    groups = {}
    for key, c in terms.items():
        groups.setdefault(key[1 - leg], {})[key[leg]] = c
    out = {}
    for other, chunk in groups.items():
        for lam, c in fn(chunk).items():
            out[(lam, other) if leg == 0 else (other, lam)] = c
    return out


def _to_pp_oracle(t):
    if t.bases == (P, P):
        return dict(t.terms)
    bl, br = t.bases
    half = _map_leg_oracle(t.terms, 0, lambda chunk: convert(SymElement(bl, chunk), P).terms)
    return _map_leg_oracle(half, 1, lambda chunk: convert(SymElement(br, chunk), P).terms)


def _convert_oracle(t, bases):
    bl, br = bases
    half = _map_leg_oracle(_to_pp_oracle(t), 0, lambda chunk: convert(sym_element(P, chunk), bl).terms)
    return _map_leg_oracle(half, 1, lambda chunk: convert(sym_element(P, chunk), br).terms)


def _random_tensor(rng, bases):
    """Mixed-degree terms, degree-0 legs included, with coefficients over
    small and large coprime denominators."""
    terms = {}
    for _ in range(rng.randint(1, 7)):
        lam = rng.choice(partitions_of(rng.randint(0, 4)))
        mu = rng.choice(partitions_of(rng.randint(0, 4)))
        terms[(lam, mu)] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 10007, 65537]))
    return tensor_element(bases, terms)


def test_integer_tensor_pass_matches_per_partner_oracle_in_all_pairs():
    rng = random.Random(127)
    pairs = [(a, b) for a in BASES for b in BASES]
    assert len(pairs) == 25
    for target in pairs:
        sources = [tensor_element(rng.choice(pairs), {}),
                   tensor_element(rng.choice(pairs), {((), ()): Fraction(3, 65537)})]
        sources += [_random_tensor(rng, rng.choice(pairs)) for _ in range(4)]
        for t in sources:
            pp = tensor_convert(t, (P, P)).terms
            assert pp == _to_pp_oracle(t)
            assert all(type(c) is Fraction for c in pp.values())
            out = tensor_convert(t, target)
            assert out.bases == target
            assert out.terms == _convert_oracle(t, target)
            assert all(type(c) is Fraction and c for c in out.terms.values())
    zero = tensor_convert(tensor_element((S, H), {}), (E, M))
    assert isinstance(zero, TensorElement) and zero.terms == {}
    assert tensor_convert(zero, (P, P)).terms == {}


def test_same_bases_tensor_equality_compares_terms_and_builds_no_table(monkeypatch):
    """Tensors in one basis pair are equal term by term, with no table built;
    mixed pairs still compare in (p, p)."""
    from symfunc import ring

    fresh = ring._OnceCache()
    monkeypatch.setattr(ring, "_cache", fresh)
    t = tensor_element((S, H), {((21,), (1,)): 1, ((3,), ()): Fraction(-1, 2)})
    assert t == tensor_element((S, H), {((3,), ()): Fraction(-1, 2), ((21,), (1,)): 1})
    assert t != 2 * t and TensorElement((S, H), {**t.terms, ((2,), (2,)): 0}) == t
    assert fresh.compute_counts == {}
    delta = coproduct_sum(basis_element(S, (2, 1)))
    for pair in ((S, S), (H, M), (E, P)):
        assert tensor_convert(delta, pair) == delta != 2 * tensor_convert(delta, pair)
