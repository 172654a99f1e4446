"""Hopf structure on symmetric functions: the two comultiplications
(alphabet sum and alphabet product), their counits, the antipode, the
Cauchy kernel, and plethysm.

Both coproducts are algebra morphisms determined on power sums:
the sum coproduct sends p_n to p_n x 1 + 1 x p_n, the product coproduct
sends p_n to p_n x p_n. Tensors are stored as (partition, partition) ->
rational in a chosen basis pair, with arithmetic implemented only as far
as the coproducts and the Cauchy kernel need.

A tensor is converted in one integer pass: its (p, p) expansion is cleared
to one denominator, each leg is mapped as sparse integer row combinations
over every partner partition at once, and one Fraction is built per output
coefficient.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from math import comb, prod

from . import limits
from .partitions import Partition, as_partition, format_partition, z_value
from .ring import (
    BASES,
    E,
    H,
    M,
    P,
    S,
    PExpansion,
    SymElement,
    _DUAL,
    _add_scaled,
    _by_degree,
    _cache,
    _clear,
    _format_terms,
    _omega_twist,
    _p_mul,
    _pairing,
    basis_element,
    format_coeff,
    sym_element,
    to_p_terms,
)

PairKey = tuple[Partition, Partition]


@dataclass(frozen=True, eq=False)
class TensorElement:
    """An element of Sym x Sym: finitely many ((lam, mu) -> rational) terms
    in a pair of bases, one per tensor leg."""

    bases: tuple[str, str]
    terms: dict

    def __add__(self, other: "TensorElement") -> "TensorElement":
        other = tensor_convert(other, self.bases)
        out = dict(self.terms)
        _add_scaled(out, 1, other.terms)
        return TensorElement(self.bases, out)

    def __rmul__(self, scalar) -> "TensorElement":
        c = Fraction(scalar)
        if not c:
            return TensorElement(self.bases, {})
        return TensorElement(self.bases, {k: c * v for k, v in self.terms.items()})

    def componentwise_product(self, other: "TensorElement") -> "TensorElement":
        """Leg-by-leg ring product (the product on Sym x Sym)."""
        a = _to_pp(self)
        b = _to_pp(other)
        out: dict[PairKey, Fraction] = {}
        for (la, ra), ca in a.items():
            shifted = {
                (tuple(sorted(la + lb, reverse=True)), tuple(sorted(ra + rb, reverse=True))): cb
                for (lb, rb), cb in b.items()
            }
            _add_scaled(out, ca, shifted)
        return TensorElement((P, P), out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return _to_pp(self) == _to_pp(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        bl, br = self.bases
        return _format_terms(
            (self.terms[(lam, mu)],
             f"{bl}[{format_partition(lam) if lam else ''}](x){br}[{format_partition(mu) if mu else ''}]")
            for lam, mu in sorted(self.terms, key=lambda k: (sum(k[0]) + sum(k[1]), k))
        )

    __repr__ = __str__


def tensor_element(bases, terms) -> TensorElement:
    bl, br = bases
    if bl not in BASES or br not in BASES:
        raise ValueError(f"unknown basis pair {bases!r}")
    out: dict[PairKey, Fraction] = {}
    for (lam, mu), c in dict(terms).items():
        c = Fraction(c)
        if c:
            out[(as_partition(lam), as_partition(mu))] = c
    return TensorElement((bl, br), out)


def _transpose(rows: dict[Partition, dict]) -> dict[Partition, dict]:
    """Rows keyed by one leg, each over the other leg, keyed by the other."""
    out: dict[Partition, dict] = {}
    for key, row in rows.items():
        for other, n in row.items():
            out.setdefault(other, {})[key] = n
    return out


def _map_legs(nums: dict[PairKey, int], bases, to_p: bool) -> dict[Partition, dict]:
    """Each leg of an integer tensor mapped in turn, one degree at a time:
    out[key] = sum over k of table[key][k] rows[k], every row a dict over
    the partner partitions of the other leg. To p the table is A_b
    transposed (A_p is z on the diagonal; the 1 / z is left to the caller),
    from p it is A_b*, eps-twisted for e, as in from_p_terms. Returns rows
    keyed by the right leg; entries that cancel stay as zeros."""
    rows: dict[Partition, dict] = {}
    for (lam, mu), n in nums.items():
        rows.setdefault(lam, {})[mu] = n
    for leg, basis in enumerate(bases):
        out: dict[Partition, dict] = {}
        for d, chunk in _by_degree(rows).items():
            if basis == P:
                table = {alpha: {alpha: z_value(alpha) if to_p else 1} for alpha in chunk}
            elif to_p:
                table = _transpose(_pairing(basis, d))
            else:
                table = _pairing(_DUAL[basis], d)
                if basis == E:
                    table = {lam: _omega_twist(row) for lam, row in table.items()}
            for key, coeffs in table.items():
                acc: dict[Partition, int] = {}
                for k, a in coeffs.items():
                    for other, n in chunk[k].items() if k in chunk else ():
                        acc[other] = acc.get(other, 0) + a * n
                out[key] = acc
        rows = out if leg else _transpose(out)
    return rows


def _to_pp(t: TensorElement) -> dict[PairKey, Fraction]:
    """Expansion of a tensor in the (p, p) pair, as a plain dict, summed in
    integers and divided by den z_alpha z_beta once per pair."""
    if t.bases == (P, P):
        return dict(t.terms)
    den, nums = _clear(t.terms)
    return {(alpha, beta): Fraction(n, den * z_value(alpha) * z_value(beta))
            for beta, row in _map_legs(nums, t.bases, True).items()
            for alpha, n in row.items() if n}


def tensor_convert(t: TensorElement, bases) -> TensorElement:
    """Re-express a tensor in another basis pair in one integer pass."""
    bl, br = bases
    if bl not in BASES or br not in BASES:
        raise ValueError(f"unknown basis pair {bases!r}")
    if t.bases == (bl, br):
        return t
    den, nums = _clear(_to_pp(t))
    return TensorElement((bl, br), {(lam, mu): Fraction(n, den)
                                    for mu, row in _map_legs(nums, bases, False).items()
                                    for lam, n in row.items() if n})


def tensor_inner(t: TensorElement, g: SymElement, h: SymElement) -> Fraction:
    """<t, g x h> with the componentwise Hall product, one integer sum."""
    dt, tn = _clear(_to_pp(t))
    dg, gn = _clear(to_p_terms(g))
    dh, hn = _clear(to_p_terms(h))
    total = sum(c * gn[lam] * z_value(lam) * hn[mu] * z_value(mu)
                for (lam, mu), c in tn.items() if lam in gn and mu in hn)
    return Fraction(total, dt * dg * dh)


def simple_tensor(f: SymElement, g: SymElement) -> TensorElement:
    fp = to_p_terms(f)
    gp = to_p_terms(g)
    return tensor_element(
        (P, P),
        {
            (lam, mu): cf * cg
            for (lam, cf), (mu, cg) in _cartesian(fp.items(), gp.items())
        },
    )


# --- the two coproducts -------------------------------------------------------


def _sum_coproduct_of_p(lam: Partition, memo: bool = True) -> dict[PairKey, int]:
    """Coproduct of p_lam under p_n -> p_n x 1 + 1 x p_n: each sub-multiset
    alpha of the parts goes left, the rest beta right, with multiplicity
    z_lam / (z_alpha z_beta), a product of binomials. Memoized per
    partition up to the ring cap."""
    if memo and sum(lam) <= limits.current().ring:
        return _cache.get(("coproduct", lam), lambda: _sum_coproduct_of_p(lam, False))
    mult = Counter(lam)  # keys in decreasing order, as the parts of lam
    out: dict[PairKey, int] = {}
    for ks in _cartesian(*(range(m + 1) for m in mult.values())):
        alpha = tuple(v for v, k in zip(mult, ks) for _ in range(k))
        beta = tuple(v for (v, m), k in zip(mult.items(), ks) for _ in range(m - k))
        out[(alpha, beta)] = prod(comb(m, k) for m, k in zip(mult.values(), ks))
    return out


def coproduct_sum(f: SymElement) -> TensorElement:
    """Delta f = f evaluated on the sum of two alphabets. Each pair
    (alpha, beta) comes from p_(alpha + beta) alone, so nothing cancels."""
    den, nums = _clear(to_p_terms(f))
    return TensorElement((P, P), {key: Fraction(n * ways, den) for lam, n in nums.items() if n
                                  for key, ways in _sum_coproduct_of_p(lam).items()})


def coproduct_prod(f: SymElement) -> TensorElement:
    """Delta* f = f evaluated on the product of two alphabets;
    on power sums p_n -> p_n x p_n."""
    return TensorElement(
        (P, P), {(lam, lam): c for lam, c in to_p_terms(f).items()}
    )


def counit(f: SymElement) -> Fraction:
    """Evaluation at the empty alphabet: the degree-0 coefficient."""
    return to_p_terms(f).get((), Fraction(0))


def counit_star(f: SymElement) -> Fraction:
    """Evaluation at the one-letter alphabet (1, 0, 0, ...): every p_lam
    contributes its coefficient."""
    return sum(to_p_terms(f).values(), Fraction(0))


def antipode(f: SymElement) -> SymElement:
    """The antipode of the sum-coproduct Hopf structure: the algebra
    morphism h_i -> (-1)^i e_i; on p_lam it is the sign (-1)^len(lam), and
    on a homogeneous degree-k element it equals (-1)^k omega."""
    out = {
        lam: c * ((-1) ** (len(lam) % 2)) for lam, c in to_p_terms(f).items()
    }
    return sym_element(P, out)


_DUAL_PAIRS = {(S, S), (H, M), (M, H), (P, P)}


def cauchy_kernel(n: int, pair) -> TensorElement:
    """The degree-n Cauchy kernel: the product-coproduct of h_n, expanded
    in a dual basis pair, where it is diagonal. Supported pairs: (s, s)
    with unit coefficients, (h, m) / (m, h), and (p, p) where the dual
    weight 1/z_lam appears in the coefficients."""
    pair = tuple(pair)
    if pair not in _DUAL_PAIRS:
        raise ValueError(f"{pair!r} is not a supported dual basis pair")
    if n < 0:
        raise ValueError("degree must be >= 0")
    kernel = coproduct_prod(basis_element(H, (n,) if n else ()))
    return tensor_convert(kernel, pair)


# --- plethysm -----------------------------------------------------------------


def plethysm(f: SymElement, g: SymElement, scale: int = 1) -> SymElement:
    """Plethystic substitution f[g], defined on power sums by
    p_n[p_m] = p_{nm}: p_n acts on g's power-sum expansion by multiplying
    every part index by n, and the result extends linearly and
    multiplicatively in f.

    ``scale`` repeats the inner alphabet a positive whole number of times
    (the substitution is not linear in g: p_lam of a doubled alphabet picks
    up 2^len(lam)), e.g. scale=2 with g = p_1 is the alphabet 2x."""
    if scale < 1:
        raise ValueError("alphabet scale must be a positive integer")
    gp = to_p_terms(g)
    out: PExpansion = {}
    for lam, c in to_p_terms(f).items():
        term: PExpansion = {(): Fraction(1)}
        for part in lam:
            # p_part[g]: mu -> part * mu is one to one and keeps parts sorted
            sub = {tuple(part * m for m in mu): scale * cg for mu, cg in gp.items()}
            term = _p_mul(term, sub)
        _add_scaled(out, c, term)
    return sym_element(P, out)


def tensor_to_json(t: TensorElement) -> list[dict]:
    keys = sorted(t.terms, key=lambda k: (sum(k[0]) + sum(k[1]), k))
    return [
        {
            "left": list(lam),
            "right": list(mu),
            "coeff": format_coeff(t.terms[(lam, mu)]),
        }
        for lam, mu in keys
    ]
