"""Hopf structure on symmetric functions: the two comultiplications
(alphabet sum and alphabet product), their counits, the antipode, the
Cauchy kernel, and plethysm.

Both coproducts are algebra morphisms determined on power sums:
the sum coproduct sends p_n to p_n x 1 + 1 x p_n, the product coproduct
sends p_n to p_n x p_n. Tensors are stored as (partition, partition) ->
rational in a chosen basis pair, with arithmetic implemented only as far
as the coproducts and the Cauchy kernel need.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from math import comb

from .partitions import Partition, as_partition, format_partition, z_value
from .ring import (
    BASES,
    H,
    M,
    P,
    S,
    PExpansion,
    PolynomialValue,
    SymElement,
    _add_scaled,
    _clear,
    _format_terms,
    _over,
    _p_mul,
    basis_element,
    evaluate,
    format_coeff,
    from_p_terms,
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


def _map_leg(terms: dict, leg: int, fn) -> dict[PairKey, Fraction]:
    """Apply fn, a linear map on one-leg term dicts, to leg ``leg`` (0 or 1)
    of a tensor: the terms are grouped by their other leg's partition and
    each group is mapped in one call."""
    groups: dict[Partition, dict] = {}
    for key, c in terms.items():
        groups.setdefault(key[1 - leg], {})[key[leg]] = c
    out: dict[PairKey, Fraction] = {}
    for other, chunk in groups.items():
        for lam, c in fn(chunk).items():
            out[(lam, other) if leg == 0 else (other, lam)] = c
    return out


def _to_pp(t: TensorElement) -> dict[PairKey, Fraction]:
    """Expansion of a tensor in the (p, p) pair, as a plain dict."""
    if t.bases == (P, P):
        return dict(t.terms)
    bl, br = t.bases
    half = _map_leg(t.terms, 0, lambda chunk: to_p_terms(SymElement(bl, chunk)))
    return _map_leg(half, 1, lambda chunk: to_p_terms(SymElement(br, chunk)))


def tensor_convert(t: TensorElement, bases) -> TensorElement:
    """Re-express a tensor in another basis pair, one leg at a time."""
    bl, br = bases
    if bl not in BASES or br not in BASES:
        raise ValueError(f"unknown basis pair {bases!r}")
    if t.bases == (bl, br):
        return t
    half = _map_leg(_to_pp(t), 0, lambda chunk: from_p_terms(bl, chunk).terms)
    return TensorElement((bl, br), _map_leg(half, 1, lambda chunk: from_p_terms(br, chunk).terms))


def tensor_inner(t: TensorElement, g: SymElement, h: SymElement) -> Fraction:
    """<t, g x h> with the componentwise Hall product."""
    gp = to_p_terms(g)
    hp = to_p_terms(h)
    total = Fraction(0)
    for (lam, mu), c in _to_pp(t).items():
        if lam in gp and mu in hp:
            total += c * gp[lam] * z_value(lam) * hp[mu] * z_value(mu)
    return total


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


def _sum_coproduct_of_p(lam: Partition) -> dict[PairKey, int]:
    """Coproduct of p_lam under p_n -> p_n x 1 + 1 x p_n: each sub-multiset
    of parts goes left, with the multiset binomial as multiplicity."""
    mult = sorted(Counter(lam).items())
    choices_per_value = [
        [(k, comb(m, k)) for k in range(m + 1)] for _, m in mult
    ]
    out: dict[PairKey, int] = {}
    for picks in _cartesian(*choices_per_value):
        left: list[int] = []
        right: list[int] = []
        ways = 1
        for (value, m), (k, binom) in zip(mult, picks):
            left.extend([value] * k)
            right.extend([value] * (m - k))
            ways *= binom
        key = (
            tuple(sorted(left, reverse=True)),
            tuple(sorted(right, reverse=True)),
        )
        out[key] = out.get(key, 0) + ways
    return out


def coproduct_sum(f: SymElement) -> TensorElement:
    """Delta f = f evaluated on the sum of two alphabets."""
    den, nums = _clear(to_p_terms(f))
    acc: dict[PairKey, int] = {}
    for lam, n in nums.items():
        _add_scaled(acc, n, _sum_coproduct_of_p(lam))
    return TensorElement((P, P), _over(acc, den))


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


def plethysm_alphabet_oracle(f: SymElement, g: SymElement, nvars: int):
    """Independent check of f[g] in finitely many variables: list g's
    monomials (with positive integral multiplicities) as a new alphabet,
    evaluate f on that alphabet, and expand back into x_1..x_nvars.

    Only valid when g evaluates with nonnegative integer coefficients."""
    gpoly = evaluate(g, nvars)
    alphabet = []
    for expvec, coeff in sorted(gpoly.terms.items()):
        c = Fraction(coeff)
        if c.denominator != 1 or c < 0:
            raise ValueError("oracle needs a nonnegative-integer inner alphabet")
        alphabet.extend([expvec] * int(c))
    fpoly = evaluate(f, len(alphabet))
    out: dict[tuple, Fraction] = {}
    for expvec, coeff in fpoly.terms.items():
        key = tuple(
            sum(e * mono[i] for e, mono in zip(expvec, alphabet))
            for i in range(nvars)
        )
        _add_scaled(out, coeff, {key: 1})
    return PolynomialValue(nvars, out)
