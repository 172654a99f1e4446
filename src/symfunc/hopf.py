"""Hopf structure on symmetric functions: the two comultiplications
(alphabet sum and alphabet product), their counits, the antipode, the
Cauchy kernel, and plethysm.

Both coproducts are algebra morphisms determined on power sums:
the sum coproduct sends p_n to p_n x 1 + 1 x p_n, the product coproduct
sends p_n to p_n x p_n. Tensors are stored as (partition, partition) ->
rational in a chosen basis pair, with arithmetic only as the coproducts need.

The counits read the element's own terms, the antipode is omega with signs,
the Cauchy kernel is the diagonal of a dual pair. The coproducts, the tensor
maps and plethysm read power sums in ring's integer handoff, (D, nums) over one
denominator: _p_ints for an element, _pp_ints for a tensor, whose legs are
mapped one (left degree, right degree) block at a time, as a dense matrix
by ring's _transition, which also puts each leg over its top degree's
factorial (so _pp_ints keeps no normalisation); plethysm multiplies by ring's
merge map within the ring cap, and sparse above it. One Fraction per output
coefficient, except where a coproduct's values repeat: the sum coproduct
builds one per p_lam and multiplicity, tensor_convert one per distinct value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import factorial

from . import limits
from ._record import Record
from .partitions import Partition, as_partition, format_partition, partitions_of, z_value
from .ring import (
    BASES,
    E,
    M,
    P,
    S,
    SymElement,
    _DUAL_PAIRS,
    _add_scaled,
    _checked,
    _clear,
    _concat_mul,
    _format_terms,
    _nonzero,
    _p_ints,
    _sum_coproduct_of_p,
    _transition,
    format_coeff,
    omega,
)

PairKey = tuple[Partition, Partition]


class TensorElement(Record):
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self.bases == other.bases:
            return _nonzero(self.terms) == _nonzero(other.terms)
        return tensor_convert(self, (P, P)).terms == tensor_convert(other, (P, P)).terms

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        bl, br = self.bases
        return _format_terms(
            (self.terms[(lam, mu)],
             f"{bl}[{format_partition(lam) if lam else ''}](x){br}[{format_partition(mu) if mu else ''}]")
            for lam, mu in sorted(self.terms, key=_print_order)
        )

    __repr__ = __str__


def _print_order(key: PairKey):
    """Tensor terms are listed by total degree, then by the pair itself."""
    return (sum(key[0]) + sum(key[1]), key)


def _basis_pair(bases) -> tuple[str, str]:
    pair = tuple(bases)
    if len(pair) != 2:
        raise ValueError(f"basis pair must be two bases, e.g. s,s: {bases!r}")
    if pair[0] not in BASES or pair[1] not in BASES:
        raise ValueError(f"unknown basis pair {bases!r}")
    return pair


def tensor_element(bases, terms) -> TensorElement:
    bases = _basis_pair(bases)
    out: dict[PairKey, Fraction] = {}
    for (lam, mu), c in dict(terms).items():
        c = Fraction(c)
        if c:
            out[(as_partition(lam), as_partition(mu))] = c
    return TensorElement(bases, out)


def _map_legs(nums: dict[PairKey, int], bases, tops: tuple) -> dict[PairKey, int]:
    """Both legs of an integer tensor mapped by _transition, left then right, each
    with its top in ``tops`` (None: from p), one (left degree, right degree) block
    at a time, as a dense matrix. Zeros are left out."""
    blocks: dict[tuple[int, int], dict] = {}  # per block, the row over the lefts of each right
    for (lam, mu), n in nums.items():
        blocks.setdefault((sum(lam), sum(mu)), {}).setdefault(mu, {})[lam] = n
    out: dict[PairKey, int] = {}
    for (a, b), block in blocks.items():
        keys = list(dict.fromkeys(chain.from_iterable(block.values())))
        vecs = [list(map(row.get, keys, repeat(0))) for row in block.values()]
        lefts, cols = _transition(bases[0], a, keys, tops[0], vecs)
        rights, rows = _transition(bases[1], b, list(block), tops[1], list(zip(*cols)))
        for lam, row in zip(lefts, rows):
            out.update(compress(zip(zip(repeat(lam), rights), row), row))
    return out


def _pp_ints(t: TensorElement) -> tuple[int, dict[PairKey, int]]:
    """The (p, p) expansion of a tensor in integers, (D, nums) with
    [p_alpha x p_beta] t = nums[(alpha, beta)] / D: each leg is mapped to p
    over a! and b!, for a and b the top degrees of the legs."""
    den, nums = _clear(t.terms)
    if t.bases == (P, P):
        return den, nums
    a = max((sum(lam) for lam, _ in nums), default=0)
    b = max((sum(mu) for _, mu in nums), default=0)
    return den * factorial(a) * factorial(b), _map_legs(nums, t.bases, (a, b))


def tensor_convert(t: TensorElement, bases) -> TensorElement:
    """Re-express a tensor in another basis pair in one integer pass."""
    bases = _basis_pair(bases)
    if t.bases == bases:
        return t
    den, nums = _pp_ints(t)
    out = _map_legs(nums, bases, (None, None))
    coeffs = {n: Fraction(n, den) for n in set(out.values())}  # one per distinct value: few in a coproduct
    return TensorElement(bases, dict(zip(out, map(coeffs.__getitem__, out.values()))))


# --- the two coproducts -------------------------------------------------------


def coproduct_sum(f: SymElement) -> TensorElement:
    """Delta f = f evaluated on the sum of two alphabets. Each pair
    (alpha, beta) comes from p_(alpha + beta) alone, so nothing cancels, and
    the pairs of one p_lam with equal ways share one coefficient."""
    den, nums = _p_ints(f)
    out: dict[PairKey, Fraction] = {}
    for lam, n in nums.items():
        for ways, pairs in _sum_coproduct_of_p(lam):
            out.update(zip(pairs, repeat(Fraction(n * ways, den))))
    return TensorElement((P, P), out)


def coproduct_prod(f: SymElement) -> TensorElement:
    """Delta* f = f evaluated on the product of two alphabets;
    on power sums p_n -> p_n x p_n."""
    den, nums = _p_ints(f)
    return TensorElement((P, P), {(lam, lam): Fraction(n, den) for lam, n in nums.items()})


def counit(f: SymElement) -> Fraction:
    """Evaluation at the empty alphabet: the coefficient of b_() = 1."""
    return Fraction(_checked(f).get((), 0))


def counit_star(f: SymElement) -> Fraction:
    """Evaluation at (1, 0, 0, ...): b_lam(1) is 1 for every h_lam and p_lam,
    s_lam and m_lam with one part at most and e_lam with parts 1 only, else 0."""
    return Fraction(sum(c for lam, c in _checked(f).items()
                        if (len(lam) <= 1 if f.basis in (S, M) else f.basis != E or lam[:1] <= (1,))))


def antipode(f: SymElement) -> SymElement:
    """The antipode of the sum-coproduct Hopf structure: the algebra morphism
    h_i -> (-1)^i e_i, (-1)^k omega on degree k, so it is returned as omega's
    is: s for s, e for h, h for e, p for p and m; on p_lam it is (-1)^len(lam)."""
    g = omega(f)
    return SymElement(g.basis, {lam: -c if sum(lam) % 2 else c for lam, c in g.terms.items()})


def cauchy_kernel(n: int, pair) -> TensorElement:
    """The degree-n Cauchy kernel, Delta* h_n = sum_lam b_lam(x) b*_lam(y) over a
    dual pair <b_lam, b*_mu> = delta (Macdonald I.4): unit coefficients for (s, s),
    (h, m) and (m, h), 1/z_lam for (p, p). n is held to the ring cap, as h_n to p is."""
    pair = tuple(pair)
    if pair not in _DUAL_PAIRS:
        raise ValueError(f"{pair!r} is not a supported dual basis pair")
    if n < 0:
        raise ValueError("degree must be >= 0")
    limits.check("ring", n)
    return TensorElement(pair, {(lam, lam): Fraction(1, z_value(lam) if pair == (P, P) else 1)
                                for lam in partitions_of(n)})


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
    (dg, gn), (df, fn) = _p_ints(g), _p_ints(f)
    top = max(map(len, fn), default=0)  # p_lam[g] is over dg^len(lam): put all over dg^top
    out: dict[Partition, int] = {}
    for lam, c in fn.items():
        term = {(): c * dg ** (top - len(lam))}
        for part in lam:  # p_part[g]: mu -> part * mu is one to one and keeps parts sorted
            term = _concat_mul(term, {tuple(part * m for m in mu): scale * n for mu, n in gn.items()})
        _add_scaled(out, 1, term)
    return SymElement(P, {mu: Fraction(v, df * dg ** top) for mu, v in out.items()})


def tensor_to_json(t: TensorElement) -> list[dict]:
    keys = sorted(t.terms, key=_print_order)
    return [
        {
            "left": list(lam),
            "right": list(mu),
            "coeff": format_coeff(t.terms[(lam, mu)]),
        }
        for lam, mu in keys
    ]
