"""The graded ring of symmetric functions over exact rationals.

Five classical bases (monomial m, elementary e, complete homogeneous h,
power sum p, Schur s). A dual pair's Hall pairing sums over common keys and
omega relabels terms, with no table; all else goes through p, where products
concatenate parts and the Hall product is diagonal with weights z_lambda.

The bases h, s and m are each carried by one integer table per degree, their
Hall pairing with the power sums, A_b[lam][mu] = <b_lam, p_mu> (integral,
since they are integral bases and p_mu is integral), stored once as a tuple
of dense rows of ints, both axes in partitions_of(degree) order:

  * h: <h_lam, p_mu> counts the ways to deal mu's parts into rows of lengths
    lam; one cached row per shape, which extends the row of lam[1:] one
    degree lower, because <h_a f, p_mu> = sum over alpha |- a with
    alpha + beta = mu of z_mu / (z_alpha z_beta) <f, p_beta>;
  * s: Murnaghan-Nakayama, <s_lam, p_rho> = sum over the border strips xi
    of length rho_1 of (-1)^ht(xi) <s_(lam - xi), p_(rho_2, ...)>: one cached
    row per shape, which reads only the rows of the shapes lam - xi; a shape
    with more rows than columns is the eps twist of its conjugate;
  * m: with k = lam_1 and nu = lam[1:], p_k m_nu is m_k(lam) m_lam plus one
    m of each shape nu with a part q raised to q + k, and pairs with p_mu
    as k m_k(mu) <m_nu, p_(mu less k)>: one cached row per shape, from the
    row of nu and rows with fewer parts, divided by m_k(lam), where a
    remainder raises.

Each table is the tuple of its rows. e has no table: e_lam = omega(h_lam),
so its power sums are the h-row sum twisted by eps_mu = (-1)^(|mu| -
len(mu)). The pairings <f, p_mu> (_pair_p) and every map to p read only
the rows of the element's own keys; every map out of p reads a whole table.

No table is inverted: [p_mu] b_lam = A_b[lam][mu] / z_mu, and [b_lam] f is
<f, b*_lam>, a row of the table of the Hall dual basis b* (s for s, h for
m, m for h, and omega(m), the eps twist of the m table, for e). The 1 / z_mu
is applied in one place, _transition's map to p, over t! for the caller's
top degree t, as the class sizes d! / z_mu of S_d in ("sizes", d), computed
on first read by a map to p, kronecker or decompose; s rows read none.
Kernels hand each other power sums as ints over one denominator (_p_ints:
a dict of the nonzero p_mu, so p input of any degree stays sparse and only
a degree that meets a table is enumerated, after its cap check), multiply
them by the table rows they touch in C-level sum(map(mul, ..)) dots, and
build the Fractions at the public return: one per output coefficient, or,
where values repeat, one per distinct value (hopf.tensor_convert) or per
group of equal ways (hopf.coproduct_sum).
Every memo in this module is one family of keys in _cache, built within
the ring cap: the pairing tables, the h, s and m rows, the classes, the
class sizes, the merge and insertion maps below, and the sum coproduct of
each p_lam, its splits grouped by multiplicity. The cache is
compute-then-publish under one reentrant lock: readers never see a partial
value and each key is computed at most once, provided no compute waits on
another thread that reads the cache.
_skew_p applies s_mu^perp to those power sums; perp is its one public route.
skew_schur reads no table: s_(lam/mu) = sum of c^lam_(mu nu) s_nu, and
tableaux._lr_fillings counts the LR tableaux of shape lam/mu by content nu.

Every union of partitions (products, the h and m rows, _skew_p) is read
from a cached merge or insertion map, in rank space: those list
partitions_of(a + b), so only within the ring cap; above it a product stays
sparse and sorts parts.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import compress, product, repeat
from math import comb, factorial, lcm, prod
from operator import add, floordiv, itemgetter, mod, mul, neg, sub

from . import limits
from ._record import Record
from .errors import InvariantViolationError
from .partitions import (
    Partition,
    as_partition,
    conjugate,
    contains,
    format_partition,
    parse_partition,
    partition_ranks,
    partitions_of,
    z_value,
)

M, E, H, P, S = "m", "e", "h", "p", "s"
BASES = (M, E, H, P, S)

# A_b[lam][mu] = <b_lam, p_mu>, a dense row per lam, both in partitions_of order
PairingTable = tuple[tuple[int, ...], ...]


class _OnceCache:
    """Thread-safe memo: each key computed at most once, and readers see only
    fully built values, read without a lock. A missing value is computed under
    the cache's one reentrant lock, so a build may read other keys (an s row
    reads smaller ones); no compute may wait on another thread that reads
    this cache. A failed compute publishes nothing."""

    def __init__(self):
        self._data: dict = {}
        self._lock = threading.RLock()
        self.compute_counts: dict = {}

    def get(self, key, compute, *args):
        try:
            return self._data[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._data:
                value = compute(*args)
                self.compute_counts[key] = self.compute_counts.get(key, 0) + 1
                self._data[key] = value
            return self._data[key]


_cache = _OnceCache()


def _validate_basis(b: str) -> str:
    if b not in BASES:
        raise ValueError(f"unknown basis {b!r}; expected one of {BASES}")
    return b


def _require_integer(c, what: str, den: int, *args) -> int:
    """c / den as an int (c an int or a Fraction), or raise, named by what.format(*args)."""
    q, r = divmod(c.numerator, c.denominator * den)
    if r:
        raise InvariantViolationError(f"{what.format(*args)} is non-integral: {Fraction(c, den)}")
    return q


# --- integer kernels ---------------------------------------------------------


def _add_scaled(acc: dict, c, vec: dict) -> None:
    """acc += c * vec on sparse coefficient dicts, dropping keys that cancel."""
    for key, coeff in vec.items():
        c2 = acc.get(key, 0) + c * coeff
        if c2:
            acc[key] = c2
        elif key in acc:
            del acc[key]


def _nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


def _clear(terms: dict) -> tuple[int, dict]:
    """(D, D * terms) for D the lcm of the denominators of the values, so
    that every value of the second is an int; each value is read once."""
    ratios = [c.as_integer_ratio() for c in terms.values()]
    den = lcm(*{d for _, d in ratios})
    return den, {k: n * (den // d) for k, (n, d) in zip(terms, ratios)}


def _by_degree(terms: dict) -> dict[int, dict]:
    """The nonzero terms split into homogeneous chunks, keyed by degree."""
    chunks: dict[int, dict] = {}
    for lam, c in terms.items():
        if c:
            chunks.setdefault(sum(lam), {})[lam] = c
    return chunks


def _gather(at: list[int]):
    """row -> the tuple of its entries at the positions ``at`` (not empty)."""
    return itemgetter(*at) if len(at) > 1 else lambda row: (row[at[0]],)


# --- unions of partitions in rank space --------------------------------------


def _insertions(k: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each nu |- m by rank: the rank of nu u (k) in partitions_of(m + k), and m_k(nu) + 1."""
    ranks, nus = partition_ranks(m + k), partitions_of(m)
    new = (ranks[nu[:i] + (k,) + nu[i:]] for nu in nus for i in [bisect_right(nu, -k, key=neg)])
    return tuple(new), tuple(nu.count(k) + 1 for nu in nus)


def _merges(a: int, b: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The merge map (a, b): for a > b the transpose of the map (b, a); else
    row alpha inserts k = alpha_1 into row alpha[1:] of the map (a - k, b)
    (the alpha with alpha_1 = k read its last rows, in order), and the
    weight gains the factor (m_k(alpha[1:] u beta) + 1) / m_k(alpha)."""
    if a > b:
        return tuple(tuple(zip(*half)) for half in _merge_map(b, a))
    if not a:
        return (tuple(range(len(partitions_of(b)))),), ((1,) * len(partitions_of(b)),)
    alphas, ranks, weights = partitions_of(a), [], []
    for k, size in Counter(alpha[0] for alpha in alphas).items():
        new, mult = _cache.get(("insert", k, a - k + b), _insertions, k, a - k + b)
        for alpha, rs, ws in zip(alphas[len(ranks):], *(half[-size:] for half in _merge_map(a - k, b))):
            ranks.append(tuple(map(new.__getitem__, rs)))
            gained = map(mul, ws, map(mult.__getitem__, rs))
            weights.append(tuple(map(floordiv, gained, repeat(alpha.count(k)))))
    return tuple(ranks), tuple(weights)


def _merge_map(a: int, b: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """(ranks, weights) at alpha |- a, beta |- b by rank: the rank of alpha u beta in
    partitions_of(a + b) and z_(alpha u beta) / (z_alpha z_beta); capped as a table is."""
    limits.check("ring", a + b)
    return _cache.get(("merge", a, b), lambda: _merges(a, b))


def _concat_mul(a: dict, b: dict) -> dict:
    """p_alpha p_beta = p_(alpha u beta) on power sums: by the merge map up to
    the ring cap; above it sparse, by sorting. Cancelled keys may stay as zeros."""
    cap, out, dense = limits.current().ring, {}, {}
    for da, ca in _by_degree(a).items():
        for db, cb in _by_degree(b).items():
            if da + db > cap:
                for (ka, x), (kb, y) in product(ca.items(), cb.items()):
                    key = tuple(sorted(ka + kb, reverse=True))
                    out[key] = out.get(key, 0) + x * y
                continue
            acc = dense.setdefault(da + db, [0] * len(partitions_of(da + db)))
            merged, ranks, ys = _merge_map(da, db)[0], partition_ranks(da), list(cb.values())
            get = _gather(list(map(partition_ranks(db).__getitem__, cb)))
            for ka, x in ca.items():
                for r, y in zip(get(merged[ranks[ka]]), ys):
                    acc[r] += x * y
    for d, acc in dense.items():
        out.update(compress(zip(partitions_of(d), acc), acc))
    return out


def _sum_coproduct_of_p(lam: Partition) -> tuple[tuple[int, tuple], ...]:
    """_split_p(lam), its (ways, pairs) groups, memoized per partition up to the ring cap."""
    if sum(lam) > limits.current().ring:
        return _split_p(lam)
    return _cache.get(("coproduct", lam), lambda: _split_p(lam))


def _split_p(lam: Partition) -> tuple[tuple[int, tuple], ...]:
    """Coproduct of p_lam under p_n -> p_n x 1 + 1 x p_n: each sub-multiset
    alpha of the parts goes left, the rest beta right, with multiplicity
    z_lam / (z_alpha z_beta), a product of binomials. Grouped by that
    multiplicity, as (ways, pairs (alpha, beta)), since few values repeat."""
    mult = Counter(lam)  # keys in decreasing order, as the parts of lam
    out: dict[int, list] = {}
    for ks in product(*(range(m + 1) for m in mult.values())):
        alpha = tuple(v for v, k in zip(mult, ks) for _ in range(k))
        beta = tuple(v for (v, m), k in zip(mult.items(), ks) for _ in range(m - k))
        out.setdefault(prod(comb(m, k) for m, k in zip(mult.values(), ks)), []).append((alpha, beta))
    return tuple((ways, tuple(pairs)) for ways, pairs in out.items())


def _omega_sign(mu: Partition) -> int:
    """(-1)^(|mu| - len(mu)): omega's sign on p_mu, and that of cycle type mu."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def _classes(d: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Built once per degree, over partitions_of(d): the blocks (k, #{rho |- d :
    rho_1 = k}) in that order, which every s row reads, and eps (_omega_sign)."""
    return _cache.get(("classes", d), lambda: (
        tuple(Counter(rho[0] for rho in partitions_of(d) if rho).items()),
        tuple(map(_omega_sign, partitions_of(d)))))


def _class_sizes(d: int) -> tuple[int, ...]:
    """The class sizes d! / z_rho of S_d over partitions_of(d), built once per
    degree when first read (by a map to p, kronecker or decompose)."""
    return _cache.get(("sizes", d), lambda: tuple(factorial(d) // z_value(rho) for rho in partitions_of(d)))


# --- the pairing tables ------------------------------------------------------


def _strips(lam: Partition) -> dict[int, list[tuple[Partition, int]]]:
    """{k: [(lam minus xi, (-1)^ht(xi)), ...]} over the border strips xi of
    lam, by length k, in one pass over beta numbers: the bead at b moves to
    each free t < b, k = b - t, and ht(xi) counts the beads it passes."""
    ell, out = len(lam), {}
    beta = [p + ell - 1 - i for i, p in enumerate(lam)]
    less = tuple(p - 1 for p in lam)  # the row of each passed bead loses one cell
    for i, b in enumerate(beta):
        j, sign = i + 1, 1  # the beads passed are beta[i + 1:j]
        for t in range(b - 1, -1, -1):
            if j < ell and beta[j] == t:
                j, sign = j + 1, -sign
                continue
            nu = lam[:i] + less[i + 1:j] + (t + j - ell,) + lam[j:]
            if j == ell:  # the strip ends in the last row: drop the rows it empties
                while nu and not nu[-1]:
                    nu = nu[:-1]
            out.setdefault(b - t, []).append((nu, sign))
    return out


def _pairing(basis: str, degree: int) -> PairingTable:
    """The cached pairing table of ``basis`` (h, s or m) at one degree, the
    tuple of its cached rows."""
    limits.check("ring", degree)
    if basis not in _ROWS:
        raise ValueError(f"no pairing table is stored for basis {basis!r}")
    return _cache.get(("pairing", basis, degree), lambda: tuple(map(_ROWS[basis], partitions_of(degree))))


def _h_row(lam: Partition) -> tuple[int, ...]:
    """The cached h row of lam; callers check the cap."""
    return _cache.get(("row", H, lam), _merged_row, lam)


def _merged_row(lam: Partition) -> tuple[int, ...]:
    """The row of lam[1:] carried through the merge map (lam_1, |lam| - lam_1),
    one pass per alpha |- lam_1."""
    d = sum(lam)
    if not d:
        return (1,)
    row, lower = [0] * len(partitions_of(d)), _h_row(lam[1:])
    for rs, ws in zip(*_merge_map(lam[0], d - lam[0])):
        for j, c in compress(enumerate(lower), lower):
            row[rs[j]] += c * ws[j]
    return tuple(row)


def _schur_row(lam: Partition) -> tuple[int, ...]:
    """The cached s row of lam, chi^lam; uncapped: callers check the cap."""
    return _cache.get(("row", S, lam), _mn_row, lam)


def _mn_row(lam: Partition) -> tuple[int, ...]:
    """The rho with rho_1 = k are one block of the row, their rests the last
    ``size`` of partitions_of(d - k): the block sums (-1)^ht(xi) times that
    tail of the row of lam - xi over the strips xi of length k, starting
    from the first strip's tail; no row reads the class sizes. Only a shape
    with lam_1 < len(lam) is conjugated: its row is its conjugate's, eps twisted."""
    d = sum(lam)
    if not d:
        return (1,)
    if lam[0] < len(lam):
        return tuple(map(mul, _classes(d)[1], _schur_row(conjugate(lam))))
    row: list[int] = []
    strips = _strips(lam)
    for k, size in _classes(d)[0]:
        block = None
        for nu, sign in strips.get(k, ()):
            tail = _schur_row(nu)[-size:]
            if block is None:
                block = list(tail) if sign > 0 else list(map(neg, tail))
            else:
                block = list(map(add if sign > 0 else sub, block, tail))
        row += [0] * size if block is None else block
    return tuple(row)


def _m_row(lam: Partition) -> tuple[int, ...]:
    """The cached m row of lam; callers check the cap."""
    return _cache.get(("row", M, lam), _monomial_row, lam)


def _monomial_row(lam: Partition) -> tuple[int, ...]:
    """With k = lam_1 and nu = lam[1:], p_k m_nu = m_k(lam) m_lam plus m_(nu_q)
    for each distinct part q of nu, nu_q = (q + k,) + nu less one q; and
    <p_k m_nu, p_mu> = k m_k(mu) <m_nu, p_(mu less k)>, as p_k^perp = k d/dp_k.
    So the row is that of nu scattered by the insertion map (k, |nu|) with
    weight k m_k(mu), less the rows of the nu_q (same degree, fewer parts),
    over m_k(lam)."""
    d = sum(lam)
    if not d:
        return (1,)
    k, nu = lam[0], lam[1:]
    new, mult = _cache.get(("insert", k, d - k), _insertions, k, d - k)
    row, lower = [0] * len(partitions_of(d)), _m_row(nu)
    for r, w, c in compress(zip(new, mult, lower), lower):
        row[r] = k * w * c
    for q in dict.fromkeys(nu):
        i = nu.index(q)
        row = list(map(sub, row, _m_row((q + k,) + nu[:i] + nu[i + 1:])))
    n = lam.count(k)
    if n == 1:
        return tuple(row)
    for c in compress(row, map(mod, row, repeat(n))):
        _require_integer(c, "an entry of the m row of {}", n, lam)
    return tuple(map(floordiv, row, repeat(n)))


# The bases whose table is the tuple of its rows, each cached per shape
_ROWS = {H: _h_row, S: _schur_row, M: _m_row}


# The Hall dual of each basis other than p; that of e is omega(m), whose
# table is the eps twist of the m table. The dual pairs, up to z_lam in p:
_DUAL = {S: S, H: M, M: H, E: M}
_DUAL_PAIRS = {(S, S), (H, M), (M, H), (P, P)}


def _dots(trows, vecs: list) -> list[list[int]]:
    """[[trow . v for trow in trows] for v in vecs], each a C-level sum(map(mul, ..))."""
    trows = list(trows) if len(vecs) > 1 else trows  # read once per vector
    return [[sum(map(mul, trow, v)) for trow in trows] for v in vecs]


def _pair_p(basis: str, d: int, keys: list, vecs: list) -> list[list[int]]:
    """For each v over ``keys`` (partitions of d), <f, p_mu> over partitions_of(d)
    for f = sum v_lam b_lam: A_b^T v from the rows of ``keys`` (e: h's, eps twisted)."""
    limits.check("ring", d)
    outs = _dots(zip(*map(_ROWS[H if basis == E else basis], keys)), vecs)
    return [list(map(mul, t, _classes(d)[1])) for t in outs] if basis == E else outs


def _transition(basis: str, d: int, keys: list, top: int | None, vecs: list) -> tuple[list, list]:
    """(images, [T v for v in vecs]), each v over ``keys`` (partitions of d)
    and each T v over ``images``. Given the caller's top degree, T maps
    ``basis`` to p over top!, [p_mu] b_lam = <b_lam, p_mu> / z_mu: the
    pairings times the class sizes d! / z_mu scaled by top! / d!; a p map is
    top! alone and lists no partition. With top None, T maps from p by A_b*,
    since [b_lam] f is <f, b*_lam>, and e twists the p side of A_m; its rows
    are read as they are when ``keys`` is every partition of d in rank order,
    else at the positions of ``keys``."""
    if basis == P:
        return keys, vecs if top is None else [list(map(mul, v, repeat(factorial(top)))) for v in vecs]
    if top is not None:
        outs, scale = _pair_p(basis, d, keys, vecs), factorial(top) // factorial(d)
        weights = [w * scale for w in _class_sizes(d)]
        return partitions_of(d), [list(map(mul, t, weights)) for t in outs]
    table, get = _pairing(_DUAL[basis], d), None  # None: the rows as they are
    if tuple(keys) != partitions_of(d):
        get = _gather(list(map(partition_ranks(d).__getitem__, keys)))
    if basis == E:
        signs = _classes(d)[1]
        vecs = [list(map(mul, v, get(signs) if get else signs)) for v in vecs]
    return partitions_of(d), _dots(map(get, table) if get else table, vecs)


# --- elements ----------------------------------------------------------------


def _normalize_terms(terms) -> dict[Partition, Fraction]:
    out: dict[Partition, Fraction] = {}
    for lam, c in dict(terms).items():
        c = Fraction(c)
        if c:
            out[as_partition(lam)] = c
    return out


class SymElement(Record):
    """A symmetric function: finitely many (partition -> rational) terms in
    one named basis. May mix degrees. Equality is semantic: term by term in a
    shared basis, else compared in p."""

    basis: str
    terms: dict

    def degrees(self) -> set[int]:
        return {sum(lam) for lam in self.terms}

    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(as_partition(lam), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymElement") -> "SymElement":
        other = convert(other, self.basis)
        out = dict(self.terms)
        _add_scaled(out, 1, other.terms)
        return SymElement(self.basis, out)

    def __sub__(self, other: "SymElement") -> "SymElement":
        return self + (-1) * other

    def __neg__(self) -> "SymElement":
        return (-1) * self

    def __rmul__(self, scalar) -> "SymElement":
        c = Fraction(scalar)
        if not c:
            return SymElement(self.basis, {})
        return SymElement(self.basis, {lam: c * v for lam, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymElement):
            return multiply(self, other)
        return self.__rmul__(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymElement):
            return NotImplemented
        if self.basis == other.basis:
            return _nonzero(self.terms) == _nonzero(other.terms)
        return convert(self, P).terms == convert(other, P).terms

    def __str__(self) -> str:
        return _format_terms(
            (self.terms[lam], f"{self.basis}[{format_partition(lam) if lam else ''}]")
            for lam in sorted(self.terms, key=_canonical_sort_key)
        )

    __repr__ = __str__


def _canonical_sort_key(lam: Partition):
    """Degree, then partitions_of order (descending lex), listing none."""
    return (sum(lam), [-part for part in lam])


def sym_element(basis: str, terms) -> SymElement:
    return SymElement(_validate_basis(basis), _normalize_terms(terms))


def basis_element(basis: str, lam) -> SymElement:
    """The single basis vector b_lambda."""
    return sym_element(basis, {as_partition(lam): 1})


def zero(basis: str = P) -> SymElement:
    return sym_element(basis, {})


def one(basis: str = P) -> SymElement:
    return basis_element(basis, ())


def _p_ints(f: SymElement, pairing: bool = False) -> tuple[int, dict[Partition, int]]:
    """The power sums of ``f`` in integers, (D, nums) with [p_mu] f =
    nums[mu] / D, nonzero entries only, or with ``pairing`` <f, p_mu> by
    _pair_p. Outside p, each degree of f's coefficients is mapped to p by
    _transition over t! (t the top degree), which adds the class sizes."""
    den, nums = _clear(f.terms)
    if f.basis == P:
        return den, {mu: n * z_value(mu) for mu, n in nums.items()} if pairing else nums
    chunks = _by_degree(nums)
    top = max(chunks, default=0)
    out: dict[Partition, int] = {}
    for d, chunk in chunks.items():
        keys, vecs = list(chunk), [list(chunk.values())]
        (vals,) = _pair_p(f.basis, d, keys, vecs) if pairing else _transition(f.basis, d, keys, top, vecs)[1]
        out.update(compress(zip(partitions_of(d), vals), vals))
    return (den, out) if pairing else (den * factorial(top), out)


def _checked(f: SymElement) -> dict:
    """The terms of ``f``, after the ring cap check a map to p makes of each degree, in term order."""
    for d in () if f.basis == P else dict.fromkeys(sum(lam) for lam, c in f.terms.items() if c):
        limits.check("ring", d)
    return f.terms


def _from_p_ints(basis: str, den: int, nums: dict[Partition, int]) -> SymElement:
    """Re-express (den, nums) in ``basis`` by _transition, one dot per dual
    row over the positions of the nonzero p_mu, and one Fraction per nonzero
    coefficient."""
    if basis == P:
        return SymElement(P, {mu: Fraction(n, den) for mu, n in nums.items()})
    out: dict[Partition, Fraction] = {}
    for d, chunk in _by_degree(nums).items():
        lams, (vals,) = _transition(basis, d, list(chunk), None, [list(chunk.values())])
        out.update((lam, Fraction(v, den)) for lam, v in compress(zip(lams, vals), vals))
    return SymElement(basis, out)


def convert(f: SymElement, target: str) -> SymElement:
    """Same element, coefficients in the target basis."""
    _validate_basis(target)
    return f if f.basis == target else _from_p_ints(target, *_p_ints(f))


def multiply(f: SymElement, g: SymElement) -> SymElement:
    """Ring product; reported in the p basis, where it is part
    concatenation."""
    (df, fn), (dg, gn) = _p_ints(f), _p_ints(g)
    return SymElement(P, {mu: Fraction(v, df * dg) for mu, v in _concat_mul(fn, gn).items() if v})


def hall_inner(f: SymElement, g: SymElement) -> Fraction:
    """Hall scalar product: diagonal in p with <p_lam, p_lam> = z_lam."""
    dual = f.basis != P and (f.basis, g.basis) in _DUAL_PAIRS  # then over common keys, no z
    (df, fn), (dg, gn) = map(_clear, (_checked(f), _checked(g))) if dual else map(_p_ints, (f, g))
    total = sum(a * gn[mu] * (1 if dual else z_value(mu)) for mu, a in fn.items() if mu in gn)
    return Fraction(total, df * dg)


def omega(f: SymElement) -> SymElement:
    """The involution with omega(e_n) = h_n and omega(s_lam) = s_lam'.

    On power sums it multiplies p_n by (-1)^(n-1), extended
    multiplicatively; the sign rule is forced by the two identities above.
    It relabels terms, returned in s for s, e for h, h for e and p for p
    input; m input goes to p, as it has no such closed form.
    """
    if f.basis == M:
        den, nums = _p_ints(f)
        return SymElement(P, {mu: Fraction(n * _omega_sign(mu), den) for mu, n in nums.items()})
    return SymElement({H: E, E: H}.get(f.basis, f.basis), {
        conjugate(lam) if f.basis == S else lam: -c if f.basis == P and _omega_sign(lam) < 0 else c
        for lam, c in _nonzero(_checked(f)).items()})


def _skew_p(mu: Partition, nums: dict[Partition, int]) -> dict[Partition, int]:
    """s_mu^perp on power-sum coefficients over a common denominator, which
    the result keeps: [p_beta] s_mu^perp f is the sum over alpha |- |mu| of
    <s_mu, p_alpha> z_(alpha u beta) / (z_alpha z_beta) [p_(alpha u beta)] f,
    a weight of the merge map (|mu|, |beta|). Degrees below |mu| drop out,
    and the s row of mu is read only if a degree reaches it."""
    m = sum(mu)
    out: dict[Partition, int] = {}
    for d in {d for d in map(sum, nums) if d >= m}:
        row = _schur_row(mu)
        merged = zip(row, *_merge_map(m, d - m))
        vec, acc = list(map(nums.get, partitions_of(d), repeat(0))), [0] * len(partitions_of(d - m))
        # one pass per alpha gathers [p_(alpha u beta)] f for every beta
        for c, rs, ws in compress(merged, row):
            acc = list(map(add, acc, map(mul, repeat(c), map(mul, ws, map(vec.__getitem__, rs)))))
        out.update(compress(zip(partitions_of(d - m), acc), acc))
    return out


def skew_schur(lam, mu) -> SymElement:
    """The skew Schur function s_(lam/mu) = s_mu^perp s_lam as a Schur
    expansion, sum over nu of c^lam_(mu nu) s_nu, read off the LR tableaux
    of shape lam/mu; zero if mu is not inside lam."""
    lam, mu = as_partition(lam), as_partition(mu)
    if not contains(mu, lam):
        return SymElement(S, {})
    limits.check("ring", sum(lam))  # capped as perp(mu, s_lam) is
    from .tableaux import _lr_fillings  # so that importing ring compiles no tableaux
    return SymElement(S, {nu: Fraction(c) for nu, c in _lr_fillings(lam, mu).items()})


def perp(mu, f: SymElement) -> SymElement:
    """Adjoint of multiplication by s_mu: on the Schur basis it sends
    s_lam to the skew function s_(lam/mu). Reported in the s basis."""
    mu = as_partition(mu)
    if f.basis == S:
        # s_mu^perp s_lam is zero unless mu is inside lam
        f = SymElement(S, {lam: c for lam, c in f.terms.items() if contains(mu, lam)})
    for d in dict.fromkeys(map(sum, f.terms)):  # capped as a conversion of f is, in term order, p too
        limits.check("ring", d)
    den, nums = _p_ints(f)
    return _from_p_ints(S, den, _skew_p(mu, nums))


# --- evaluation in finitely many variables -----------------------------------


class PolynomialValue(Record):
    """A polynomial in x_1..x_nvars with exact rational coefficients,
    stored as exponent-vector -> coefficient."""

    nvars: int
    terms: dict

    def __add__(self, other: "PolynomialValue") -> "PolynomialValue":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        out = dict(self.terms)
        _add_scaled(out, 1, other.terms)
        return PolynomialValue(self.nvars, out)

    def __mul__(self, other: "PolynomialValue") -> "PolynomialValue":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        out: dict = {}
        for ka, ca in self.terms.items():
            shifted = {tuple(a + b for a, b in zip(ka, kb)): cb for kb, cb in other.terms.items()}
            _add_scaled(out, ca, shifted)
        return PolynomialValue(self.nvars, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialValue):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return _format_terms(
            (self.terms[key], format_monomial(key))
            for key in sorted(self.terms, key=lambda k: (-sum(k),) + tuple(-x for x in k))
        )

    __repr__ = __str__


def _arrangements(counts: dict[int, int], slots: int):
    """Every distinct word of length ``slots`` using each value v exactly
    counts[v] times (the counts sum to ``slots``)."""
    if not slots:
        yield ()
        return
    for v in list(counts):
        if counts[v]:
            counts[v] -= 1
            for rest in _arrangements(counts, slots - 1):
                yield (v,) + rest
            counts[v] += 1


def evaluate(f: SymElement, nvars: int) -> PolynomialValue:
    """The polynomial f(x_1, ..., x_nvars, 0, 0, ...): each m_lam with at
    most nvars parts is the sum of the distinct monomials x^alpha over the
    rearrangements alpha of lam padded with zeros."""
    if nvars < 0:
        raise ValueError("variable count must be >= 0")
    out: dict[tuple[int, ...], Fraction] = {}
    for lam, c in convert(f, M).terms.items():
        if len(lam) <= nvars:
            counts = Counter(lam)
            counts[0] = nvars - len(lam)
            for alpha in _arrangements(counts, nvars):
                out[alpha] = c
    return PolynomialValue(nvars, out)


# --- text / JSON forms --------------------------------------------------------


def format_coeff(c) -> str:
    if type(c) is int:
        return str(c)
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_monomial(exponents) -> str:
    """x_1^e_1 * x_2^e_2 * ... as ``x1^2*x3``: zero exponents are left out,
    an exponent 1 is not shown, and the empty monomial is ""."""
    return "*".join(
        f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exponents, 1) if e
    )


def _format_terms(terms) -> str:
    """Join (coefficient, monomial) pairs as ``c*mono + ... - mono``: a unit
    coefficient is left out, an empty monomial (a constant) shows it."""
    pieces = []
    for c, mono in terms:
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        sign = ("" if num > 0 else "-") if not pieces else ("+ " if num > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def parse_coeff(text: str) -> Fraction:
    """A rational literal such as ``3`` or ``-1/2``; a zero denominator is a
    ValueError like any other malformed literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {text!r}") from None


def sym_to_json(f: SymElement) -> dict:
    keys = sorted(f.terms, key=_canonical_sort_key)
    return {
        "basis": f.basis,
        "terms": [
            {"partition": list(lam), "coeff": format_coeff(f.terms[lam])}
            for lam in keys
        ],
    }


def parse_sym_element(text: str) -> SymElement:
    """Parse the CLI literal ``basis:coeff*partition+...``, e.g.
    ``s:1*2,1`` or ``p:1/2*2+-1/2*1,1``. A missing ``coeff*`` means 1;
    the empty partition is ``()``. One Fraction per term, a sum only where a
    partition repeats, and zero sums dropped."""
    basis, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"element literal must look like 'basis:terms': {text!r}")
    basis = _validate_basis(basis.strip())
    toks: list[str] = []
    for tok in rest.split("+"):  # no term begins at the + of an exponent, as in 1e+2*
        if toks and toks[-1][-1:] in ("e", "E") and "*" not in toks[-1] and "*" in tok:
            toks[-1] += "+" + tok
        else:
            toks.append(tok)
    terms: dict[Partition, Fraction] = {}
    for tok in toks:
        tok = tok.strip()
        if not tok:
            raise ValueError(f"empty term in element literal {text!r}")
        if "*" in tok:
            coeff_s, part_s = tok.split("*", 1)
            coeff = parse_coeff(coeff_s.strip())
        else:
            coeff, part_s = Fraction(1), tok
        lam = parse_partition(part_s.strip())
        terms[lam] = terms[lam] + coeff if lam in terms else coeff
    return SymElement(basis, _nonzero(terms))
