"""Explicit integer matrix representations of S_n and their characters.

Classical representations (trivial, sign, defining, regular, standard),
Young permutation modules, Specht modules, induction and restriction along
subgroups, sums/tensors, exterior-square characters, and the GL-side
character/dimension checks.

Characters come from a trace rule of each module, read at a cycle type rho:
chi^lam(rho) for a Specht module S^lam, its s table row; chi(rho) <h_c, p_rho>,
ring's h row of c, for a module induced from a Young subgroup S_c with a rule
chi, as the Young and regular modules are, and else (z_rho/|H|) sum |c| chi(c)
over the classes c of H of type rho (Frobenius); the fixed points of rho for
the defining and standard modules; 1 and its sign for the trivial and sign
modules. Tensors multiply rules, sums add them, restrictions keep the
parent's. A sum or tensor with a rule-less factor multiplies or adds its
factors' traces at the word; only a MatrixRep built with no rule sums its
diagonal. decompose is one integer dot product per lam, divided by n! once.

The Specht module S^lam has the standard polytabloids e_T as its basis,
one per standard tableau T, and works on tableaux alone. The matrix of an
adjacent transposition s_i is Young's natural one (Sagan, The Symmetric
Group, 2.6-2.7): -e_T when i and i+1 share a column of T, e_{s_i T} when they
share neither a row nor a column, and otherwise e_{s_i T} straightened in
integers by Garnir relations. The matrix of pi is their product along a
reduced word of pi.

A MatrixRep carries a rule producing the exact matrix, a tuple of integer
rows, of any permutation in its domain; matrix() runs the rule on each call
and keeps none: a matrix of the regular module of S_6 alone takes megabytes.
The cosets of a Young subgroup, with each word located, are built once per
composition per process, as the ring._cache family ("cosets", blocks); an
induced module on any other subgroup lists its cosets when it is built. A
Specht module's standard tableaux, straightened tableaux and generator
columns are built once per shape per process, as two families of
ring._cache. matrix() and trace() check each word once, that it is a
permutation in the domain. matrix(pi sigma) == matrix(pi) . matrix(sigma)
under the package-wide convention (pi sigma)(i) = pi(sigma(i)).
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import (accumulate, combinations, pairwise, permutations as _perms,
                       product as _cartesian, repeat)
from math import factorial, prod
from operator import add, mul, neg, sub as subtract

from . import limits, ring
from ._record import Record
from .characters import ClassFunction, _capped, character_row, class_function
from .errors import InvariantViolationError
from .partitions import (
    Partition,
    Permutation,
    all_permutations,
    as_composition,
    as_partition,
    as_permutation,
    class_representative,
    compose,
    conjugate,
    count_of_type,
    cycle_type,
    identity_perm,
    inverse_perm,
    partitions_of,
    sign as perm_sign,
    z_value,
)
from .ring import PolynomialValue, S, _OnceCache, _add_scaled, _require_integer
from .ring import basis_element, evaluate
from .tableaux import f_lambda, hook_content_cells, standard_tableaux

Matrix = tuple[tuple, ...]

# the name under which perfbench/reps.py raises the Specht cap
set_rep_caps = limits.set_default


class SubgroupSpec(Record):
    """An explicit subgroup of S_n: the ambient degree and the full element
    list, in lex order (closed under composition and inverse, containing the
    identity), which a Young subgroup lists only when it is read."""

    n: int
    elements: tuple[Permutation, ...]
    blocks = None  # the composition of a Young subgroup

    @classmethod
    def from_elements(cls, n: int, elements) -> "SubgroupSpec":
        elems = tuple(sorted({tuple(e) for e in elements}))
        eset = set(elems)
        if identity_perm(n) not in eset:
            raise ValueError("subgroup must contain the identity")
        for a in elems:
            if len(a) != n:
                raise ValueError(f"element {a} is not a word of length {n}")
            if inverse_perm(a) not in eset:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in elems:
                if compose(a, b) not in eset:
                    raise ValueError("subgroup not closed under composition")
        return cls(n, elems)

    @classmethod
    def young(cls, composition) -> "SubgroupSpec":
        """The Young subgroup S_{n_1} x ... x S_{n_r}, kept as its consecutive blocks."""
        blocks = as_composition(composition)
        sub = cls.__new__(cls)
        sub.__dict__.update(n=sum(blocks), blocks=blocks)
        return sub

    def __getattr__(self, name):  # a Young subgroup's elements: one word per block, joined
        if name != "elements" or self.blocks is None:
            raise AttributeError(name)
        bounds = pairwise(accumulate(self.blocks, initial=0))  # each block's (start, end)
        pieces = [_perms(range(a + 1, b + 1)) for a, b in bounds]
        self.__dict__[name] = tuple(sum(words, ()) for words in _cartesian(*pieces))
        return self.elements

    @property
    def order(self) -> int:
        return len(self.elements) if self.blocks is None else prod(map(factorial, self.blocks))

    def __eq__(self, other):  # two Young subgroups by their blocks, listing no element
        if other.__class__ is not self.__class__:
            return NotImplemented
        young = self.blocks is not None and other.blocks is not None
        return self.blocks == other.blocks if young else super().__eq__(other)

    __hash__ = Record.__hash__  # field-wise: a Young subgroup lists its elements to hash

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __contains__(self, perm) -> bool:
        pi = tuple(perm)
        if self.blocks is None:
            return pi in self._members
        cuts = pairwise(accumulate(self.blocks, initial=0))
        return len(pi) == self.n and all(sorted(pi[a:b]) == [*range(a + 1, b + 1)] for a, b in cuts)

    def conjugacy_classes(self) -> list[tuple[Permutation, ...]]:
        """The conjugacy classes, each sorted, smallest element first: a Young subgroup's
        are products of its blocks' words grouped by cycle type; else conjugation orbits."""
        if self.blocks is not None:
            groups = []
            for a, b in pairwise(accumulate(self.blocks, initial=0)):
                types: dict = {}  # the words on a+1..b by the cycle type of the same word on 1..b-a
                for w, word in zip(_perms(range(1, b - a + 1)), _perms(range(a + 1, b + 1))):
                    types.setdefault(cycle_type(w), []).append(word)
                groups.append(types.values())
            return sorted(tuple(sum(ws, ()) for ws in _cartesian(*cls)) for cls in _cartesian(*groups))
        pairs, classes, seen = [(h, inverse_perm(h)) for h in self.elements], [], set()
        for g in self.elements:
            if g not in seen:
                orbit = {tuple([h[g[x - 1] - 1] for x in h_inv]) for h, h_inv in pairs}  # h g h^-1
                classes.append(tuple(sorted(orbit)))
                seen |= orbit
        return classes


def _once(build):
    """A function returning build(), which runs on its first call only."""
    return partial(_OnceCache().get, None, build)


def young_classes(composition) -> list[tuple[Permutation, int]]:
    """(representative, size) of each conjugacy class of the Young subgroup
    S_{n_1} x ... x S_{n_r}, sorted by representative, without listing its
    elements: a class is one cycle type rho_i per block, of size
    prod n_i! / z_(rho_i), and its lex-smallest element puts each block's
    cycles in increasing length on consecutive letters, a -> a+1 -> ... -> a:
    the class_representative of the blocks' reversed rho_i, concatenated."""
    rows = []
    for types in _cartesian(*map(partitions_of, as_composition(composition))):
        word = class_representative(sum((rho[::-1] for rho in types), ()))
        rows.append((word, prod(count_of_type(rho) for rho in types)))
    return sorted(rows)


class MatrixRep:
    """A representation: degree n, dimension, and an exact matrix for every
    permutation in the domain (None = all of S_n), computed by a rule on
    each call. A trace rule, read at the cycle type, gives the character with
    no matrix; a MatrixRep built with none sums the diagonal of matrix(),
    and a sum or tensor with none is traced through its factors. The
    Coxeter relations of the generator matrices are checked by the tests."""

    def __init__(self, n: int, dim: int, _matrix_fn, domain: SubgroupSpec | None = None,
                 label: str = "", _trace_fn=None):
        self.n = n
        self.dim = dim
        self._matrix_fn = _matrix_fn
        self.domain = domain
        self.label = label
        self._trace_fn = _trace_fn

    def __repr__(self) -> str:
        return f"MatrixRep(n={self.n}, dim={self.dim}, label={self.label!r})"

    def _checked(self, perm) -> Permutation:
        pi = as_permutation(perm)
        if len(pi) != self.n:
            raise ValueError(f"permutation degree {len(pi)} != {self.n}")
        if self.domain is not None and pi not in self.domain:
            raise ValueError(f"{pi} is outside this representation's domain")
        return pi

    def matrix(self, perm) -> Matrix:
        return self._matrix_fn(self._checked(perm))

    def trace(self, perm) -> int:
        return self._trace(self._checked(perm))

    def _trace(self, pi: Permutation) -> int:
        """trace() of a checked word: the rule at its cycle type, or the diagonal sum."""
        if self._trace_fn is not None:
            return self._trace_fn(cycle_type(pi))
        m = self._matrix_fn(pi)
        return sum(m[i][i] for i in range(self.dim))

    def generator_matrices(self) -> dict[int, Matrix]:
        """Matrices of the adjacent transpositions s_1..s_{n-1} (full-group
        representations only)."""
        if self.domain is not None:
            raise ValueError("generator matrices only defined on full S_n")
        return {i: self.matrix(adjacent_transposition(self.n, i))
                for i in range(1, self.n)}


def adjacent_transposition(n: int, i: int) -> Permutation:
    if not 1 <= i < n:
        raise ValueError(f"s_{i} is not a generator of S_{n}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return tuple(word)


def _line(kind: str, n: int, label: str, domain: SubgroupSpec | None = None) -> MatrixRep:
    """The trivial or sign module: pi acts by 1 or sign(pi), its trace, read at its type."""
    if kind == "sign":
        return MatrixRep(n, 1, lambda pi: ((perm_sign(pi),),), domain, label, ring._omega_sign)
    return MatrixRep(n, 1, lambda pi: ((1,),), domain, label, lambda rho: 1)


def classical_rep(kind: str, n: int) -> MatrixRep:
    """One of the classical representations: trivial, sign, defining
    (dimension n, the permutation matrices; its trace counts fixed points),
    regular (n!, capped; the module induced from the trivial subgroup, on
    the words of S_n in lex order) and standard (n-1, the sum-zero vectors
    of the defining representation)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind in ("trivial", "sign"):
        return _line(kind, n, f"{kind}(S_{n})")
    if kind == "defining":  # e_j -> e_pi(j): entry (i, j) is pi(j) = i
        return MatrixRep(n, n, lambda pi: tuple(tuple(int(v == i) for v in pi) for i in range(1, n + 1)),
                         label=f"defining(S_{n})", _trace_fn=lambda rho: rho.count(1))
    if kind == "regular":  # induced from the trivial subgroup, whose cosets are the words
        limits.check("regular", n)
        rep = induce(trivial_of(SubgroupSpec.young((1,) * n)), n)
        rep.label = f"regular(S_{n})"
        return rep
    if kind == "standard":  # on the basis e_j - e_1, j = 2..n: pi sends it to e_pi(j) - e_pi(1)
        return MatrixRep(
            n, n - 1,
            lambda pi: tuple(tuple((pi[j - 1] == i) - (pi[0] == i) for j in range(2, n + 1))
                             for i in range(2, n + 1)),
            label=f"standard(S_{n})",
            _trace_fn=lambda rho: rho.count(1) - 1,
        )
    raise ValueError(f"unknown classical representation {kind!r}")


def _class_traces(rep: MatrixRep) -> dict[Partition, int]:
    if rep.domain is not None:
        raise ValueError("character_of needs a full-S_n representation")
    rule = rep._trace_fn or (lambda mu: rep._trace(class_representative(mu)))
    return {mu: rule(mu) for mu in partitions_of(rep.n)}


def character_of(rep: MatrixRep) -> ClassFunction:
    """The trace rule at each cycle type, or with none the trace at one class
    word per type; a module on a subgroup raises ValueError."""
    return class_function(rep.n, _class_traces(rep))


def decompose(rep: MatrixRep) -> dict[Partition, int]:
    """Multiplicity of each irreducible lam, the character inner product
    sum over classes rho of chi(rho) chi^lam(rho) |class of rho|, divided by
    n! once; raises if any multiplicity fails to be a nonnegative integer."""
    return _multiplicities(rep.n, _class_traces(rep))


def _multiplicities(n: int, traces: dict[Partition, int]) -> dict[Partition, int]:
    """decompose, from the trace of a representation of S_n at every class."""
    _capped(n)  # before the class sizes of degree n are read
    order, classes, out = factorial(n), partitions_of(n), {}
    weighted = list(map(mul, map(traces.__getitem__, classes), ring._class_sizes(n)))
    for lam, row in zip(classes, ring._pairing(S, n)):  # row is chi^lam, the s table's
        val, rem = divmod(sum(map(mul, row, weighted)), order)
        if rem or val < 0:
            _require_integer(val * order + rem, "multiplicity of {}", order, lam)  # raises if rem
            raise InvariantViolationError(f"negative multiplicity {val} at {lam}")
        if val:
            out[lam] = val
    return out


# --- Young permutation modules and Specht modules -----------------------------


def young_basis(lam) -> list[tuple[tuple[int, ...], ...]]:
    """Row-sorted injective tableaux with rows of sizes lam, any composition,
    as ordered tuples of sorted row sets; lexicographic enumeration."""
    lam = as_composition(lam)
    basis = [((), tuple(range(1, sum(lam) + 1)))]  # (rows so far, letters left)
    for k in lam:
        basis = [(rows + (row,), tuple(x for x in left if x not in row))
                 for rows, left in basis for row in combinations(left, k)]
    return [rows for rows, _ in basis]


def young_module(lam) -> MatrixRep:
    """The permutation module M^lam on the tabloids of shape lam: the module
    induced from the trivial module of S_lam, whose cosets are the tabloids
    in lex order, of dimension n! / prod(lam_i!)."""
    lam = as_partition(lam)
    limits.check("young", sum(lam))
    rep = induce(trivial_of(SubgroupSpec.young(lam)), sum(lam))
    rep.label = f"young({lam})"
    return rep


def _combine(cols, terms) -> tuple[int, ...]:
    """sum c * cols[j] over the sparse (j, c) terms in maps; one (j, 1) shares cols[j]."""
    (j, c), *rest = terms
    if not rest and c == 1:
        return cols[j]
    acc = cols[j] if c == 1 else map(neg, cols[j]) if c == -1 else map(mul, cols[j], repeat(c))
    for j, c in rest:  # a column of c = +-1 is added or subtracted as it is
        col = cols[j] if c == 1 or c == -1 else map(mul, cols[j], repeat(c))
        acc = map(subtract if c == -1 else add, acc, col)
    return tuple(acc)


def _garnir(tab):
    """The Garnir relation at the first row descent of a column-strict
    tableau t that is not standard, given as its tuple of increasing columns.

    Let t[r][c] > t[r][c+1], A be column c from row r down and B column c+1
    down to row r, so every letter of B is smaller than every letter of A.
    The alternating sum over S_{A u B} kills e_t, since |A u B| exceeds the
    length of column c; summed over the splits of A u B into a new A and B
    it reads sum sign * e_t' = 0, where t' = t for the split A, B (Sagan, The
    Symmetric Group, 2.6). Yields (sign, t') for every other split, with
    columns c and c+1 re-sorted. The sign is that of the permutation of
    letters taking t to t': the parity of the pairs x > y, x in column c and
    y in column c+1, counted in t and in t'. The column tabloid of every t'
    dominates that of t."""
    c, r = next((c, r) for c in range(len(tab) - 1)
                for r, (x, y) in enumerate(zip(tab[c], tab[c + 1])) if x > y)
    left, right = tab[c], tab[c + 1]
    top, low, high, bottom = left[:r], left[r:], right[:r + 1], right[r + 1:]
    pool = high + low
    parity = sum(x > y for x in left for y in right)
    for chosen in combinations(pool, len(low)):
        if chosen == low:
            continue
        rest = tuple(v for v in pool if v not in chosen)
        new_left, new_right = tuple(sorted(top + chosen)), tuple(sorted(rest + bottom))
        odd = (parity + sum(x > y for x in new_left for y in new_right)) % 2
        yield -1 if odd else 1, tab[:c] + (new_left, new_right) + tab[c + 2:]


def _straighten(tab, index, memo) -> dict[int, int]:
    """e_t of a column-strict tableau t (its columns) as {k: c} over the
    standard polytabloids e_{T_k}, where index maps the columns of T_k to k:
    e_t = -sum sign * e_t' over the other splits of the Garnir relation,
    recursively. The straightened form of each nonstandard t met is kept in
    memo."""
    k = index.get(tab)
    if k is not None:
        return {k: 1}
    out = memo.get(tab)
    if out is None:
        out = {}
        for sign, other in _garnir(tab):
            _add_scaled(out, -sign, _straighten(other, index, memo))
        memo[tab] = out
    return out


def _natural_generator(i: int, tabs, cells, index, trace: int, memo):
    """Young's natural matrix of s_i as sparse columns: column k lists the
    (j, c) with s_i . e_{T_k} = sum c e_{T_j}. It is -e_{T_k} where i and
    i+1 share a column of T_k (cells[k] maps each letter to its column and
    its place in it), and otherwise e_{s_i T_k}, s_i T_k column-strict,
    straightened. Raises unless its trace is the given trace, chi^lam at a
    transposition; memo takes the forms straightened only if it does not."""
    cols, staged = [], dict(memo)
    for k, tab in enumerate(tabs):
        (c, r), (c1, r1) = cells[k][i], cells[k][i + 1]
        if c == c1:  # a column transposition, of sign -1
            cols.append(((k, -1),))
        else:
            moved = list(tab)
            moved[c] = tab[c][:r] + (i + 1,) + tab[c][r + 1:]
            moved[c1] = tab[c1][:r1] + (i,) + tab[c1][r1 + 1:]
            cols.append(tuple(_straighten(tuple(moved), index, staged).items()))
    got = sum(c for k, terms in enumerate(cols) for j, c in terms if j == k)
    if got != trace:
        raise InvariantViolationError(f"trace of s_{i} is {got}, not chi at a transposition, {trace}")
    memo.update(staged)
    return tuple(cols)


def specht_module(lam) -> MatrixRep:
    """The irreducible module S^lam with basis the standard polytabloids e_T
    of the standard tableaux T of shape lam, listed once per shape per
    process; dimension f^lam, by the hook lengths. The trace at pi is chi^lam
    at its cycle type: a character row, read once under the coefficient cap.

    The matrix of s_i is Young's natural one, and the matrix of pi is their
    product along the reduced word that bubble-sorts pi^-1. Where i and i+1
    share a row of T, s_i T is column-strict with one row descent, and
    e_{s_i T} is straightened by Garnir relations, each of which rewrites e_t
    over tableaux whose column tabloids dominate that of t, so the recursion
    ends at standard tableaux (Sagan, The Symmetric Group, 2.6; James, LNM
    682, 7-8). Each generator's trace must equal chi^lam at a transposition,
    f^lam * (sum of the contents) / C(n, 2), read from the hook contents, or
    its build raises. Once per shape per process, ring._cache keeps the
    tableaux, their cells and index, that trace, the straightened forms and
    the identity as ("specht", lam), and the columns of s_i as ("specht", lam, i).
    """
    lam = as_partition(lam)
    n = sum(lam)
    limits.check("specht", n)
    hooks, chi, key = hook_content_cells(lam), _once(lambda: character_row(lam)), ("specht", lam)
    dim = factorial(n) // prod(h for h, _ in hooks)

    def tableaux():
        heights = conjugate(lam)
        tabs = [tuple(tuple(row[c] for row in t.rows[:h]) for c, h in enumerate(heights))
                for t in standard_tableaux(lam)]
        if len(tabs) != dim:
            raise InvariantViolationError("Specht dimension != standard tableau count")
        cells = [{v: (c, r) for c, col in enumerate(t) for r, v in enumerate(col)} for t in tabs]
        # chi^lam at a transposition: f^lam * (sum of the contents) / C(n, 2)
        trace = 2 * dim * sum(c for _, c in hooks) // max(n * (n - 1), 1)
        identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        return tabs, cells, {t: k for k, t in enumerate(tabs)}, trace, {}, identity

    def generator(cache, i):  # from the shape's tableaux, cells, index, trace and memo
        return cache.get((*key, i), lambda: _natural_generator(i, *cache.get(key, tableaux)[:5]))

    def fn(pi):
        # Bubble-sort the word w of pi^-1. Swapping its entries at positions
        # b and b + 1, counted from 1, turns w into w s_b, so the swaps b_1,
        # ..., b_k give pi = s_{b_1} ... s_{b_k}, a reduced word, and each
        # s_b is one sparse right factor.
        cache, word = ring._cache, list(inverse_perm(pi))
        cols = cache.get(key, tableaux)[-1]
        for end in range(n - 1, 0, -1):
            for a in range(end):
                if word[a] > word[a + 1]:
                    word[a], word[a + 1] = word[a + 1], word[a]
                    cols = [_combine(cols, terms) for terms in generator(cache, a + 1)]
        return tuple(zip(*cols))

    return MatrixRep(n, dim, fn, label=f"specht({lam})", _trace_fn=lambda rho: chi()[rho])


# --- induction / restriction / sums / tensors ---------------------------------


def _cosets(subgroup: SubgroupSpec, transversal=None) -> tuple[list[Permutation], object]:
    """Left-coset representatives t_i with the lookup t_i h -> (i, h) of the
    coset table. The t_i are the given transversal, or else the words of S_n
    in lexicographic order that fall in no coset seen before; a given list
    must hold one word of each coset."""
    lex = transversal is None
    reps: list[Permutation] = []
    where: dict = {}
    for g in all_permutations(subgroup.n) if lex else map(as_permutation, transversal):
        if lex and g in where:
            continue
        for h in subgroup.elements:
            where[compose(g, h)] = (len(reps), h)
        reps.append(g)
    if len(where) != len(reps) * subgroup.order or len(where) != factorial(subgroup.n):
        raise ValueError("not a transversal of the subgroup")
    return reps, where.__getitem__


def _young_cosets(blocks) -> tuple[list[Permutation], object]:
    """_cosets for a Young subgroup, without a scan: the t_i are the words
    whose values increase within each block, in lex order, and w = t_i h
    where t_i is w with each block's values sorted and h = t_i^-1 w.

    The t_i, their index and inverses, and the table of the words located
    so far are built once per composition per process, as the ring._cache
    family ("cosets", blocks), which every module on that Young subgroup
    shares. The table fills only as far as it is read and holds at most n!
    words per composition: fully located, 0.58 MB at (1^6) and 2.7 MB at
    (1^7) (tracemalloc). It is written with dict.setdefault outside the
    cache lock, and every writer of a word stores the same value."""
    def build():
        bounds = list(pairwise(accumulate(blocks, initial=0)))
        index = {sum(rows, ()): i for i, rows in enumerate(young_basis(blocks))}
        if len(index) * prod(map(factorial, blocks)) != factorial(sum(blocks)):
            raise InvariantViolationError("Young subgroup coset count != n!/|H|")
        inverses, where = [*map(inverse_perm, index)], {}

        def locate(w):
            found = where.get(w)
            if found is None:
                i = index[tuple(v for a, b in bounds for v in sorted(w[a:b]))]
                found = where.setdefault(w, (i, compose(inverses[i], w)))
            return found

        return list(index), locate

    return ring._cache.get(("cosets", blocks), build)


def _frobenius(rep: MatrixRep) -> dict[Partition, int]:
    """The character induced from rep on H at each cycle type rho: on a Young
    subgroup S_c, within the ring cap, rule(rho) <h_c, p_rho> (the h row of c sorted),
    as Ind(Res chi) = chi Ind(1) and Ind(1) = M^c (Young's rule); else (z_rho/|H|)
    sum |c| chi(c) over the classes c of H of type rho (Sagan 1.12), a rule-less module,
    not always a class function, traced at class words. Raises unless (1^n) reads dim."""
    sub, rule, n, sums = rep.domain, rep._trace_fn, rep.n, {}
    if sub.blocks is not None and rule is not None and n <= limits.current().ring:
        row = ring._h_row(tuple(sorted(sub.blocks, reverse=True)))
        out = {rho: rule(rho) * c for rho, c in zip(partitions_of(n), row) if c}
    else:
        classes = young_classes(sub.blocks) if sub.blocks is not None else (
            (c[0], len(c)) for c in sub.conjugacy_classes())
        for c, size in classes:
            rho = cycle_type(c)
            sums[rho] = sums.get(rho, 0) + size * rep._trace(c)
        out = {rho: _require_integer(z_value(rho) * total, "induced character at {}", sub.order, rho)
               for rho, total in sums.items()}
    if out.get((1,) * n) != rep.dim * factorial(n) // sub.order:
        raise InvariantViolationError("the induced character at the identity is not its dimension")
    return out


def induce(rep: MatrixRep, n: int, transversal=None) -> MatrixRep:
    """Induction from the subgroup domain H of ``rep`` up to S_n, as the block
    matrix with (i, j) block Y(t_i^{-1} g t_j) (zero when the argument falls
    outside H). Block column j has exactly one nonzero block: the i and h
    with g t_j = t_i h, found by sorting on a Young subgroup with no
    transversal given (_young_cosets, shared by every module on it), else in
    the coset table of _cosets, built with the module; with rep of dimension 1
    it is one entry. The trace is the induced character (_frobenius)."""
    if rep.domain is None:
        raise ValueError("induce needs a representation with a subgroup domain")
    if rep.n != n:
        raise ValueError("subgroup must sit inside S_n (same word degree)")
    sub = rep.domain
    young = sub.blocks is not None and transversal is None
    table = None if young else _cosets(sub, transversal)  # a bad transversal raises here
    k, d, frobenius = factorial(n) // sub.order, rep.dim, _once(lambda: _frobenius(rep))

    def fn(g):
        rows = [[0] * (k * d) for _ in range(k * d)]
        ts, locate = table or _young_cosets(sub.blocks)
        for j, t in enumerate(ts):
            i, h = locate(tuple([g[x - 1] for x in t]))  # g t, of g's checked degree; h is in H
            if d == 1:
                rows[i][j] = rep._matrix_fn(h)[0][0]
                continue
            for r, block_row in enumerate(rep._matrix_fn(h)):
                rows[i * d + r][j * d:(j + 1) * d] = block_row
        return tuple(map(tuple, rows))

    return MatrixRep(n, k * d, fn, label=f"induced({rep.label})",
                     _trace_fn=lambda rho: frobenius().get(rho, 0))


def restrict(rep: MatrixRep, subgroup: SubgroupSpec) -> MatrixRep:
    """Same matrices and trace route, domain cut down to the subgroup."""
    if rep.n != subgroup.n:
        raise ValueError("subgroup degree differs from the representation's")
    if rep.domain is not None and not all(h in rep.domain for h in subgroup.elements):
        raise ValueError("new domain is not a subgroup of the current one")
    out = MatrixRep(rep.n, rep.dim, rep._matrix_fn, subgroup, f"restricted({rep.label})", rep._trace_fn)
    out._trace = rep._trace
    return out


def trivial_of(subgroup: SubgroupSpec) -> MatrixRep:
    return _line("trivial", subgroup.n, f"trivial({subgroup.n})", subgroup)


def sign_of(subgroup: SubgroupSpec) -> MatrixRep:
    return _line("sign", subgroup.n, f"sign({subgroup.n})", subgroup)


def _pair(a: MatrixRep, b: MatrixRep, dim: int, join, op, symbol: str) -> MatrixRep:
    """The module on which pi acts by join(a.matrix(pi), b.matrix(pi)), with
    the class rule op(a's rule, b's rule) when both have one, and otherwise
    the trace op(a's trace, b's trace) at the word, with no joined matrix; a
    and b share degree and domain, so the word is checked once, by the pair."""
    if a.n != b.n:
        raise ValueError(f"degrees differ: {a.n} != {b.n}")
    if a.domain != b.domain:
        raise ValueError("domains differ")
    fa, fb = a._trace_fn, b._trace_fn
    rep = MatrixRep(
        a.n, dim, lambda pi: join(a._matrix_fn(pi), b._matrix_fn(pi)), domain=a.domain,
        label=f"({a.label}){symbol}({b.label})",
        _trace_fn=None if fa is None or fb is None else lambda rho: op(fa(rho), fb(rho)),
    )
    if rep._trace_fn is None:  # shadows MatrixRep._trace, the diagonal sum
        rep._trace = lambda pi: op(a._trace(pi), b._trace(pi))
    return rep


def _block_sum(a: Matrix, b: Matrix) -> Matrix:
    left, right = (0,) * len(a), (0,) * len(b)
    return tuple((*row, *right) for row in a) + tuple((*left, *row) for row in b)


def direct_sum(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    return _pair(a, b, a.dim + b.dim, _block_sum, add, "+")


def _kron(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def tensor_product(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    """Inner tensor product: the diagonal action, Kronecker-product
    matrices; characters multiply pointwise."""
    return _pair(a, b, a.dim * b.dim, _kron, mul, "x")


def square_class(mu) -> Partition:
    """Cycle type of g^2 for g of cycle type mu: odd cycles stay whole,
    even cycles split in two."""
    parts: list[int] = []
    for length in as_partition(mu):
        if length % 2:
            parts.append(length)
        else:
            parts.extend([length // 2, length // 2])
    return tuple(sorted(parts, reverse=True))


def exterior_square_character(chi: ClassFunction) -> ClassFunction:
    """Character of the exterior square: value at g is
    (chi(g)^2 - chi(g^2)) / 2."""
    return class_function(
        chi.n,
        {
            mu: (v**2 - chi.value(square_class(mu))) / 2
            for mu, v in zip(partitions_of(chi.n), chi.values)
        },
    )


# --- GL characters and Schur-Weyl counting ------------------------------------


def gl_character(lam, nvars: int) -> PolynomialValue:
    """Character of the irreducible polynomial GL_m module indexed by lam:
    the Schur polynomial in m variables."""
    return evaluate(basis_element(S, as_partition(lam)), nvars)


def gl_dimension(lam, nvars: int) -> int:
    """Dimension: the number of semistandard tableaux of shape lam with
    entries at most nvars, by the hook-content formula
    prod over cells u of (nvars + c(u)) / h(u), zero when the shape has more
    than nvars rows (the cell in row nvars + 1 and column 1 has content -nvars)."""
    if nvars < 0:
        raise ValueError("variable count must be >= 0")
    cells = hook_content_cells(lam)
    return prod(nvars + c for _, c in cells) // prod(h for h, _ in cells)


def schur_weyl_check(n: int, m: int) -> bool:
    """Dimension count of the tensor-space decomposition:
    m^n == sum over lam |- n with at most m rows of f^lam * dim V^lam."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    if n > 6 or m > 6:
        raise ValueError("the Schur-Weyl check is supported for n, m <= 6")
    total = sum(
        f_lambda(lam) * gl_dimension(lam, m)
        for lam in partitions_of(n)
        if len(lam) <= m
    )
    return total == m**n
