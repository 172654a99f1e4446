"""Explicit integer matrix representations of S_n and their characters.

Classical representations (trivial, sign, defining, regular, standard),
Young permutation modules on row-sorted injective tableaux, Specht modules,
induction and restriction along subgroups, sums/tensors, exterior-square
characters, and the GL-side character/dimension checks.

Characters come from a trace rule, not a dense matrix: permutation modules
count the basis vectors their images rule fixes, an induced module sums the
inner traces over its diagonal blocks (Frobenius), tensor products multiply
traces, direct sums add them and restrictions keep the parent's rule; only
Specht, standard, trivial and sign modules sum a diagonal. decompose pairs
class traces with irreducible characters in integers, dividing by n! once.

The Specht module S^lam is spanned by the column-antisymmetrized tableau
polynomials F_T of the standard tableaux T, which are the standard
polytabloids e_T written in monomials. These are unitriangular: the tabloid
{T} dominates every other tabloid of e_T and has coefficient 1 (Sagan, The
Symmetric Group, 2.5, the standard basis theorem), and dominance implies the
lexicographic order of exponent vectors. So the matrix of pi is found by
straightening each pi . F_T in integers along the lexicographically smallest
monomials, with no linear solve; its entries are ints.

A MatrixRep carries a rule producing the exact matrix of any permutation in
its domain; matrices are built only by matrix() and memoized
compute-then-publish, so values are immutable once visible.
matrix(pi sigma) == matrix(pi) . matrix(sigma) under the package-wide
convention (pi sigma)(i) = pi(sigma(i)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations as _perms, product as _cartesian
from math import factorial, prod

from . import limits
from .characters import ClassFunction, character_row, class_function
from .errors import InvariantViolationError
from .linalg import Matrix, block_diag, identity, kron, mat_mul
from .partitions import (
    Partition,
    Permutation,
    all_permutations,
    as_partition,
    class_representative,
    compose,
    count_of_type,
    identity_perm,
    inverse_perm,
    partitions_of,
    sign as perm_sign,
)
from .ring import PolynomialValue, S, _add_scaled, _OnceCache, basis_element, evaluate
from .tableaux import Tableau, f_lambda, hook_content_cells, standard_tableaux

def set_rep_caps(**caps: int) -> None:
    """Replace caps of the library-wide default, as limits.set_default does.
    Kept under this name because the reps benchmark raises the Specht cap
    through it; new code calls symfunc.limits directly."""
    limits.set_default(**caps)


@dataclass(frozen=True)
class SubgroupSpec:
    """An explicit subgroup of S_n: the ambient degree and the full element
    list (closed under composition and inverse, containing the identity)."""

    n: int
    elements: tuple[Permutation, ...]

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
        """The Young subgroup S_{n_1} x ... x S_{n_r} on consecutive blocks."""
        blocks = [int(x) for x in composition]
        if any(b < 1 for b in blocks):
            raise ValueError("composition parts must be positive")
        n = sum(blocks)
        starts = []
        base = 1
        for b in blocks:
            starts.append(list(range(base, base + b)))
            base += b
        elems = []
        for pieces in _cartesian(*[_perms(block) for block in starts]):
            word = [0] * n
            for block, image in zip(starts, pieces):
                for src, img in zip(block, image):
                    word[src - 1] = img
            elems.append(tuple(word))
        return cls(n, tuple(sorted(elems)))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self._members

    def conjugacy_classes(self) -> list[tuple[Permutation, ...]]:
        """Brute-force conjugacy classes, each sorted, smallest rep first."""
        remaining = set(self.elements)
        classes = []
        for g in self.elements:
            if g not in remaining:
                continue
            orbit = {compose(h, compose(g, inverse_perm(h))) for h in self.elements}
            classes.append(tuple(sorted(orbit)))
            remaining -= orbit
        return classes


def young_classes(composition) -> list[tuple[Permutation, int]]:
    """(representative, size) of each conjugacy class of the Young subgroup
    S_{n_1} x ... x S_{n_r}, sorted by representative, without listing its
    elements: a class is one cycle type rho_i per block, of size
    prod n_i! / z_(rho_i), and its lex-smallest element puts each block's
    cycles in increasing length on consecutive letters, a -> a+1 -> ... -> a."""
    blocks = [int(x) for x in composition]
    if any(b < 1 for b in blocks):
        raise ValueError("composition parts must be positive")
    rows = []
    for types in _cartesian(*[partitions_of(b) for b in blocks]):
        word: list[int] = []
        for rho in types:
            base = len(word)
            word.extend(base + i for i in class_representative(rho[::-1]))
        rows.append((tuple(word), prod(count_of_type(rho) for rho in types)))
    return sorted(rows)


@dataclass(eq=False)
class MatrixRep:
    """A representation: degree n, dimension, and an exact matrix for every
    permutation in the domain (None = all of S_n). An optional trace rule
    gives the character without building the matrix."""

    n: int
    dim: int
    _matrix_fn: object
    domain: SubgroupSpec | None = None
    label: str = ""
    _trace_fn: object = field(default=None, repr=False)
    _matrices: _OnceCache = field(default_factory=_OnceCache, repr=False)

    def _checked(self, perm) -> Permutation:
        pi = tuple(perm)
        if len(pi) != self.n:
            raise ValueError(f"permutation degree {len(pi)} != {self.n}")
        if self.domain is not None and pi not in self.domain:
            raise ValueError(f"{pi} is outside this representation's domain")
        return pi

    def matrix(self, perm) -> Matrix:
        pi = self._checked(perm)
        return self._matrices.get(pi, lambda: self._matrix_fn(pi))

    def trace(self, perm) -> int:
        pi = self._checked(perm)
        if self._trace_fn is not None:
            return self._trace_fn(pi)
        m = self.matrix(pi)
        return sum(m[i][i] for i in range(self.dim))

    def generator_matrices(self) -> dict[int, Matrix]:
        """Matrices of the adjacent transpositions s_1..s_{n-1} (full-group
        representations only)."""
        if self.domain is not None:
            raise ValueError("generator matrices only defined on full S_n")
        return {i: self.matrix(adjacent_transposition(self.n, i))
                for i in range(1, self.n)}

    def elements(self):
        if self.domain is not None:
            return self.domain.elements
        return all_permutations(self.n)


def adjacent_transposition(n: int, i: int) -> Permutation:
    if not 1 <= i < n:
        raise ValueError(f"s_{i} is not a generator of S_{n}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return tuple(word)


def _perm_matrix(images: list[int], dim: int) -> Matrix:
    """Matrix sending basis vector j to basis vector images[j]."""
    rows = [[0] * dim for _ in range(dim)]
    for j, i in enumerate(images):
        rows[i][j] = 1
    return tuple(tuple(r) for r in rows)


def _permutation_module(n: int, dim: int, images, label: str) -> MatrixRep:
    """The module permuting its basis by images(pi); the trace of pi is the
    number of basis vectors it fixes."""
    return MatrixRep(
        n, dim, lambda pi: _perm_matrix(images(pi), dim), label=label,
        _trace_fn=lambda pi: sum(j == i for j, i in enumerate(images(pi))),
    )


def classical_rep(kind: str, n: int) -> MatrixRep:
    """One of the classical representations: trivial, sign, defining
    (dimension n), regular (n!, capped), standard (n-1, the orthogonal
    complement of the all-ones line in the defining representation)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "trivial":
        return MatrixRep(n, 1, lambda pi: ((1,),), label=f"trivial(S_{n})")
    if kind == "sign":
        return MatrixRep(n, 1, lambda pi: ((perm_sign(pi),),), label=f"sign(S_{n})")
    if kind == "defining":
        return _permutation_module(
            n, n, lambda pi: [v - 1 for v in pi], f"defining(S_{n})"
        )
    if kind == "regular":
        limits.check("regular", n)
        basis = list(all_permutations(n))
        index = {g: i for i, g in enumerate(basis)}
        return _permutation_module(
            n, len(basis), lambda pi: [index[compose(pi, h)] for h in basis],
            f"regular(S_{n})",
        )
    if kind == "standard":
        dim = n - 1

        def fn(pi):
            cols = []
            for j in range(2, n + 1):
                vec = [0] * dim
                if pi[j - 1] != 1:
                    vec[pi[j - 1] - 2] += 1
                if pi[0] != 1:
                    vec[pi[0] - 2] -= 1
                cols.append(vec)
            return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))

        return MatrixRep(n, dim, fn, label=f"standard(S_{n})")
    raise ValueError(f"unknown classical representation {kind!r}")


def _class_traces(rep: MatrixRep) -> dict[Partition, int]:
    if rep.domain is not None:
        raise ValueError("character_of needs a full-S_n representation")
    return {mu: rep.trace(class_representative(mu)) for mu in partitions_of(rep.n)}


def character_of(rep: MatrixRep) -> ClassFunction:
    """Trace at one canonical representative per cycle type (full-group
    representations; for subgroup domains use rep.trace per element)."""
    return class_function(rep.n, _class_traces(rep))


def decompose(rep: MatrixRep) -> dict[Partition, int]:
    """Multiplicity of each irreducible lam, the character inner product
    sum over classes rho of chi(rho) chi^lam(rho) |class of rho|, divided by
    n! once; raises if any multiplicity fails to be a nonnegative integer."""
    traces = _class_traces(rep)
    order = factorial(rep.n)
    out: dict[Partition, int] = {}
    for lam in partitions_of(rep.n):
        row = character_row(lam)
        total = sum(t * row[mu] * count_of_type(mu) for mu, t in traces.items() if t)
        val, rem = divmod(total, order)
        if rem:
            raise InvariantViolationError(
                f"multiplicity of {lam} is non-integral: {Fraction(total, order)}"
            )
        if val < 0:
            raise InvariantViolationError(f"negative multiplicity {val} at {lam}")
        if val:
            out[lam] = val
    return out


# --- Young permutation modules and Specht modules -----------------------------


def young_basis(lam: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """Row-sorted injective tableaux of shape lam, as ordered tuples of
    sorted row sets; deterministic lexicographic enumeration."""
    lam = as_partition(lam)
    n = sum(lam)

    def fill(rows_left: tuple[int, ...], available: tuple[int, ...]):
        if not rows_left:
            yield ()
            return
        k = rows_left[0]
        for chosen in combinations(available, k):
            rest = tuple(x for x in available if x not in chosen)
            for tail in fill(rows_left[1:], rest):
                yield (chosen,) + tail

    return list(fill(lam, tuple(range(1, n + 1))))


def young_module(lam) -> MatrixRep:
    """Permutation representation on the row-sorted injective tableaux of
    shape lam; dimension n! / prod(lam_i!)."""
    lam = as_partition(lam)
    n = sum(lam)
    limits.check("young", n)
    basis = young_basis(lam)
    dim = factorial(n) // prod(factorial(part) for part in lam)
    if dim != len(basis):
        raise InvariantViolationError("Young module dimension mismatch")
    # a tabloid as its row word: entry v - 1 holds the row of v
    rows_of = [{v: r for r, row in enumerate(b) for v in row} for b in basis]
    words = [[rows[v] for v in range(1, n + 1)] for rows in rows_of]
    index = {tuple(w): i for i, w in enumerate(words)}

    def images(pi):
        # pi moves v to row word position pi(v), as in specht_module
        source = [v - 1 for v in inverse_perm(pi)]
        return [index[tuple([w[v] for v in source])] for w in words]

    return _permutation_module(n, dim, images, f"young({lam})")


def _column_groups(tab: Tableau) -> list[tuple[int, ...]]:
    cols: dict[int, list[int]] = {}
    for r, row in enumerate(tab.rows):
        for c, v in enumerate(row):
            cols.setdefault(c, []).append(v)
    return [tuple(v) for _, v in sorted(cols.items())]


def _signed_permutations(k: int) -> list[tuple[tuple[int, ...], int]]:
    """Every permutation of range(k) with its sign (-1)^inversions, built by
    inserting letters in increasing order: m put at position i of a word in
    range(m) adds m - i inversions, one with each letter after it."""
    out = [((), 1)]
    for m in range(k):
        out = [(p[:i] + (m,) + p[i:], -s if (m - i) % 2 else s)
               for p, s in out for i in range(m + 1)]
    return out


def specht_polynomial(tab: Tableau) -> dict[tuple[int, ...], int]:
    """The column antisymmetrization of the injective-tableau monomial
    x^t = prod over cells of x_{entry}^(row index): a polynomial in
    x_1..x_n as exponent-vector -> integer. The entries of a column sit in
    distinct rows, so each column permutation has a monomial of its own."""
    n = tab.size
    row_of = [0] * n
    for r, row in enumerate(tab.rows):
        for v in row:
            row_of[v - 1] = r
    groups = _column_groups(tab)
    out: dict[tuple[int, ...], int] = {}
    for choice in _cartesian(*[_signed_permutations(len(g)) for g in groups]):
        exps = [0] * n
        sgn = 1
        for g, (p, s) in zip(groups, choice):
            sgn *= s
            for t, pt in enumerate(p):
                exps[g[pt] - 1] = row_of[g[t] - 1]
        out[tuple(exps)] = sgn
    return out


def specht_module(lam) -> MatrixRep:
    """The irreducible module S^lam spanned by the polynomials F_T of the
    standard tableaux T of shape lam; dimension = number of standard tableaux.

    F_T antisymmetrizes x^T, in which the exponent of x_v is the row of v
    in T; reading each monomial as a tabloid, F_T is the polytabloid e_T.
    For standard T the tabloid {T} dominates every other tabloid of e_T and
    has coefficient 1 (Sagan, The Symmetric Group, 2.5). Dominance implies
    the lexicographic order of exponent vectors: at the first entry where
    two tabloids differ, the dominant one has it in an earlier row, a
    smaller exponent. So the lead min(F_T) is {T}, the standard F_T are
    unitriangular in that order, and pi . F_{T_i} is straightened in
    integers by one walk through the leads in increasing order. A nonzero
    residual means pi . F_{T_i} left the span, which raises.
    """
    lam = as_partition(lam)
    n = sum(lam)
    limits.check("specht", n)
    tabs = standard_tableaux(lam)
    polys = [specht_polynomial(t) for t in tabs]
    dim = len(tabs)
    if dim != f_lambda(lam):
        raise InvariantViolationError("Specht dimension != standard tableau count")
    leads = [min(poly) for poly in polys]
    order = sorted(range(dim), key=leads.__getitem__)

    def fn(pi):
        # pi . x^a moves the exponent of x_v to x_{pi(v)}
        source = [v - 1 for v in inverse_perm(pi)]
        rows = [[0] * dim for _ in range(dim)]
        for i, poly in enumerate(polys):
            residual = {tuple([key[v] for v in source]): c for key, c in poly.items()}
            for j in order:
                c = residual.get(leads[j])
                if c:
                    rows[j][i] = c
                    _add_scaled(residual, -c, polys[j])
            if residual:
                raise InvariantViolationError(
                    "permuted Specht polynomial left the span of the standard ones"
                )
        return tuple(tuple(row) for row in rows)

    return MatrixRep(n, dim, fn, label=f"specht({lam})")


# --- induction / restriction / sums / tensors ---------------------------------


def _lex_cosets(subgroup: SubgroupSpec) -> tuple[list[Permutation], dict]:
    """Left-coset representatives t_i found by scanning S_n in lexicographic
    word order and keeping each minimal unseen one, with the coset table
    {t_i h: (i, h)}."""
    reps: list[Permutation] = []
    where: dict = {}
    for g in all_permutations(subgroup.n):
        if g not in where:
            for h in subgroup.elements:
                where[compose(g, h)] = (len(reps), h)
            reps.append(g)
    return reps, where


def lex_transversal(subgroup: SubgroupSpec) -> list[Permutation]:
    return _lex_cosets(subgroup)[0]


def induce(rep: MatrixRep, n: int, transversal=None) -> MatrixRep:
    """Induction from the subgroup domain of ``rep`` up to S_n, as the block
    matrix with (i, j) block Y(t_i^{-1} g t_j) (zero when the argument falls
    outside the subgroup). Block column j has exactly one nonzero block: the
    i and h with g t_j = t_i h, read from the coset table {t_i h: (i, h)}.
    The trace is the Frobenius sum of Y.trace(h) over the j with i = j."""
    if rep.domain is None:
        raise ValueError("induce needs a representation with a subgroup domain")
    if rep.n != n:
        raise ValueError("subgroup must sit inside S_n (same word degree)")
    sub = rep.domain
    if transversal is None:
        ts, where = _lex_cosets(sub)
    else:
        ts = [tuple(t) for t in transversal]
        where = {compose(t, h): (i, h) for i, t in enumerate(ts) for h in sub.elements}
        if len(where) != len(ts) * sub.order or len(where) != factorial(n):
            raise ValueError("not a transversal of the subgroup")
    k = len(ts)
    d = rep.dim

    def fn(g):
        rows = [[0] * (k * d) for _ in range(k * d)]
        for j, t in enumerate(ts):
            i, h = where[compose(g, t)]
            for r, block_row in enumerate(rep.matrix(h)):
                rows[i * d + r][j * d:(j + 1) * d] = block_row
        return tuple(tuple(row) for row in rows)

    def trace(g):
        cells = (where[compose(g, t)] + (j,) for j, t in enumerate(ts))
        return sum(rep.trace(h) for i, h, j in cells if i == j)

    return MatrixRep(n, k * d, fn, label=f"induced({rep.label})", _trace_fn=trace)


def restrict(rep: MatrixRep, subgroup: SubgroupSpec) -> MatrixRep:
    """Same matrices, domain cut down to the subgroup."""
    if rep.n != subgroup.n:
        raise ValueError("subgroup degree differs from the representation's")
    if rep.domain is not None and not all(h in rep.domain for h in subgroup.elements):
        raise ValueError("new domain is not a subgroup of the current one")
    return MatrixRep(
        rep.n, rep.dim, rep.matrix, domain=subgroup, label=f"restricted({rep.label})",
        _trace_fn=rep.trace,
    )


def trivial_of(subgroup: SubgroupSpec) -> MatrixRep:
    n = subgroup.n
    return MatrixRep(n, 1, lambda pi: ((1,),), subgroup, f"trivial({n})")


def sign_of(subgroup: SubgroupSpec) -> MatrixRep:
    n = subgroup.n
    return MatrixRep(n, 1, lambda pi: ((perm_sign(pi),),), subgroup, f"sign({n})")


def _check_same_domain(a: MatrixRep, b: MatrixRep):
    if a.n != b.n:
        raise ValueError(f"degrees differ: {a.n} != {b.n}")
    da = a.domain.elements if a.domain else None
    db = b.domain.elements if b.domain else None
    if da != db:
        raise ValueError("domains differ")


def direct_sum(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    _check_same_domain(a, b)
    return MatrixRep(
        a.n,
        a.dim + b.dim,
        lambda pi: block_diag(a.matrix(pi), b.matrix(pi)),
        domain=a.domain,
        label=f"({a.label})+({b.label})",
        _trace_fn=lambda pi: a.trace(pi) + b.trace(pi),
    )


def tensor_product(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    """Inner tensor product: the diagonal action, Kronecker-product
    matrices; characters multiply pointwise."""
    _check_same_domain(a, b)
    return MatrixRep(
        a.n,
        a.dim * b.dim,
        lambda pi: kron(a.matrix(pi), b.matrix(pi)),
        domain=a.domain,
        label=f"({a.label})x({b.label})",
        _trace_fn=lambda pi: a.trace(pi) * b.trace(pi),
    )


def subgroup_char_inner(subgroup: SubgroupSpec, f, g) -> Fraction:
    """<f, g>_H = (1/|H|) sum over H of f(h) g(h) for element-wise
    character values (callables on permutations)."""
    return Fraction(sum(f(h) * g(h) for h in subgroup.elements), subgroup.order)


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
    vals = chi.as_dict()
    return class_function(
        chi.n,
        {
            mu: (vals[mu] ** 2 - vals[square_class(mu)]) / 2
            for mu in partitions_of(chi.n)
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
    prod over cells u of (nvars + c(u)) / h(u) (zero when the shape has too
    many rows)."""
    lam = as_partition(lam)
    if len(lam) > nvars:
        return 0
    cells = hook_content_cells(lam)
    return prod(nvars + c for _, c in cells) // prod(h for h, _ in cells)


def schur_weyl_check(n: int, m: int) -> bool:
    """Dimension count of the tensor-space decomposition:
    m^n == sum over lam |- n with at most m rows of f^lam * dim V^lam."""
    if not (0 <= n <= 6 and 0 <= m <= 6):
        raise ValueError("schur_weyl_check is supported for n, m <= 6")
    total = sum(
        f_lambda(lam) * gl_dimension(lam, m)
        for lam in partitions_of(n)
        if len(lam) <= m
    )
    return total == m**n


# --- structural checks ---------------------------------------------------------


def verify_generator_relations(rep: MatrixRep) -> bool:
    """Explicitly check s_i^2 = 1, the braid relations and distant
    commutation by matrix multiplication."""
    if rep.domain is not None:
        raise ValueError("relation check needs a full-S_n representation")
    n = rep.n
    eye = identity(rep.dim)
    gens = {i: rep.matrix(adjacent_transposition(n, i)) for i in range(1, n)}
    for i in range(1, n):
        if mat_mul(gens[i], gens[i]) != eye:
            return False
    for i in range(1, n - 1):
        lhs = mat_mul(gens[i], mat_mul(gens[i + 1], gens[i]))
        rhs = mat_mul(gens[i + 1], mat_mul(gens[i], gens[i + 1]))
        if lhs != rhs:
            return False
    for i in range(1, n):
        for j in range(i + 2, n):
            if mat_mul(gens[i], gens[j]) != mat_mul(gens[j], gens[i]):
                return False
    return True
