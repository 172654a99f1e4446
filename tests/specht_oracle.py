"""Independent check of the Specht matrices, kept out of the library: the
standard polytabloids written as column-antisymmetrized tableau
polynomials, a second route to Young's natural matrices, used only by the
tests."""

from itertools import product as _cartesian

from symfunc.tableaux import Tableau


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
    distinct rows, so each column permutation has a monomial of its own.
    Reading each monomial as a tabloid, it is the polytabloid e_t."""
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
