"""(Skew) semistandard and standard Young tableaux, Kostka numbers and RSK.

Enumeration is backtracking in row-major cell order, pruning with the
row-weak / column-strict constraints, so fillings stream out in row-major
lexicographic order and counting never materializes more than one tableau.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import factorial, prod

from ._record import Record
from .partitions import Partition, as_partition, conjugate, contains

__all__ = [
    "SkewShape",
    "Tableau",
    "enumerate_ssyt",
    "count_ssyt",
    "kostka",
    "f_lambda",
    "hook_content_cells",
    "standard_tableaux",
    "rsk",
    "rsk_inverse",
]


class SkewShape(Record):
    """A skew diagram outer/inner with inner contained in outer."""

    outer: Partition
    inner: Partition

    def __init__(self, outer, inner=()):
        outer, inner = as_partition(outer), as_partition(inner)
        if not contains(inner, outer):
            raise ValueError(f"inner shape {inner} not contained in {outer}")
        super().__init__(outer, inner)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def cells(self) -> list[tuple[int, int]]:
        """Row-major list of (row, col) cells, 0-indexed."""
        out = []
        for r, width in enumerate(self.outer):
            start = self.inner[r] if r < len(self.inner) else 0
            out.extend((r, c) for c in range(start, width))
        return out


class Tableau(Record):
    """A filling of a (skew) Young diagram.

    ``rows[r]`` holds only the filled cells of row r, i.e. columns
    inner_r .. outer_r - 1. For straight shapes ``inner`` is empty and the
    rows are complete.
    """

    shape: Partition
    rows: tuple[tuple[int, ...], ...]
    inner: Partition = ()

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def content(self) -> tuple[int, ...]:
        """Multiplicity vector of the entries 1..max."""
        counts: dict[int, int] = {}
        for row in self.rows:
            for v in row:
                counts[v] = counts.get(v, 0) + 1
        if not counts:
            return ()
        return tuple(counts.get(i, 0) for i in range(1, max(counts) + 1))

    def entry(self, r: int, c: int) -> int | None:
        start = self.inner[r] if r < len(self.inner) else 0
        if r >= len(self.shape) or not (start <= c < self.shape[r]):
            return None
        return self.rows[r][c - start]

    def is_semistandard(self) -> bool:
        for r in range(len(self.shape)):
            start = self.inner[r] if r < len(self.inner) else 0
            for c in range(start, self.shape[r]):
                v = self.entry(r, c)
                if v is None or v < 1:
                    return False
                left = self.entry(r, c - 1) if c - 1 >= start else None
                if left is not None and left > v:
                    return False
                if r > 0:
                    above = self.entry(r - 1, c)
                    if above is not None and above >= v:
                        return False
        return True

    def is_standard(self) -> bool:
        if not self.is_semistandard():
            return False
        entries = sorted(v for row in self.rows for v in row)
        return entries == list(range(1, self.size + 1))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def _as_skew(shape) -> SkewShape:
    if isinstance(shape, SkewShape):
        return shape
    return SkewShape(as_partition(shape))


def enumerate_ssyt(shape, max_entry: int, content: tuple[int, ...] | None = None):
    """Stream every semistandard filling of ``shape`` with entries in
    [1, max_entry], in row-major lexicographic order.

    ``content`` optionally fixes the exact multiplicity of each entry
    (entry i appears content[i-1] times).
    """
    skew = _as_skew(shape)
    cells = skew.cells()
    if content is not None and sum(content) != len(cells):
        return
    remaining = list(content) if content is not None else None
    for grid in _fillings(0, cells, {}, max_entry, remaining):
        rows = []
        for r, width in enumerate(skew.outer):
            start = skew.inner[r] if r < len(skew.inner) else 0
            rows.append(tuple(grid[(r, c)] for c in range(start, width)))
        yield Tableau(skew.outer, tuple(rows), skew.inner)


def _fillings(k: int, cells, grid: dict, max_entry: int, remaining):
    """Backtracking behind enumerate_ssyt: fill cells[k:] in every way that
    keeps grid semistandard, yielding grid itself at each complete filling.
    A module-level generator, so that no closure refers to itself and a
    finished enumeration leaves no reference cycle behind."""
    if k == len(cells):
        yield grid
        return
    r, c = cells[k]
    # at least the entry to the left, more than the entry above
    lo = max(grid.get((r, c - 1), 1), grid.get((r - 1, c), 0) + 1)
    for v in range(lo, max_entry + 1):
        if remaining is not None:
            if v > len(remaining) or remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
        grid[(r, c)] = v
        yield from _fillings(k + 1, cells, grid, max_entry, remaining)
        del grid[(r, c)]
        if remaining is not None:
            remaining[v - 1] += 1


def count_ssyt(shape, max_entry: int, content: tuple[int, ...] | None = None) -> int:
    """Number of fillings that enumerate_ssyt streams for the same arguments."""
    return sum(1 for _ in enumerate_ssyt(shape, max_entry, content))


def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape ``lam`` and content ``mu``.

    Returns 0 when the sizes differ. Invariant under reordering of mu's
    parts, so mu may be any composition.
    """
    lam = as_partition(lam)
    mu = tuple(int(m) for m in mu)
    if any(m < 0 for m in mu):
        raise ValueError("content entries must be >= 0")
    if sum(lam) != sum(mu):
        return 0
    return count_ssyt(lam, len(mu), mu)


def hook_content_cells(lam: Partition) -> list[tuple[int, int]]:
    """(hook length, content) of every cell of ``lam``, row by row; the
    content of the cell in row r and column c is c - r."""
    lam = as_partition(lam)
    lam_t = conjugate(lam)
    return [(lam[r] - c + lam_t[c] - r - 1, c - r)
            for r in range(len(lam)) for c in range(lam[r])]


def f_lambda(lam: Partition) -> int:
    """Number of standard tableaux of shape ``lam``, by the hook-length
    formula n! / prod of the hook lengths."""
    lam = as_partition(lam)
    return factorial(sum(lam)) // prod(h for h, _ in hook_content_cells(lam))


def standard_tableaux(lam: Partition) -> list[Tableau]:
    """All standard tableaux of shape ``lam`` in row-major lex order."""
    lam = as_partition(lam)
    n = sum(lam)
    return list(enumerate_ssyt(lam, n, (1,) * n))


def rsk(word) -> tuple[Tableau, Tableau]:
    """Row-insertion Robinson-Schensted-Knuth correspondence.

    Returns (P, Q): P semistandard with the word's letters, Q standard
    recording the insertion order; the shapes agree.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(word, start=1):
        x = int(x)
        if x < 1:
            raise ValueError("word letters must be positive")
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            idx = bisect_right(row, x)
            if idx == len(row):
                row.append(x)
                q_rows[r].append(step)
                break
            x, row[idx] = row[idx], x
            r += 1
    shape = tuple(len(r) for r in p_rows)
    return (
        Tableau(shape, tuple(tuple(r) for r in p_rows)),
        Tableau(shape, tuple(tuple(r) for r in q_rows)),
    )


def rsk_inverse(p_tab: Tableau, q_tab: Tableau) -> tuple[int, ...]:
    """The unique word with rsk(word) == (p_tab, q_tab)."""
    shape = tuple(map(len, p_tab.rows))
    if (p_tab.shape != q_tab.shape or p_tab.inner or q_tab.inner
            or shape != tuple(map(len, q_tab.rows))):
        raise ValueError("P and Q must be straight tableaux of equal shape")
    if any(a < b for a, b in zip(shape, shape[1:])) or 0 in shape:
        raise ValueError(f"row lengths {shape} of P and Q are not a partition")
    if not p_tab.is_semistandard():
        raise ValueError("P is not semistandard")
    if not q_tab.is_standard():
        raise ValueError("Q is not standard")
    p_rows = [list(r) for r in p_tab.rows]
    n = q_tab.size
    position = {}
    for r, row in enumerate(q_tab.rows):
        for c, v in enumerate(row):
            position[v] = (r, c)
    word: list[int] = []
    for k in range(n, 0, -1):
        r, c = position[k]
        if c != len(p_rows[r]) - 1:
            raise ValueError("Q is not a recording tableau")
        x = p_rows[r].pop()
        if not p_rows[r]:
            p_rows.pop(r)
        for rr in range(r - 1, -1, -1):
            row = p_rows[rr]
            idx = bisect_left(row, x) - 1
            x, row[idx] = row[idx], x
        word.append(x)
    word.reverse()
    return tuple(word)

