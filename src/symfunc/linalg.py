"""Dense exact linear algebra over the rationals.

Everything is Fraction-or-int valued; matrices are tuples of row tuples.
Sizes here are small (under ~100 rows at the default degree caps), so plain
Gaussian elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolationError

Matrix = tuple[tuple, ...]


def identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def kron(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for ra in a:
        for rb in b:
            rows.append(tuple(x * y for x in ra for y in rb))
    return tuple(rows) if a and b else ()


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    wa = len(a[0]) if a else 0
    wb = len(b[0]) if b else 0
    rows = [tuple(row) + (0,) * wb for row in a]
    rows += [(0,) * wa + tuple(row) for row in b]
    return tuple(rows)


def invert(a: Matrix) -> Matrix:
    """Inverse of a square matrix by Gauss-Jordan elimination.

    Raises ValueError on a singular input.
    """
    d = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(a)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


class ColumnSpaceSolver:
    """Repeated exact solves of A x = b for a fixed full-column-rank A.

    Picks a set of pivot rows once, inverts the square subsystem, and checks
    every solve against the full system so an inconsistent right-hand side
    raises instead of silently projecting.
    """

    def __init__(self, a: Matrix):
        self.a = a
        self.ncols = len(a[0]) if a else 0
        self.pivot_rows = self._pick_pivot_rows()
        square = tuple(a[r] for r in self.pivot_rows)
        self.inv = invert(square)

    def _pick_pivot_rows(self) -> list[int]:
        work: list[list[Fraction]] = []
        chosen: list[int] = []
        for ridx, row in enumerate(self.a):
            cand = [Fraction(x) for x in row]
            for prow in work:
                lead = next((j for j, x in enumerate(prow) if x != 0))
                if cand[lead] != 0:
                    factor = cand[lead] / prow[lead]
                    cand = [x - factor * y for x, y in zip(cand, prow)]
            if any(x != 0 for x in cand):
                work.append(cand)
                chosen.append(ridx)
            if len(chosen) == self.ncols:
                return chosen
        raise InvariantViolationError("matrix does not have full column rank")

    def solve(self, b) -> list[Fraction]:
        bsub = [b[r] for r in self.pivot_rows]
        x = mat_vec(self.inv, bsub)
        for row, target in zip(self.a, b):
            if sum(c * xi for c, xi in zip(row, x)) != target:
                raise InvariantViolationError("inconsistent linear system")
        return x
