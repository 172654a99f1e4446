"""Dense exact matrices for the representations in matrixreps.

Matrices are tuples of row tuples with int or Fraction entries. The
operations are the ones a representation needs: products (homomorphism and
generator-relation checks), Kronecker products (inner tensor products) and
block sums (direct sums). No route in the package solves a linear system;
``invert`` is kept only as an independent oracle for the tests.
"""

from __future__ import annotations

from fractions import Fraction

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

    Raises ValueError on a singular input. No route in the package calls it:
    tests/test_ring.py uses it as an oracle for the inverse transition rows.
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
