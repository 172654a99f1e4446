"""Dense exact matrices for the representations in matrixreps.

Matrices are tuples of row tuples with int or Fraction entries. The
operations are the ones a representation needs: products (homomorphism and
generator-relation checks), Kronecker products (inner tensor products) and
block sums (direct sums). No route in the package solves a linear system.
"""

from __future__ import annotations

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

