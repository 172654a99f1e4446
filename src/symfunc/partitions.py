"""Integer partitions and permutations.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. Permutations are one-line words: the
tuple ``(2, 3, 1)`` is the map 1->2, 2->3, 3->1. Composition follows
``(compose(p, q))(i) == p(q(i))`` (apply ``q`` first), and every module in
this package uses that convention.

The canonical enumeration order used everywhere is descending lexicographic,
so transition matrices, tables and golden files are reproducible.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations as _itertools_permutations
from math import factorial

from .errors import SizeMismatchError

__all__ = [
    "Partition",
    "Permutation",
    "as_partition",
    "as_composition",
    "partitions_of",
    "partition_ranks",
    "conjugate",
    "dominates",
    "z_value",
    "count_of_type",
    "contains",
    "parse_partition",
    "format_partition",
    "as_permutation",
    "identity_perm",
    "compose",
    "inverse_perm",
    "sign",
    "cycles",
    "cycle_type",
    "all_permutations",
    "class_representative",
    "parse_permutation",
]

Partition = tuple[int, ...]
Permutation = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate and normalize ``parts`` into a partition tuple.

    Trailing zeros are stripped; anything else invalid raises ValueError.
    """
    lam = tuple(int(p) for p in parts)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {p}")
        if i and lam[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def as_composition(parts) -> tuple[int, ...]:
    """Validate ``parts`` into a composition: positive ints in any order,
    the empty tuple being the composition of 0."""
    comp = tuple(int(p) for p in parts)
    if any(c < 1 for c in comp):
        raise ValueError("composition parts must be positive integers")
    return comp


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


@lru_cache(maxsize=None)
def partition_ranks(n: int) -> dict[Partition, int]:
    """The position of each partition of ``n`` in ``partitions_of(n)``."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: part j of the result counts the
    rows of ``lam`` of length >= j."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order: every prefix sum of ``lam`` >= the one of ``mu``.

    Both partitions must have the same size.
    """
    if sum(lam) != sum(mu):
        raise SizeMismatchError(
            f"dominance compares partitions of equal size: |{lam}| != |{mu}|"
        )
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


@lru_cache(maxsize=4096)
def z_value(lam: Partition) -> int:
    """prod_i i^{m_i} m_i! over the part multiplicities m_i; 1 for ()."""
    z = 1
    for part, mult in Counter(lam).items():
        z *= part**mult * factorial(mult)
    return z


def count_of_type(lam: Partition) -> int:
    """Number of permutations of S_{|lam|} whose cycle type is ``lam``."""
    return factorial(sum(lam)) // z_value(lam)


def contains(inner: Partition, outer: Partition) -> bool:
    """Diagram containment inner_i <= outer_i for all rows."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def parse_partition(text: str) -> Partition:
    """Parse ``"3,2,1"`` or ``"()"``; parts must already be descending."""
    text = text.strip()
    if text in ("()", ""):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return as_partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "()"


# --- permutations -----------------------------------------------------------


def as_permutation(images) -> Permutation:
    pi = tuple(int(i) for i in images)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"not a permutation word: {pi}")
    return pi


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p q)(i) = p(q(i)): apply ``q`` first, then ``p``."""
    if len(p) != len(q):
        raise ValueError("permutations of different degree")
    return tuple([p[i - 1] for i in q])


def inverse_perm(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, img in enumerate(p, start=1):
        inv[img - 1] = i
    return tuple(inv)


def cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Cycle decomposition, each cycle starting at its smallest unseen point."""
    seen = [False] * len(p)
    out = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        j = p[start - 1]
        while j != start:
            cyc.append(j)
            seen[j - 1] = True
            j = p[j - 1]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Permutation) -> Partition:
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def sign(p: Permutation) -> int:
    return -1 if (len(p) - len(cycles(p))) % 2 else 1


def all_permutations(n: int):
    """All of S_n in lexicographic one-line order."""
    return _itertools_permutations(range(1, n + 1))


def class_representative(mu: Partition) -> Permutation:
    """Canonical permutation of cycle type ``mu``: consecutive cycles
    (1..mu_1)(mu_1+1..mu_1+mu_2)..."""
    word = []
    base = 1
    for length in mu:
        word.extend(list(range(base + 1, base + length)) + [base])
        base += length
    return tuple(word)


def parse_permutation(text: str) -> Permutation:
    try:
        images = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"malformed permutation word {text!r}") from None
    return as_permutation(images)
