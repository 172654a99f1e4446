"""Digests of the Specht generator matrices, pinned by
``tests/golden/specht_generators.json``.

Each partition lam of n, 1 <= n <= 8, maps to the first 16 hex digits of
the SHA-256 of ``repr(specht_module(lam).generator_matrices())``. With no
argument the script prints the whole digest file; with shapes such as
``3,2 2,2,1`` it prints only their entries, for a change that moves those
matrices on purpose:

    python tests/specht_digest.py > tests/golden/specht_generators.json
    python tests/specht_digest.py 3,2 2,2,1
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

try:
    import symfunc  # noqa: F401
except ModuleNotFoundError:  # direct `python tests/specht_digest.py` run
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from symfunc import limits
from symfunc.matrixreps import specht_module
from symfunc.partitions import format_partition, parse_partition, partitions_of

MAX_N = 8


def digest(lam) -> str:
    with limits.scoped(limits.current().raised(MAX_N)):
        text = repr(specht_module(lam).generator_matrices())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(shapes=None) -> dict[str, str]:
    """{format_partition(lam): digest(lam)} over the shapes given, by
    default every lam of n = 1..MAX_N."""
    if shapes is None:
        shapes = [lam for n in range(1, MAX_N + 1) for lam in partitions_of(n)]
    return {format_partition(lam): digest(lam) for lam in shapes}


def render(table: dict[str, str]) -> str:
    return json.dumps(table, indent=1) + "\n"


if __name__ == "__main__":
    names = sys.argv[1:]
    sys.stdout.write(render(digests([parse_partition(a) for a in names] if names else None)))
