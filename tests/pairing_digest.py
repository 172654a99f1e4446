"""Digests of the h, s and m pairing tables, pinned by
``tests/golden/pairing_tables.json``.

Each ``basis:degree``, for h, s and m and every degree 0..16, maps to the
SHA-256 of ``repr(ring._pairing(basis, degree))``, the table as a tuple of
dense int rows. With no argument the script prints the whole digest file;
with a top degree it prints every degree up to that one, under a raised
ring cap, for a check beyond the pinned degrees:

    python tests/pairing_digest.py > tests/golden/pairing_tables.json
    python tests/pairing_digest.py 20
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

try:
    import symfunc  # noqa: F401
except ModuleNotFoundError:  # direct `python tests/pairing_digest.py` run
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from symfunc import limits, ring

MAX_DEGREE = 16
BASES = ("h", "s", "m")


def digests(top: int = MAX_DEGREE) -> dict[str, str]:
    """{"basis:degree": SHA-256 of the table} for every degree 0..top."""
    with limits.scoped(limits.current().raised(top)):
        return {
            f"{b}:{d}": hashlib.sha256(repr(ring._pairing(b, d)).encode()).hexdigest()
            for b in BASES
            for d in range(top + 1)
        }


def render(table: dict[str, str]) -> str:
    return json.dumps(table, indent=1) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render(digests(*map(int, sys.argv[1:2]))))
