"""Digests of the Young, regular, defining, standard, induced, tensor and
direct-sum matrix representations, pinned by
``tests/golden/rep_matrices.json``.

Each module maps to the first 16 hex digits of the SHA-256 of the repr of
its generator matrices, its matrix at the longest element n n-1 ... 1 and
its ``character_of``. The modules are every Young module of n <= 6, the
regular module of n <= 5, the modules induced from the trivial and the
sign of every Young subgroup S_c, c a composition of n <= 5, the defining
and standard modules of n <= 6, four tensor products (``a x b``) and four
direct sums (``a + b``) of small modules, two of them with the
zero-dimensional ``standard 1``. With no argument the script
prints the whole digest file; with names such as ``"young 3,2"
"induce 2,1 sign"`` it prints only their entries, for a change that moves
those matrices on purpose:

    python tests/rep_digest.py > tests/golden/rep_matrices.json
    python tests/rep_digest.py "young 3,2" "induce 2,1 sign"
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

try:
    import symfunc  # noqa: F401
except ModuleNotFoundError:  # direct `python tests/rep_digest.py` run
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from symfunc.matrixreps import (
    SubgroupSpec,
    character_of,
    classical_rep,
    direct_sum,
    induce,
    sign_of,
    specht_module,
    tensor_product,
    trivial_of,
    young_module,
)
from symfunc.partitions import format_partition, parse_partition, partitions_of


def compositions(n: int) -> list[tuple[int, ...]]:
    """Every composition of n, in lexicographic order."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in compositions(n - k)]


def names() -> list[str]:
    out = [f"young {format_partition(mu)}" for n in range(1, 7) for mu in partitions_of(n)]
    out += [f"regular {n}" for n in range(1, 6)]
    out += [f"induce {format_partition(c)} {kind}"
            for n in range(1, 6) for c in compositions(n) for kind in ("trivial", "sign")]
    out += [f"defining {n}" for n in range(1, 7)]
    out += [f"standard {n}" for n in range(1, 7)]
    out += ["specht 3,1 x young 2,2", "standard 4 x induce 2,2 sign", "regular 4 + defining 4",
            "regular 3 x specht 2,1", "specht 2,1 + induce 3 sign",
            "standard 1 x defining 1", "standard 1 + defining 1"]  # standard 1 has dim 0
    return out


def module(name: str):
    for symbol, pair in ((" + ", direct_sum), (" x ", tensor_product)):
        if symbol in name:
            a, b = name.split(symbol)
            return pair(module(a), module(b))
    kind, arg, *rest = name.split()
    if kind == "young":
        return young_module(parse_partition(arg))
    if kind == "specht":
        return specht_module(parse_partition(arg))
    if kind in ("regular", "defining", "standard"):
        return classical_rep(kind, int(arg))
    sub = SubgroupSpec.young(tuple(int(k) for k in arg.split(",")))
    return induce((trivial_of if rest == ["trivial"] else sign_of)(sub), sub.n)


def digest(name: str) -> str:
    rep = module(name)
    longest = tuple(range(rep.n, 0, -1))
    text = repr((rep.generator_matrices(), rep.matrix(longest), character_of(rep)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(which=None) -> dict[str, str]:
    """{name: digest(name)} over the names given, by default names()."""
    return {name: digest(name) for name in (names() if which is None else which)}


def render(table: dict[str, str]) -> str:
    return json.dumps(table, indent=1) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render(digests(sys.argv[1:] or None)))
