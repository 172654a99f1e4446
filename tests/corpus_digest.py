"""Digests of CLI answers, pinned by ``tests/golden/corpus.json``.

Each entry maps one call, written as shell words (``SYMF_*=value``
settings first, then the argv), to the first 16 hex digits of the SHA-256
of its exit code, stdout and stderr. A call runs in process through
``symfunc.cli.main`` with ``COLUMNS=80`` and exactly the ``SYMF_*``
settings it names. The calls are fixed lists plus seeded random inputs up
to degree 10, each in text and JSON; none takes time or memory beyond a
cap.

With no argument the script rewrites the whole file from its seeds. With
argv prefixes it rewrites only the entries whose argv, after its settings
and top options, starts with one of them, and prints the calls whose digest
changed, for a change that moves those answers on purpose:

    python tests/corpus_digest.py
    python tests/corpus_digest.py induce 'rep specht'
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys

try:
    import symfunc  # noqa: F401
except ModuleNotFoundError:  # direct `python tests/corpus_digest.py` run
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from symfunc import cli

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "corpus.json")
SEED = 20261019
MAX_DEGREE = 10
BASES = ("m", "e", "h", "p", "s")
TOP = ("--format", "--max-degree")
ENV = ("SYMF_FORMAT", "SYMF_MAX_DEGREE")

# a well-formed call of every subcommand and option
FIXED = [
    "partitions 0", "partitions 6", "conjugate 3,2,2", "conjugate ()",
    "dominates 3,1 2,2", "dominates 2,2 3,1", "ztable 5", "ztable 0",
    "kostka 3,2 2,2,1", "kostka 3,2 2,2,1 --tableaux", "kostka --tableaux 3 1,1",
    "kostka 4,3,2,1,1,1 1,1,1,1", "flambda 2,1", "flambda 5,3,1", "flambda ()",
    "rsk 3 1 2 2", "rsk 1", "rsk --inverse [[1,2],[3]] [[1,3],[2]]",
    "rsk --inverse [[1]] [[1]]",
    "convert s:1*2,1 m", "convert p:1/2*2+-1/2*1,1 s", "convert h:() e",
    "convert s:0*3 p", "multiply h:2 h:1 --basis s", "multiply p:2 e:1,1",
    "inner s:2,1 s:2,1", "inner h:3 m:3", "omega e:4 --basis h", "omega s:3,1",
    "skew 2,1 1", "skew 4,3,1 2,1 --basis m", "skew 2 3", "perp 1 s:2,1",
    "perp 2,1 h:3,2 --basis h", "evaluate e:2 3", "evaluate s:2,1 2",
    "evaluate p:() 1", "char 2,1 2,1", "char 5,3,1 3,3,2,1", "chartable 3",
    "chartable 6", "ch 3 3=1 2,1=1 1,1,1=1", "ch 3 1,1,1=2 --basis p", "ch 0",
    "ch-inverse s:2,1 3", "ch-inverse p:2+3*1,1 2", "lr 2,1 1,1 1",
    "lr 5,4,2,1 3,2,1 3,2,1", "kronecker 2,1 2,1 2,1", "kronecker 3,2 3,2 3,1,1",
    "kron-product s:2,1 s:2,1 --basis s", "kron-product h:2 p:1,1",
    "youngs-rule 3,2,1", "youngs-rule ()", "coproduct h:3 --bases h,h",
    "coproduct p:2 --counit", "coproduct s:2,1 --bases s,s", "coproduct e:2",
    "coproduct-star e:3 --bases s,s", "coproduct-star h:3 --counit",
    "coproduct-star m:2,1 --bases m,p", "antipode h:3 --basis e", "antipode s:2,1",
    "cauchy 3 s,s", "cauchy 4 h,m", "cauchy 3 m,h", "cauchy 3 p,p", "cauchy 0 s,s",
    "plethysm p:2 p:3", "plethysm p:2 p:1 --scale 2", "plethysm s:2 s:2 --basis s",
    "plethysm h:2 h:3 --basis s", "plethysm e:2 h:2 --scale -1 --basis m",
    "rep defining 3", "rep specht 2,1 --at '2 1 3'", "rep regular 3",
    "rep standard 4", "rep trivial 2", "rep sign 3", "rep young 2,1",
    "rep specht 3,2", "rep specht 2,2,1 --at '5 4 3 2 1'", "rep young 2,2 --at '2 1 4 3'",
    "decompose young 2,2", "decompose regular 4", "decompose specht 3,1",
    "decompose defining 5", "induce 2,1 trivial", "induce 2,1 trivial --at '2 1 3'",
    "induce 2,1,2 sign", "induce 2,2,1 sign --at '2 1 3 5 4'", "induce 1,2 trivial",
    "restrict 2,1 2,1", "restrict 4,2 3,3", "restrict 3,2 1,2,2",
    "tensor specht 2,1 specht 2,1", "tensor trivial 3 standard 3 --sum",
    "tensor young 3,2 defining 5 --sum", "tensor specht 3,1,1 specht 2,2,1",
    "ext2 defining 3", "ext2 young 3,2", "ext2 regular 3", "gl-char 2 2",
    "gl-char 2,1 3", "gl-char 3,1 1", "gl-dim 2 2", "gl-dim 4,2,1 5",
    "gl-dim 3,3 2", "schur-weyl 4 3", "schur-weyl 3 1",
    # above-cap input whose cap message names the first degree in term order
    "omega s:1*22+1*21 --basis s", "antipode h:1*22+1*21 --basis e",
    "inner s:1 s:1*22+1*21", "inner s:1*22+1*21 s:21",
    "coproduct s:1*22+1*21 --counit", "coproduct-star e:1*1+1*21 --counit",
    "perp 1 s:1*22+1*21", "perp 1 h:1*22+1*21",
]

# above-cap p input that is never listed, and the caps themselves
AT_CAP = [
    "convert p:200 p", "convert p:100,100 p", "multiply p:200 p:1",
    "multiply p:150 p:50,1", "omega p:200", "antipode p:200", "antipode p:120,80",
    "inner p:200 p:200", "inner p:200 p:100,100", "coproduct p:200",
    "coproduct p:200 --counit", "coproduct-star p:200 --counit",
    "coproduct p:100,100", "plethysm p:20 p:10", "plethysm p:200 p:1",
    "convert p:21 s", "convert s:21 s", "convert s:21 m", "multiply s:11 s:10",
    "coproduct s:21", "coproduct s:21 --counit", "coproduct-star s:21 --counit",
    "omega s:21", "perp 1 s:21", "skew 21 1", "evaluate s:21 1", "inner s:21 s:21",
    "char 13 13", "lr 13 1 12", "kronecker 13 13 13", "youngs-rule 13",
    "chartable 9", "ch 9", "ch-inverse s:9 9", "kron-product s:13 s:13",
    "rep specht 3,3", "rep regular 7", "rep young 4,3", "decompose specht 6",
    "plethysm s:5 s:5 --basis s", "cauchy 21 s,s", "restrict 13 13",
    "--max-degree 6 rep specht 3,2,1 --at '2 1 3 4 5 6'",
    "--max-degree 7 decompose regular 4", "--max-degree 9 chartable 9",
    "--max-degree 13 char 13 12,1",
]

# domain errors (exit 1) and usage errors, help and odd spellings (exit 2)
ERRORS = [
    "", "nosuch", "-h", "--help", "kostka -h", "convert --help", "rsk -h",
    "kostka", "kostka 3", "kostka 3 3 3", "kostka 3,a 2,1", "kostka 2,3 3,2",
    "kostka 3 2", "kostka -1 1", "conjugate 0,1", "conjugate x",
    "partitions -1", "partitions x", "ztable -2", "flambda 1,2",
    "rsk", "rsk a", "rsk 0 1", "rsk --inverse [[1]]", "rsk --inverse x y",
    "rsk --inverse [[1,2]] [[1],[2]]", "rsk --inverse [[true]] [[1]]",
    "convert s:2,1", "convert s:2,1 q", "convert q:2 s", "convert s2,1 m",
    "convert s:1/0*2 m", "convert s:x*2 m", "convert s:2++1 m", "convert s: m",
    "convert s:2,1,a m", "multiply h:2", "multiply h:2 h:1 --basis q",
    "inner s:2 s:2,1", "inner s:2 s:x", "omega s:2 --basis", "skew 2 3,1",
    "skew 1,2 1", "perp 2,1 s:2", "perp x s:2", "evaluate s:2 -1",
    "evaluate s:2 x", "char 2,1 3,1", "char 2,1 2", "chartable -1",
    "ch 3 3", "ch 3 3=1 3=2", "ch 3 4=1", "ch 3 3=x", "ch 3 3=1/0",
    "ch-inverse s:2,1 4", "ch-inverse s:2,1 -1", "lr 2,1 1 1",
    "lr 2,1 1,1 1,1", "kronecker 2,1 2,1 3,1", "kron-product s:2 s:3",
    "youngs-rule 1,2", "coproduct h:3 --bases h", "coproduct h:3 --bases h,q",
    "coproduct h:3 --bases h,h,h", "coproduct-star h:3 --bases x,y",
    "antipode q:3", "cauchy 3 s,h", "cauchy -1 s,s", "cauchy 3 s",
    "plethysm p:2 p:1 --scale x", "plethysm p:2", "plethysm s:2 s:x",
    "rep defining 0", "rep defining x", "rep nosuch 3", "rep specht 2,1 --at '1 1 2'",
    "rep specht 2,1 --at '1 2'", "rep specht 2,1 --at x", "decompose nosuch 3",
    "decompose young 1,2", "induce 2,0 trivial", "induce x trivial",
    "induce 2,1 other", "induce 2,1 sign --at '1 2'", "induce -1,2 trivial",
    "restrict 2,1 2,2", "restrict 2,1 x", "tensor specht 2,1 specht 2,2",
    "tensor specht 2,1 nosuch 3", "ext2 nosuch 3", "gl-char 2,1 -1",
    "gl-char x 2", "gl-dim 2,1 x", "gl-dim 1,2 3", "schur-weyl 4 -1",
    "schur-weyl x 3", "--format", "--format xml kostka 3 3",
    "--format= kostka 3 3", "--format=json kostka 3,2 2,2,1",
    "--form json kostka 3,2 2,2,1", "--max-degree", "--max-degree x chartable 3",
    "--max-degree -1 chartable 3", "--max-degree=9 chartable 9",
    "--max-degree 0 chartable 3", "--max-d 9 chartable 9",
    "kostka --tab 3,2 2,2,1", "kostka -- 3,2 2,2,1", "kostka 3,2 -- 2,2,1",
    "convert -- s:2 m", "convert s:2 -- m", "kostka 3,2 2,2,1 --nosuch",
    "kostka 3,2 2,2,1 extra", "multiply h:2 h:1 --basis=s",
    "rsk 1 2 --inverse", "rsk --inverse -- [[1]] [[1]]", "rsk 1 --inverse 2",
    "ch 3 --basis s 3=1", "ch 3 3=1 --basis p 1,1,1=1", "coproduct h:3 --counit --counit",
    "kostka 3,2 2,2,1 --format json", "partitions 3 --max-degree 4",
]

# (SYMF_FORMAT, SYMF_MAX_DEGREE) settings, each run on a few calls
SETTINGS = [
    ("SYMF_FORMAT=json",), ("SYMF_FORMAT=text",), ("SYMF_FORMAT=yaml",),
    ("SYMF_FORMAT=",), ("SYMF_MAX_DEGREE=9",), ("SYMF_MAX_DEGREE=0",),
    ("SYMF_MAX_DEGREE=abc",), ("SYMF_MAX_DEGREE=-2",), ("SYMF_MAX_DEGREE=",),
    ("SYMF_FORMAT=json", "SYMF_MAX_DEGREE=9"),
]
SETTING_CALLS = [
    "kostka 3,2 2,2,1", "chartable 9", "convert s:2,1 m", "rep specht 3,3",
    "--format text kostka 3,2 2,2,1", "--format json convert s:2,1 m",
    "--max-degree 6 chartable 9", "nosuch", "kostka 3 -h",
]


def _partition(rng: random.Random, n: int) -> str:
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return ",".join(map(str, sorted(parts, reverse=True))) or "()"


def _coeff(rng: random.Random) -> str:
    return rng.choice(("1", "1", "-1", "2", "-3", "1/2", "-2/3", "5/4", "7"))


def _element(rng: random.Random, degree: int, terms: int = 3) -> str:
    """A literal of at most ``terms`` terms of degree ``degree``, or of mixed
    degree up to it when ``degree`` is negative."""
    pieces = []
    for _ in range(rng.randint(1, terms)):
        n = degree if degree >= 0 else rng.randint(0, -degree)
        pieces.append(f"{_coeff(rng)}*{_partition(rng, n)}")
    return f"{rng.choice(BASES)}:" + "+".join(pieces)


def _pair(rng: random.Random) -> str:
    return f"{rng.choice(BASES)},{rng.choice(BASES)}"


def _seeded(rng: random.Random) -> list[str]:
    """Random calls of the seeded commands, every input of degree at most
    MAX_DEGREE."""
    d = lambda lo=0, hi=MAX_DEGREE: rng.randint(lo, hi)  # noqa: E731
    calls = []
    for _ in range(140):
        calls.append(f"convert {_element(rng, -d() if rng.random() < 0.3 else d())} "
                     f"{rng.choice(BASES)}")
    for _ in range(100):
        a = d(0, MAX_DEGREE - 1)
        calls.append(f"multiply {_element(rng, a, 2)} {_element(rng, d(0, MAX_DEGREE - a), 2)}"
                     f" --basis {rng.choice(BASES)}")
    for _ in range(70):
        calls.append(f"coproduct {_element(rng, d(0, 8), 2)} --bases {_pair(rng)}")
    for _ in range(50):
        calls.append(f"coproduct-star {_element(rng, d(0, 8), 2)} --bases {_pair(rng)}")
    for _ in range(30):
        which = rng.choice(("coproduct", "coproduct-star"))
        calls.append(f"{which} {_element(rng, -MAX_DEGREE)} --counit")
    for _ in range(60):
        a = d(1, 5)
        b = d(0, MAX_DEGREE // a)
        scale = f" --scale {rng.choice((-2, -1, 2, 3))}" if rng.random() < 0.3 else ""
        calls.append(f"plethysm {_element(rng, a, 2)} {_element(rng, b, 2)}{scale}"
                     f" --basis {rng.choice(BASES)}")
    for _ in range(60):
        n = d()
        calls.append(f"inner {_element(rng, n)} {_element(rng, -n if rng.random() < 0.3 else n)}")
    for cmd in ("omega", "antipode"):
        for _ in range(40):
            calls.append(f"{cmd} {_element(rng, -d())} --basis {rng.choice(BASES)}")
    for _ in range(40):
        calls.append(f"perp {_partition(rng, d(0, 4))} {_element(rng, d())}"
                     f" --basis {rng.choice(BASES)}")
    for _ in range(40):
        n = d()
        calls.append(f"skew {_partition(rng, n)} {_partition(rng, d(0, n))}"
                     f" --basis {rng.choice(BASES)}")
    for _ in range(40):
        n = d(0, 8)
        calls.append(f"kron-product {_element(rng, n, 2)} {_element(rng, n, 2)}"
                     f" --basis {rng.choice(BASES)}")
    for _ in range(30):
        calls.append(f"evaluate {_element(rng, d(0, 5), 2)} {d(1, 3)}")
    for _ in range(30):
        n = d(0, 8)
        calls.append(f"ch-inverse {_element(rng, -n if rng.random() < 0.3 else n)} {n}")
    for _ in range(20):
        n = d(1, 6)
        values = {_partition(rng, n): _coeff(rng) for _ in range(rng.randint(1, 4))}
        calls.append(f"ch {n} " + " ".join(f"{mu}={v}" for mu, v in values.items())
                     + f" --basis {rng.choice(BASES)}")
    for _ in range(40):
        n = d()
        calls.append(f"kostka {_partition(rng, n)} {_partition(rng, n)}")
    for _ in range(15):
        n = d(0, 6)
        calls.append(f"kostka {_partition(rng, n)} {_partition(rng, n)} --tableaux")
    for _ in range(40):
        n = d()
        calls.append(f"char {_partition(rng, n)} {_partition(rng, n)}")
    for _ in range(40):
        a, b = d(0, 6), d(0, 4)
        calls.append(f"lr {_partition(rng, a + b)} {_partition(rng, a)} {_partition(rng, b)}")
    for _ in range(30):
        n = d(0, 8)
        calls.append("kronecker " + " ".join(_partition(rng, n) for _ in range(3)))
    for cmd in ("flambda", "conjugate", "youngs-rule"):
        for _ in range(15):
            calls.append(f"{cmd} {_partition(rng, d(0, 8))}")
    for _ in range(20):
        n = d()
        calls.append(f"dominates {_partition(rng, n)} {_partition(rng, n)}")
    for _ in range(20):
        calls.append(f"gl-char {_partition(rng, d(0, 4))} {d(0, 3)}")
        calls.append(f"gl-dim {_partition(rng, d())} {d(0, 8)}")
    for _ in range(30):
        calls.append("rsk " + " ".join(str(d(1, 5)) for _ in range(d(1, 8))))
    for _ in range(20):
        kind = rng.choice(("young", "specht", "defining", "standard", "regular"))
        n = d(1, 4 if kind == "regular" else 5)
        arg = _partition(rng, n) if kind in ("young", "specht") else str(n)
        calls.append(f"rep {kind} {arg} --at '{' '.join(map(str, rng.sample(range(1, n + 1), n)))}'")
    for _ in range(15):
        calls.append(f"decompose young {_partition(rng, d(1, 6))}")
        calls.append(f"restrict {_partition(rng, 6)} {_partition(rng, 6)}")
    return calls


def calls() -> list[str]:
    """Every call of the corpus, in file order: each fixed, cap, seeded and
    error call in text and in JSON, then the settings."""
    answers = FIXED + AT_CAP + _seeded(random.Random(SEED)) + ERRORS
    out = [c for a in answers for c in (a, f"--format json {a}")]
    out += [" ".join(s) + " " + c for s in SETTINGS for c in SETTING_CALLS]
    return list(dict.fromkeys(shlex.join(shlex.split(c)) for c in out))


def split(call: str) -> tuple[dict[str, str], list[str]]:
    """The SYMF_* settings and the argv of one call."""
    words = shlex.split(call)
    env = {}
    while words and words[0].partition("=")[0] in ENV:
        key, _, value = words.pop(0).partition("=")
        env[key] = value
    return env, words


def _setenv(values: dict) -> None:
    """Set each variable, or unset it where the value is None; only these
    keys, since rewriting the whole environment costs a call's time again."""
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def answer(call: str) -> str:
    """The digest of one call's exit code, stdout and stderr."""
    env, argv = split(call)
    env = {**dict.fromkeys(ENV), **env, "COLUMNS": "80"}
    saved = {key: os.environ.get(key) for key in env}
    out, err = io.StringIO(), io.StringIO()
    try:
        _setenv(env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        _setenv(saved)
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def command(call: str) -> list[str]:
    """A call's argv after its settings and top options."""
    words = split(call)[1]
    while words and words[0] in TOP:
        words = words[2:]
    return words


def load() -> dict[str, str]:
    with open(PATH) as fh:
        return json.load(fh)


def rewrite(prefixes: list[str]) -> list[str]:
    """Rewrite the corpus file: every entry, or only those whose command
    starts with one of ``prefixes``; the calls whose digest changed."""
    old = load() if prefixes else {}
    wanted = [shlex.split(p) for p in prefixes]
    new = {}
    for call in calls():
        words = command(call)
        if call in old and not any(words[: len(w)] == w for w in wanted):
            new[call] = old[call]
        else:
            new[call] = answer(call)
    with open(PATH, "w") as fh:
        fh.write(json.dumps(new, indent=0) + "\n")
    return [c for c in new if old.get(c) != new[c]]


if __name__ == "__main__":
    changed = rewrite(sys.argv[1:])
    if sys.argv[1:]:
        print("\n".join(changed))
