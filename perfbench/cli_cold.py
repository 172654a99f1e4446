"""Workload ``cli_cold``: one fresh interpreter per CLI answer.

The CLI keeps no cache between processes, so every answer pays for the import
and for its own table builds (Jacobi-Trudi s-tables, the Kostka matrix by
SSYT counting, Fraction Gauss-Jordan inverses). A round is a fixed list of
31 slots; the seed picks the partitions and elements that fill them, so every
round costs about the same and one op in every round fails (see FAILING).
Conversions involving s or m stay at degree <= 9 and <= 8 so that no single
answer takes more than about a second; degree-11 figures are in the README.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import bench
import oracles as O
from bench import expect

# 3 rounds of 30 timed answers leave 10 beyond the 88th percentile, which
# then falls among the six slowest conversions of each round, not at the gap
# between them and the next group.
TAIL_PCT = 88
MIN_ROUNDS = 3

# raises only the ring and character caps, not the Specht cap
FAILING = ["--max-degree", "6", "rep", "specht", "3,2,1"]

CONVERTS = [("s", "m", 8), ("m", "s", 8), ("e", "h", 10), ("h", "p", 10),
            ("p", "e", 10), ("s", "h", 9), ("e", "s", 9), ("h", "m", 7),
            ("m", "e", 7), ("p", "s", 8)]


def fmt(lam) -> str:
    return ",".join(map(str, lam)) if lam else "()"


def random_terms(rng, degree, nterms) -> dict:
    lams = rng.sample(O.partitions(degree), min(nterms, len(O.partitions(degree))))
    return {lam: Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))
            for lam in lams}


def literal(basis, terms) -> str:
    return basis + ":" + "+".join(f"{c}*{fmt(lam)}" for lam, c in terms.items())


def parse_sym(obj) -> tuple:
    return obj["basis"], {tuple(t["partition"]): Fraction(t["coeff"]) for t in obj["terms"]}


def inside(rng, lam, k):
    """A random partition of k inside lam."""
    return rng.choice([mu for mu in O.partitions(k) if O.contains(mu, lam)])


def random_perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


class Checks:
    """The oracle checks, one per subcommand; each gets the parsed stdout."""

    def __init__(self, points):
        self.points = points

    def same_value(self, degree, basis_a, terms_a, basis_b, terms_b):
        pt = self.points(degree)
        expect(pt.element(basis_a, terms_a) == pt.element(basis_b, terms_b),
               f"values differ at a random point of Z^{degree}")

    def specht_generators(self, lam, obj):
        n = sum(lam)
        expect(obj["dim"] == O.hook_length(lam), "dimension is not the hook-length count")
        gens = {int(k[1:]): [[Fraction(x) for x in row] for row in m]
                for k, m in obj["generators"].items()}
        expect(sorted(gens) == list(range(1, n)), "wrong generator set")
        expect(O.coxeter_relations_hold(gens, n), "Coxeter relations fail")
        chi = O.character(lam, (2,) + (1,) * (n - 2))
        expect(all(O.trace(g) == chi for g in gens.values()), "generator trace is not chi(2,1^n-2)")


def make_round(rng: random.Random, chk: Checks) -> list:
    """(label, argv, check) for every slot of one round."""
    ops = []
    for src, dst, d in CONVERTS:
        terms = random_terms(rng, d, 6)
        ops.append((f"convert {src}->{dst} d{d}", ["convert", literal(src, terms), dst],
                    lambda obj, src=src, dst=dst, d=d, terms=terms: (
                        expect(obj["basis"] == dst, "wrong basis"),
                        chk.same_value(d, src, terms, *parse_sym(obj)))))
    for n, k in ((8, 3), (8, 5)):
        lam = rng.choice(O.partitions(n))
        mu = inside(rng, lam, k)
        nus = [nu for nu in O.partitions(n - k) if O.lr(lam, mu, nu)]
        nu = rng.choice(nus)
        ops.append((f"lr n{n}", ["lr", fmt(lam), fmt(mu), fmt(nu)],
                    lambda v, t=(lam, mu, nu): expect(v == O.lr(*t), f"c = {v}")))
    for n in (7, 8):
        triple = tuple(rng.choice(O.partitions(n)) for _ in range(3))
        ops.append((f"kronecker n{n}", ["kronecker", *map(fmt, triple)],
                    lambda v, t=triple: expect(v == O.kronecker(*t), f"g = {v}")))
    for n in (7, 8):
        mu = rng.choice(O.partitions(n))
        ops.append((f"youngs-rule n{n}", ["youngs-rule", fmt(mu)],
                    lambda obj, mu=mu: youngs_rule_check(mu, obj)))
    for n, k in ((8, 2), (8, 3)):
        lam = rng.choice([p for p in O.partitions(n) if len(p) > 1])
        mu = inside(rng, lam, k)
        ops.append((f"skew n{n}", ["skew", fmt(lam), fmt(mu)],
                    lambda obj, lam=lam, mu=mu: expect(
                        parse_sym(obj) == ("s", {nu: O.lr(lam, mu, nu)
                                                 for nu in O.partitions(sum(lam) - sum(mu))
                                                 if O.lr(lam, mu, nu)}),
                        "skew expansion differs from LR counts")))
    for n in (7, 8):
        ops.append((f"chartable n{n}", ["chartable", str(n)],
                    lambda obj, n=n: chartable_check(n, obj)))
    for n in (9, 10):
        lam = rng.choice(O.partitions(n))
        ops.append((f"flambda n{n}", ["flambda", fmt(lam)],
                    lambda v, lam=lam: expect(v == O.hook_length(lam), f"f = {v}")))
    for n, m in ((6, 4), (7, 5)):
        lam = rng.choice([p for p in O.partitions(n) if len(p) <= m])
        ops.append((f"gl-dim n{n}", ["gl-dim", fmt(lam), str(m)],
                    lambda v, lam=lam, m=m: expect(v == O.hook_content(lam, m), f"dim = {v}")))
    for n in (8, 8):
        mu = rng.choice(O.partitions(n))
        lam = rng.choice([p for p in O.partitions(n) if O.kostka(p, mu)])
        ops.append((f"kostka n{n}", ["kostka", fmt(lam), fmt(mu)],
                    lambda v, lam=lam, mu=mu: expect(v == O.kostka(lam, mu), f"K = {v}")))
    for outer, gdeg, basis in (("h", 3, "s"), ("e", 4, "p")):
        gb = rng.choice("mehps")
        g = random_terms(rng, gdeg, 3)
        ops.append((f"plethysm {outer}2", ["plethysm", f"{outer}:2", literal(gb, g), "--basis", basis],
                    lambda obj, outer=outer, gb=gb, g=g, gdeg=gdeg: plethysm_check(
                        chk, outer, gb, g, 2 * gdeg, obj)))
    lam = rng.choice(O.partitions(5))
    ops.append(("rep specht n5", ["rep", "specht", fmt(lam)],
                lambda obj, lam=lam: chk.specht_generators(lam, obj)))
    lam = rng.choice(O.partitions(rng.choice((4, 5))))
    perm = random_perm(rng, sum(lam))
    ops.append(("rep specht --at", ["rep", "specht", fmt(lam), "--at", " ".join(map(str, perm))],
                lambda obj, lam=lam, perm=perm: (
                    expect(obj["dim"] == O.hook_length(lam), "dimension"),
                    expect(O.trace([[Fraction(x) for x in r] for r in obj["matrix"]])
                           == O.character(lam, O.cycle_type(perm)), "trace is not the character"))))
    ops.append(("rep specht 3,2,1 capped", FAILING,
                lambda obj: chk.specht_generators((3, 2, 1), obj)))
    return [(label, ["--format", "json", *argv], check) for label, argv, check in ops]


def youngs_rule_check(mu, obj):
    got = {tuple(e["partition"]): e["multiplicity"] for e in obj}
    want = {lam: O.kostka(lam, mu) for lam in O.partitions(sum(mu)) if O.kostka(lam, mu)}
    expect(got == want, "multiplicities are not the Kostka numbers")
    expect(sum(m * O.hook_length(lam) for lam, m in got.items()) == O.young_dimension(mu),
           "sum K f^lam != n!/prod mu_i!")


def chartable_check(n, obj):
    rows = [tuple(r) for r in obj["rows"]]
    cols = [tuple(c) for c in obj["columns"]]
    parts = set(O.partitions(n))
    expect(set(rows) == parts and set(cols) == parts, "rows or columns are not the partitions")
    table = obj["table"]
    for i, lam in enumerate(rows):
        for j, mu in enumerate(cols):
            expect(table[i][j] == O.character(lam, mu), f"chi^{lam}({mu}) = {table[i][j]}")
    for j, mu in enumerate(cols):
        for k, nu in enumerate(cols):
            dot = sum(table[i][j] * table[i][k] for i in range(len(rows)))
            expect(dot == (O.z(mu) if j == k else 0), "column orthogonality fails")


def plethysm_check(chk, outer, gb, g, degree, obj):
    """h_2[g](x) = (g(x)^2 + g(x^2)) / 2 and e_2[g](x) = (g(x)^2 - g(x^2)) / 2."""
    pt = chk.points(degree)
    gx = pt.element(gb, g)
    gx2 = chk.points(degree, power=2).element(gb, g)
    want = (gx * gx + (gx2 if outer == "h" else -gx2)) / 2
    basis, terms = parse_sym(obj)
    expect(pt.element(basis, terms) == want, "plethysm value differs")


def run(seed: int, seconds: float, trace: bool) -> bench.Record:
    """Untraced: whole rounds, each answer in a fresh child. Traced: one
    round with the wrappers installed in each child, then the same answers
    again without them, for the overhead."""
    rec = bench.Record(TAIL_PCT)
    rng = random.Random(seed)
    coords = rng.sample(range(2, 100), 20)
    for _ in ([0] if trace else bench.rounds(seconds, MIN_ROUNDS)):
        O.clear_caches()
        for label, argv, check in make_round(rng, Checks(O.Points(coords))):
            report = bench.run_child(["cli", "1" if trace else "0", *argv])
            rec.setup_calibrated.append(report["import_cal"])
            rec.setup_raw.append(report["import_raw"])
            rec.rss_mb = max(rec.rss_mb, report["rss_mb"])
            failed = report["rc"] != 0
            if failed and argv[2:] != FAILING:
                print(f"FAILED {label}: rc={report['rc']} {report['stderr'][-300:]}",
                      file=sys.stderr)
            rec.op(label, report["calibrated"], report["raw"], report["factor"],
                   failed=failed, check=lambda out, c=check: c(json.loads(out)),
                   result=report["stdout"])
            if trace:
                rec.absent.update(report["absent"])
                rec.add_trace(label, report["spans"], report["factor"])
                plain = bench.run_child(["cli", "0", *argv])
                rec.overhead_s.append(report["calibrated"] - plain["calibrated"])
        rec.rounds += 1
    return rec
