"""Workload ``reps``: explicit matrix representations of S_5 and S_6.

One interpreter with the Specht cap raised to 6 through the public
``matrixreps.set_rep_caps``. A round builds the Specht module of every
partition of 5 and 6 with its generator matrices, evaluates each at a seeded
random permutation, decomposes Young modules, the regular representation of
S_5, tensor products and modules induced from Young subgroups, restricts
Specht modules to a Young subgroup, expands one coproduct of a Schur
function, and asks the CLI entry point for one matrix. Nearly all the time goes to matrixreps
and to linalg.ColumnSpaceSolver; ring and tableaux do little, so changes to
the transition tables should read as no change here.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import bench
import child
import oracles as O
from bench import expect
from cli_cold import fmt

# 4 rounds of 148 ops leave 11 beyond the 98th percentile. Beyond it lie
# about 3 ops a round, so it falls in the middle of the group of the six
# slowest ops of a round (the matrices of S^(3,2,1)) for any number of
# rounds, not at the edge between two groups of different cost.
TAIL_PCT = 98
MIN_ROUNDS = 4
SETUP_SAMPLES = 9  # this process plus eight fresh children

# The seed picks permutations, the order of a Young subgroup's blocks, and a
# partition or its conjugate for one coproduct, never a larger or smaller
# module, so every round costs about the same whatever the seed.
YOUNG = [mu for mu in O.partitions(5)] + [mu for mu in O.partitions(6) if len(mu) <= 3]
TENSORS = [((3, 1, 1), (2, 2, 1)), ((3, 2), (2, 2, 1)), ((4, 1), (3, 1, 1))]
INDUCED = [("trivial", (3, 1, 1)), ("sign", (2, 2, 1)), ("trivial", (4, 2))]
RESTRICTED = [lam for lam in O.partitions(5) if O.hook_length(lam) > 1]


def random_perm(rng, n):
    """A seeded permutation of length at least 2, so that it is neither the
    identity nor a generator whose matrix a representation already holds."""
    while True:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        if len(O.reduced_word(p)) >= 2:
            return tuple(p)


def adjacent(n, i):
    """The transposition s_i = (i, i+1) of S_n, as a word."""
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def shuffled(rng, parts):
    parts = list(parts)
    rng.shuffle(parts)
    return tuple(parts)


def block_types(g, comp):
    """Cycle types of g on each block of the Young subgroup S_comp."""
    out, start = [], 0
    for size in comp:
        local = tuple(g[start + i] - start for i in range(size))
        out.append(O.cycle_type(local))
        start += size
    return out


class Reps:
    def __init__(self, mr, hopf, ring, cli, rng):
        self.mr, self.hopf, self.ring, self.cli, self.rng = mr, hopf, ring, cli, rng

    def make_round(self, _k) -> list:
        O.clear_caches()
        rng, mr, ops = self.rng, self.mr, []
        for n in (5, 6):
            for lam in O.partitions(n):
                ops += self.specht_ops(lam, random_perm(rng, n))
        for mu in YOUNG:
            ops.append((f"young {fmt(mu)}", lambda mu=mu: mr.decompose(mr.young_module(mu)),
                        lambda out, mu=mu: self.young_check(mu, out)))
        ops.append(("regular S5", lambda: mr.decompose(mr.classical_rep("regular", 5)),
                    lambda out: expect(out == {lam: O.hook_length(lam) for lam in O.partitions(5)},
                                       "regular representation is not sum f^lam S^lam")))
        perm = random_perm(rng, 5)
        ops.append(("regular S5 at perm", lambda perm=perm: mr.classical_rep("regular", 5).matrix(perm),
                    lambda out, perm=perm: self.regular_check(perm, out)))
        for lam, mu in TENSORS:
            ops.append((f"tensor {fmt(lam)}x{fmt(mu)}",
                        lambda lam=lam, mu=mu: mr.decompose(
                            mr.tensor_product(mr.specht_module(lam), mr.specht_module(mu))),
                        lambda out, lam=lam, mu=mu: expect(
                            out == {nu: O.kronecker(lam, mu, nu) for nu in O.partitions(5)
                                    if O.kronecker(lam, mu, nu)},
                            "tensor product is not given by Kronecker coefficients")))
        for kind, parts in INDUCED:
            comp = shuffled(rng, parts)
            ops.append((f"induce {kind} {fmt(comp)}", lambda comp=comp, kind=kind: self.induced(comp, kind),
                        lambda out, comp=comp, kind=kind: self.induced_check(comp, kind, out)))
        for lam in RESTRICTED:
            comp = shuffled(rng, (3, 2))
            ops.append((f"restrict {fmt(lam)} to S{fmt(comp)}",
                        lambda lam=lam, comp=comp: self.restricted_traces(lam, comp),
                        lambda out, lam=lam, comp=comp: self.restriction_check(lam, comp, out)))
        lam = rng.choice([(4, 1, 1), (3, 1, 1, 1)])  # conjugates
        ops.append((f"coproduct s{fmt(lam)}",
                    lambda lam=lam: self.hopf.tensor_convert(
                        self.hopf.coproduct_sum(self.ring.basis_element("s", lam)), ("s", "s")),
                    lambda out, lam=lam: expect(
                        dict(out.terms) == {(mu, nu): O.lr(lam, mu, nu)
                                            for k in range(7) for mu in O.partitions(k)
                                            for nu in O.partitions(6 - k) if O.lr(lam, mu, nu)},
                        "coproduct of s_lam is not given by LR coefficients")))
        lam = (3, 1, 1)
        perm = random_perm(rng, 5)
        argv = ["--format", "json", "rep", "specht", fmt(lam), "--at", " ".join(map(str, perm))]
        ops.append(("cli.main rep specht --at", lambda argv=argv: bench.cli_main(self.cli, argv),
                    lambda out, lam=lam, perm=perm: (
                        expect(out[0] == 0, f"exit code {out[0]}"),
                        expect(out[1]["dim"] == O.hook_length(lam), "dimension"),
                        expect(O.trace([[Fraction(x) for x in r] for r in out[1]["matrix"]])
                               == O.character(lam, O.cycle_type(perm)), "trace is not the character"))))
        return ops

    def specht_ops(self, lam, perm) -> list:
        """Build S^lam, then its matrix at each generator s_i as an operation
        of its own, then at ``perm``. Each matrix costs dim(S^lam) exact
        solves; one operation per matrix keeps every timed span short."""
        mr, n, held = self.mr, sum(lam), {"gens": {}}

        def build():
            held["rep"] = mr.specht_module(lam)
            return held["rep"].dim

        def generator(i):
            held["gens"][i] = held["rep"].matrix(adjacent(n, i))
            return held["gens"]

        ops = [(f"specht {fmt(lam)}", build,
                lambda dim: expect(dim == O.hook_length(lam), "dimension is not the hook-length count"))]
        for i in range(1, n):
            ops.append((f"specht {fmt(lam)} s{i}", lambda i=i: generator(i),
                        lambda gens, i=i: self.generator_check(lam, i, gens)))
        ops.append((f"specht {fmt(lam)} at perm", lambda: held["rep"].matrix(perm),
                    lambda out: self.matrix_check(lam, held["gens"], perm, out)))
        return ops

    def induced(self, comp, kind):
        sub = self.mr.SubgroupSpec.young(comp)
        base = self.mr.trivial_of(sub) if kind == "trivial" else self.mr.sign_of(sub)
        rep = self.mr.induce(base, sub.n)
        return rep.dim, self.mr.decompose(rep)

    def restricted_traces(self, lam, comp):
        sub = self.mr.SubgroupSpec.young(comp)
        rep = self.mr.restrict(self.mr.specht_module(lam), sub)
        return [(cls[0], rep.trace(cls[0])) for cls in sub.conjugacy_classes()]


    # --- checks ---------------------------------------------------------------

    def generator_check(self, lam, i, gens):
        """s_i has the character value of a transposition as its trace; once
        the last generator is in, all of them satisfy the Coxeter relations."""
        n = sum(lam)
        expect(O.trace(gens[i]) == O.character(lam, (2,) + (1,) * (n - 2)),
               f"trace of s_{i} is not chi(2,1^n-2)")
        if i == n - 1:
            expect(sorted(gens) == list(range(1, n)), "wrong generator set")
            expect(O.coxeter_relations_hold(gens, n), "Coxeter relations fail")

    def matrix_check(self, lam, gens, perm, m):
        expect(O.same_matrix(m, O.matrix_from_generators(gens, perm, O.hook_length(lam))),
               "matrix differs from the product of generators along a reduced word")
        expect(O.trace(m) == O.character(lam, O.cycle_type(perm)), "trace is not the character")

    def young_check(self, mu, out):
        want = {lam: O.kostka(lam, mu) for lam in O.partitions(sum(mu)) if O.kostka(lam, mu)}
        expect(out == want, "Young module multiplicities are not the Kostka numbers")
        expect(sum(m * O.hook_length(lam) for lam, m in out.items()) == O.young_dimension(mu),
               "sum K f^lam != n!/prod mu_i!")

    def regular_check(self, perm, m):
        n = len(perm)
        expect(len(m) == 120, "dimension is not 5!")
        expect(all(sorted(row) == [0] * 119 + [1] for row in m), "not a permutation matrix")
        expect(O.trace(m) == (120 if perm == tuple(range(1, n + 1)) else 0),
               "regular trace is not 120 at the identity and 0 elsewhere")

    def induced_check(self, comp, kind, out):
        dim, mults = out
        mu = tuple(sorted(comp, reverse=True))
        expect(dim == O.young_dimension(mu), "induced dimension")
        want = {}
        for lam in O.partitions(sum(mu)):
            k = O.kostka(O.conjugate(lam) if kind == "sign" else lam, mu)
            if k:
                want[lam] = k
        expect(mults == want, f"induced {kind} multiplicities are not Kostka numbers")

    def restriction_check(self, lam, comp, out):
        """chi^lam on S_a x S_b is sum c^lam_{mu,nu} chi^mu x chi^nu."""
        a, b = comp
        for g, tr in out:
            ta, tb = block_types(g, comp)
            want = sum(O.lr(lam, mu, nu) * O.character(mu, ta) * O.character(nu, tb)
                       for mu in O.partitions(a) for nu in O.partitions(b))
            expect(tr == want, f"restricted trace at {g} is {tr}, expected {want}")


def setup(rec: bench.Record, trace: bool):
    """Import symfunc and raise the Specht cap: here and in fresh children."""
    mr, raw, cal, _ = child.timed_import("symfunc.matrixreps")
    mr.set_rep_caps(specht=6)
    rec.setup_raw.append(raw)
    rec.setup_calibrated.append(cal)
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            report = bench.run_child(["setup", "0"])
            rec.setup_raw.append(report["raw"])
            rec.setup_calibrated.append(report["calibrated"])
    import symfunc.cli

    mods = sys.modules
    return mr, mods["symfunc.hopf"], mods["symfunc.ring"], mods["symfunc.cli"]


def run(seed: int, seconds: float, trace: bool) -> bench.Record:
    rec = bench.Record(TAIL_PCT)
    modules = setup(rec, trace)
    reps = Reps(*modules, random.Random(seed))
    bench.in_process_loop(rec, reps.make_round, seconds, MIN_ROUNDS, trace)
    rec.rss_mb = bench.peak_rss_mb()
    return rec
