"""Workload ``session_warm``: one interpreter whose transition tables are built.

Set-up imports symfunc and builds every transition table up to degree 10, the
same tables the cold CLI builds answer by answer. Then a stream of library
calls on dense random elements at degrees 8-10 reads those tables. No
operation is answered from a memo an earlier one filled, other than the
tables: the calls used here keep no other cache, and every element is new.
So a change that only speeds up table builds moves ``setup_s`` here and
leaves latency alone, and a change to per-query arithmetic moves latency
and ops_per_s.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import bench
import calib
import child
import oracles as O
from bench import expect
from cli_cold import literal, parse_sym

TAIL_PCT = 95  # 12 rounds of 18 ops leave 10 beyond it
MIN_ROUNDS = 12
TABLE_DEGREE = 10
SETUP_CHILDREN = 2

CONVERTS = [("s", "m", 10), ("m", "s", 9), ("h", "e", 10), ("e", "p", 8), ("p", "h", 9)]
DUAL = {"s": "s", "h": "m", "m": "h", "p": "p"}
OMEGA = {"s": "s", "h": "e", "e": "h", "p": "p"}


def dense(rng, degree) -> dict:
    """Every partition of ``degree`` with a small random nonzero coefficient."""
    return {lam: Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3, 7]))
            for lam in O.partitions(degree)}


def omega_image(basis, lam):
    """omega(b_lam) as (basis, partition, sign)."""
    if basis == "s":
        return "s", O.conjugate(lam), 1
    if basis == "p":
        return "p", lam, (-1) ** (sum(lam) - len(lam))
    return OMEGA[basis], lam, 1


class Session:
    def __init__(self, ring, characters, hopf, matrixreps, cli, rng):
        self.ring, self.characters, self.hopf = ring, characters, hopf
        self.matrixreps, self.cli = matrixreps, cli
        self.rng = rng
        self.coords = rng.sample(range(2, 100), 20)
        self.points = None

    def elem(self, basis, terms):
        return self.ring.sym_element(basis, terms)

    def value(self, k, basis, terms, offset=0, power=1):
        return self.points(k, offset, power).element(basis, terms)

    def make_round(self, _k) -> list:
        """(label, thunk, check) for every slot of one round."""
        O.clear_caches()
        self.points = O.Points(self.coords)
        rng, ring, ops = self.rng, self.ring, []
        for src, dst, d in CONVERTS:
            terms = dense(rng, d)
            f = self.elem(src, terms)
            ops.append((f"convert {src}->{dst} d{d}", lambda f=f, dst=dst: ring.convert(f, dst),
                        lambda out, src=src, dst=dst, d=d, terms=terms: (
                            expect(out.basis == dst, "wrong basis"),
                            expect(self.value(d, src, terms) == self.value(d, dst, out.terms),
                                   "values differ at a random point"))))
        for da, db in ((8, 9), (10, 8)):
            ba, bb = rng.choice("mehps"), rng.choice("mehps")
            ta, tb = dense(rng, da), dense(rng, db)
            f, g = self.elem(ba, ta), self.elem(bb, tb)
            ops.append((f"multiply d{da}x{db}", lambda f=f, g=g: ring.multiply(f, g),
                        lambda out, a=(ba, ta), b=(bb, tb), d=da + db: expect(
                            self.value(d, *a) * self.value(d, *b) == self.value(d, out.basis, out.terms),
                            "product value differs")))
        for d in (10, 9):
            b = rng.choice("shmp")
            ta, tb = dense(rng, d), dense(rng, d)
            f, g = self.elem(b, ta), self.elem(DUAL[b], tb)
            want = sum((c * tb[lam] * (O.z(lam) if b == "p" else 1) for lam, c in ta.items()),
                       Fraction(0))
            ops.append((f"hall_inner d{d}", lambda f=f, g=g: ring.hall_inner(f, g),
                        lambda v, want=want: expect(v == want, f"<f,g> = {v}")))
        b, d = rng.choice("shep"), 10
        terms = dense(rng, d)
        f = self.elem(b, terms)
        ops.append((f"omega d{d}", lambda f=f: ring.omega(f),
                    lambda out, b=b, terms=terms: expect(
                        self.value(d, out.basis, out.terms) == sum(
                            (c * sign * self.points(d).value(ib, il)
                             for lam, c in terms.items()
                             for ib, il, sign in [omega_image(b, lam)]), Fraction(0)),
                        "omega value differs")))
        lam = rng.choice([p for p in O.partitions(10) if len(p) > 1])
        mu = rng.choice([m for m in O.partitions(3) if O.contains(m, lam)])
        ops.append(("skew_schur d10/3", lambda lam=lam, mu=mu: ring.skew_schur(lam, mu),
                    lambda out, lam=lam, mu=mu: expect(
                        (out.basis, out.terms) == ("s", self.skew_terms({lam: 1}, mu)),
                        "skew expansion differs from LR counts")))
        mu = rng.choice(O.partitions(2))
        terms = {lam: Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 2]))
                 for lam in rng.sample(O.partitions(9), 3)}
        f = self.elem("s", terms)
        ops.append(("perp d9/2", lambda f=f, mu=mu: ring.perp(mu, f),
                    lambda out, terms=terms, mu=mu: expect(
                        (out.basis, out.terms) == ("s", self.skew_terms(terms, mu)),
                        "perp expansion differs from LR counts")))
        outer, gb = rng.choice("he"), rng.choice("mehps")
        g_terms = dense(rng, 5)
        g = self.elem(gb, g_terms)
        fo = ring.basis_element(outer, (2,))
        ops.append((f"plethysm {outer}2[g5]", lambda fo=fo, g=g: ring.convert(self.hopf.plethysm(fo, g), "s"),
                    lambda out, outer=outer, gb=gb, g_terms=g_terms: self.plethysm_check(
                        outer, gb, g_terms, out)))
        b, d = rng.choice("mehps"), 8
        terms = dense(rng, d)
        f = self.elem(b, terms)
        ops.append((f"coproduct d{d}", lambda f=f: self.hopf.tensor_convert(self.hopf.coproduct_sum(f), ("s", "s")),
                    lambda out, b=b, terms=terms, d=d: self.coproduct_check(b, terms, d, out)))
        d = 9
        ta, tb = dense(rng, d), dense(rng, d)
        f, g = self.elem("s", ta), self.elem("s", tb)
        ops.append(("kronecker_product d9", lambda f=f, g=g: self.characters.kronecker_product(f, g),
                    lambda out, ta=ta, tb=tb: self.kronecker_check(ta, tb, out)))
        d = 10
        terms = dense(rng, d)
        f = self.elem("s", terms)
        ops.append(("frobenius_inverse d10", lambda f=f: self.characters.frobenius_inverse(f, 10),
                    lambda out, terms=terms: expect(
                        dict(zip(O.partitions(10), out.values)) == self.class_values(terms, 10),
                        "class function differs from Murnaghan-Nakayama")))
        lam, m = rng.choice(O.partitions(8)), 3
        ops.append(("gl_character d8 m3", lambda lam=lam: self.matrixreps.gl_character(lam, m),
                    lambda out, lam=lam: (
                        expect(O.poly_value(out.terms, self.points(m).x) == self.points(m).value("s", lam),
                               "Schur polynomial value differs from the bialternant"),
                        expect(sum(out.terms.values()) == O.hook_content(lam, m),
                               "dimension differs from hook-content"))))
        src, dst = rng.choice("mehps"), rng.choice("mehps")
        terms = {lam: c for lam, c in list(dense(rng, 9).items())[:6]}
        argv = ["--format", "json", "convert", literal(src, terms), dst]
        ops.append(("cli.main convert d9", lambda argv=argv: bench.cli_main(self.cli, argv),
                    lambda out, src=src, dst=dst, terms=terms: (
                        expect(out[0] == 0, f"exit code {out[0]}"),
                        expect(parse_sym(out[1])[0] == dst, "wrong basis"),
                        expect(self.value(9, src, terms) == self.value(9, *parse_sym(out[1])),
                               "values differ at a random point"))))
        return ops


    # --- checks ---------------------------------------------------------------

    def skew_terms(self, terms, mu):
        out = {}
        for lam, c in terms.items():
            if not O.contains(mu, lam):
                continue
            for nu in O.partitions(sum(lam) - sum(mu)):
                v = O.lr(lam, mu, nu)
                if v:
                    out[nu] = out.get(nu, 0) + c * v
        return {nu: c for nu, c in out.items() if c}

    def class_values(self, s_terms, n):
        return {rho: sum((c * O.character(lam, rho) for lam, c in s_terms.items()), Fraction(0))
                for rho in O.partitions(n)}

    def plethysm_check(self, outer, gb, g_terms, out):
        """h_2[g](x) = (g(x)^2 + g(x^2)) / 2, e_2[g](x) = (g(x)^2 - g(x^2)) / 2."""
        gx = self.value(10, gb, g_terms)
        gx2 = self.value(10, gb, g_terms, power=2)
        want = (gx * gx + (gx2 if outer == "h" else -gx2)) / 2
        expect(out.basis == "s", "wrong basis")
        expect(self.value(10, "s", out.terms) == want, "plethysm value differs")

    def coproduct_check(self, b, terms, d, out):
        """Delta f evaluated at (x, y) is f evaluated at the union x + y."""
        expect(tuple(out.bases) == ("s", "s"), "wrong basis pair")
        got = sum((c * self.points(d).value("s", lam) * self.points(d, offset=d).value("s", mu)
                   for (lam, mu), c in out.terms.items()), Fraction(0))
        expect(got == self.value(2 * d, b, terms), "coproduct value differs")

    def kronecker_check(self, ta, tb, out):
        """[p_rho](f * g) = F(rho) G(rho) / z_rho, F and G the class functions."""
        fa, fb = self.class_values(ta, 9), self.class_values(tb, 9)
        want = {rho: fa[rho] * fb[rho] / O.z(rho) for rho in O.partitions(9)
                if fa[rho] * fb[rho]}
        expect(out.basis == "p" and out.terms == want, "internal product differs")


def setup(rec: bench.Record, trace: bool):
    """Import symfunc and build the tables in this process, timed piece by
    piece; then the same in fresh children. ``setup_s`` is the median."""
    ring, raw, cal, factor = child.timed_import("symfunc.ring")
    import symfunc.characters
    import symfunc.cli
    import symfunc.hopf
    import symfunc.matrixreps

    t = None
    if trace:
        import tracer as tracing

        t = tracing.Tracer()
        t.install()
        rec.absent.update(t.absent)
    try:
        for label, thunk in child.table_pieces(ring, TABLE_DEGREE):
            if t:
                t.take()
            s = calib.timed(thunk)
            if s.error is not None:
                raise s.error
            raw += s.raw
            cal += s.calibrated
            if t:
                rec.add_trace(label, t.take(), s.factor)
    finally:
        if t:
            t.uninstall()
    rec.setup_raw.append(raw)
    rec.setup_calibrated.append(cal)
    if not trace:
        for _ in range(SETUP_CHILDREN):
            report = bench.run_child(["setup", str(TABLE_DEGREE)])
            rec.setup_raw.append(report["raw"])
            rec.setup_calibrated.append(report["calibrated"])
    mods = sys.modules
    return (ring, mods["symfunc.characters"], mods["symfunc.hopf"],
            mods["symfunc.matrixreps"], mods["symfunc.cli"])


def run(seed: int, seconds: float, trace: bool) -> bench.Record:
    rec = bench.Record(TAIL_PCT)
    modules = setup(rec, trace)
    session = Session(*modules, random.Random(seed))
    bench.in_process_loop(rec, session.make_round, seconds, MIN_ROUNDS, trace)
    rec.rss_mb = bench.peak_rss_mb()
    return rec
