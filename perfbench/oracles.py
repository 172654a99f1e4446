"""Independent answers to check the library against.

Nothing here imports symfunc. Each oracle follows a textbook formula that the
library does not use, so a fault in the library's route cannot hide in the
check:

* hook-length formula for f^lam and hook-content formula for dim V_lam(GL_m)
  (Sagan, The Symmetric Group, 3.10; Stanley EC2 7.21);
* Murnaghan-Nakayama rule for characters, on beta-sets (James-Kerber 2.4);
* Kostka numbers by stripping horizontal strips, one entry value at a time;
* Littlewood-Richardson coefficients by counting skew tableaux whose reverse
  reading word is a lattice word (Fulton, Young Tableaux, 5.2);
* symmetric functions evaluated at integer points: Schur functions by the
  bialternant det(x_i^(lam_j+k-j)) / det(x_i^(k-j)), monomials by
  symmetrizing over placements, h and e by their generating functions;
* matrix products, Coxeter relations and reduced words for permutations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

# --- partitions -----------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n: int, cap: int | None = None) -> tuple:
    """Partitions of n with parts <= cap, in descending lexicographic order."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partitions(n - first, first)
    )


def conjugate(lam) -> tuple:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def z(lam) -> int:
    out = 1
    for part in set(lam):
        m = lam.count(part)
        out *= part**m * factorial(m)
    return out


def hooks(lam) -> list[int]:
    lc = conjugate(lam)
    return [lam[i] - j + lc[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def hook_length(lam) -> int:
    """f^lam = n! / prod of hook lengths."""
    return factorial(sum(lam)) // prod(hooks(lam))


def hook_content(lam, m: int) -> int:
    """dim of the GL_m irreducible V_lam = prod (m + content) / hook."""
    num = prod(m + j - i for i in range(len(lam)) for j in range(lam[i]))
    return num // prod(hooks(lam))


def young_dimension(mu) -> int:
    """n! / prod mu_i!: the dimension of the Young permutation module M^mu."""
    return factorial(sum(mu)) // prod(factorial(p) for p in mu)


def cycle_type(perm) -> tuple:
    seen = set()
    lengths = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# --- characters: Murnaghan-Nakayama ---------------------------------------------


@lru_cache(maxsize=None)
def _mn(beta: tuple, mu: tuple) -> int:
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    members = set(beta)
    total = 0
    for b in beta:
        if b - r < 0 or (b - r) in members:
            continue
        height = sum(1 for c in beta if b - r < c < b)
        new_beta = tuple(sorted((members - {b}) | {b - r}, reverse=True))
        total += (-1) ** height * _mn(new_beta, rest)
    return total


def character(lam, mu) -> int:
    """chi^lam at the class of cycle type mu, removing one rim hook of length
    mu_1, mu_2, ... at a time (as removals of beads on an abacus)."""
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    ell = len(lam)
    beta = tuple(lam[i] + ell - 1 - i for i in range(ell))
    return _mn(beta, tuple(mu))


@lru_cache(maxsize=None)
def character_row(lam) -> dict:
    return {mu: character(lam, mu) for mu in partitions(sum(lam))}


# --- Kostka and Littlewood-Richardson -------------------------------------------


def _horizontal_strips(lam, k):
    """Every nu inside lam such that lam/nu is a horizontal strip of k cells."""
    ell = len(lam)

    def rows(i, left):
        if i == ell:
            if left == 0:
                yield ()
            return
        below = lam[i + 1] if i + 1 < ell else 0
        for take in range(min(left, lam[i] - below), -1, -1):
            for tail in rows(i + 1, left - take):
                yield (lam[i] - take,) + tail

    for nu in rows(0, k):
        yield tuple(p for p in nu if p)


@lru_cache(maxsize=None)
def kostka(lam, mu) -> int:
    """K_{lam,mu}: the largest entry mu_last fills a horizontal strip."""
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    return sum(kostka(nu, mu[:-1]) for nu in _horizontal_strips(lam, mu[-1]))


def contains(inner, outer) -> bool:
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


@lru_cache(maxsize=None)
def lr(lam, mu, nu) -> int:
    """c^lam_{mu,nu}: skew tableaux of shape lam/mu and content nu whose
    reading word, row by row from the top and right to left, is a lattice
    word."""
    if sum(lam) != sum(mu) + sum(nu) or not contains(mu, lam):
        return 0
    cells = [
        (r, c)
        for r in range(len(lam))
        for c in range(lam[r] - 1, (mu[r] if r < len(mu) else 0) - 1, -1)
    ]
    target = list(nu)
    count = [0] * (len(nu) + 1)
    grid: dict = {}

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        hi = grid.get((r, c + 1), len(nu))  # row weakly increases to the right
        lo = grid.get((r - 1, c), 0) + 1  # column strictly increases downward
        total = 0
        for v in range(lo, hi + 1):
            if count[v] == target[v - 1]:
                continue
            if v > 1 and count[v] + 1 > count[v - 1]:
                continue
            count[v] += 1
            grid[(r, c)] = v
            total += fill(k + 1)
            del grid[(r, c)]
            count[v] -= 1
        return total

    return fill(0)


def kronecker(lam, mu, nu) -> int:
    n = sum(lam)
    total = sum(
        Fraction(character(lam, rho) * character(mu, rho) * character(nu, rho), z(rho))
        for rho in partitions(n)
    )
    if total.denominator != 1:
        raise ArithmeticError("Kronecker coefficient oracle is not integral")
    return int(total)


def clear_caches() -> None:
    """Drop the memos of the oracles above. The workloads call this at the
    start of every round, so that the memory the checks hold does not grow
    with the number of rounds and move the peak resident set."""
    for fn in (_mn, character_row, kostka, lr):
        fn.cache_clear()


# --- matrices and permutations -------------------------------------------------


def identity(d: int):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def same_matrix(a, b) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def coxeter_relations_hold(gens: dict, n: int) -> bool:
    """s_i^2 = 1, (s_i s_{i+1})^3 = 1 and (s_i s_j)^2 = 1 for |i - j| >= 2."""
    d = len(gens[1]) if n > 1 else 0
    eye = identity(d)
    for i in range(1, n):
        if not same_matrix(mat_mul(gens[i], gens[i]), eye):
            return False
        for j in range(i + 1, n):
            st = mat_mul(gens[i], gens[j])
            power = mat_mul(st, mat_mul(st, st)) if j == i + 1 else mat_mul(st, st)
            if not same_matrix(power, eye):
                return False
    return True


def reduced_word(perm) -> list[int]:
    """Indices i with perm = s_{w[0]} s_{w[1]} ... (s_i swaps i and i+1;
    products compose right to left), found by bubble-sorting the word."""
    p = list(perm)
    factors = []
    while True:
        i = next((i for i in range(1, len(p)) if p[i - 1] > p[i]), None)
        if i is None:
            return factors[::-1]
        p[i - 1], p[i] = p[i], p[i - 1]
        factors.append(i)


def matrix_from_generators(gens: dict, perm, dim: int):
    """The product of the generator matrices along a reduced word of perm."""
    m = identity(dim)
    for i in reduced_word(perm):
        m = mat_mul(m, gens[i])
    return m


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


# --- evaluation at integer points -----------------------------------------------


def _det(rows) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


class Point:
    """Values of every basis element at one point x of Z^k (distinct positive
    entries, so the Vandermonde determinant is nonzero)."""

    def __init__(self, xs):
        self.x = tuple(xs)
        if len(set(self.x)) != len(self.x) or min(self.x, default=1) < 1:
            raise ValueError("evaluation points need distinct positive entries")
        k = len(self.x)
        self._vandermonde = prod(
            self.x[i] - self.x[j] for i in range(k) for j in range(i + 1, k)
        )
        self._p: dict = {}
        self._e = [1]
        self._h = [1]
        self._memo: dict = {}

    def _power_sum(self, r: int) -> int:
        if r not in self._p:
            self._p[r] = sum(v**r for v in self.x)
        return self._p[r]

    def _grow(self, r: int) -> None:
        """Extend e_0..e_r and h_0..h_r by the products of (1 + x t) and
        1 / (1 - x t) over the coordinates."""
        if r < len(self._e):
            return
        e = [1] + [0] * r
        h = [1] + [0] * r
        for v in self.x:
            for j in range(r, 0, -1):
                e[j] += v * e[j - 1]
            for j in range(1, r + 1):
                h[j] += v * h[j - 1]
        self._e, self._h = e, h

    def _schur(self, lam) -> int:
        k = len(self.x)
        if len(lam) > k:
            return 0
        padded = list(lam) + [0] * (k - len(lam))
        rows = [[v ** (padded[j] + k - 1 - j) for j in range(k)] for v in self.x]
        num = _det(rows)
        if num % self._vandermonde:
            raise ArithmeticError("bialternant is not a polynomial")
        return num // self._vandermonde

    def _monomial(self, lam) -> int:
        values = sorted(set(lam))
        start = tuple(lam.count(v) for v in values)
        states = {start: 1}
        for v in self.x:
            nxt: dict = {}
            for state, acc in states.items():
                nxt[state] = nxt.get(state, 0) + acc
                for t, left in enumerate(state):
                    if left:
                        key = state[:t] + (left - 1,) + state[t + 1:]
                        nxt[key] = nxt.get(key, 0) + acc * v ** values[t]
            states = nxt
        return states.get(tuple(0 for _ in values), 0)

    def value(self, basis: str, lam) -> int:
        lam = tuple(lam)
        key = (basis, lam)
        if key in self._memo:
            return self._memo[key]
        if basis == "p":
            out = prod(self._power_sum(r) for r in lam)
        elif basis in ("e", "h"):
            self._grow(max(lam, default=0))
            seq = self._e if basis == "e" else self._h
            out = prod(seq[r] for r in lam)
        elif basis == "s":
            out = self._schur(lam)
        elif basis == "m":
            out = self._monomial(lam)
        else:
            raise ValueError(f"unknown basis {basis!r}")
        self._memo[key] = out
        return out

    def element(self, basis: str, terms) -> Fraction:
        return sum(
            (Fraction(c) * self.value(basis, lam) for lam, c in terms.items()),
            Fraction(0),
        )


class Points:
    """Points cut from one tuple of coordinates, each built once, so values
    computed for one check are reused by the next. ``points(k)`` has the
    first k coordinates, ``points(k, offset=k)`` the next k (so the two
    together are ``points(2k)``), and ``power`` raises every coordinate."""

    def __init__(self, coords):
        self.coords = tuple(coords)
        self._points: dict = {}

    def __call__(self, k: int, offset: int = 0, power: int = 1) -> Point:
        xs = tuple(v**power for v in self.coords[offset:offset + k])
        if len(xs) != k:
            raise ValueError(f"only {len(self.coords)} coordinates")
        if xs not in self._points:
            self._points[xs] = Point(xs)
        return self._points[xs]


def poly_value(terms: dict, xs) -> Fraction:
    """Value of sum c * x^e at the point xs."""
    return sum(
        (Fraction(c) * prod(v**e for v, e in zip(xs, exps)) for exps, c in terms.items()),
        Fraction(0),
    )
