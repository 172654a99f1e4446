"""The graded ring of symmetric functions over exact rationals.

Five classical bases (monomial m, elementary e, complete homogeneous h,
power sum p, Schur s). Internally everything is routed through the power-sum
basis, where multiplication is part concatenation, the Hall product is
diagonal with weights z_lambda, and the omega involution is a sign twist.

Every other basis b is carried by one integer table per degree, its Hall
pairing with the power sums, A_b[lam][mu] = <b_lam, p_mu> (integral, since
m, e, h, s are integral bases and p_mu is integral), stored as sparse rows:

  * h: <h_lam, p_mu> counts the ways to deal mu's parts into rows of lengths
    lam; row lam extends row lam[1:] one degree lower, because
    <h_a f, p_mu> = sum over alpha |- a with alpha + beta = mu of
    z_mu / (z_alpha z_beta) <f, p_beta>;
  * e: the h table twisted by eps_mu = (-1)^(|mu| - len(mu)) (omega);
  * s: the Jacobi-Trudi determinant det(h_{lam_i - i + j}) in the h basis,
    a subset-DP Laplace expansion (2^len terms, not len!) summed over the h
    table, for the shape of each conjugate pair with fewer rows; the other
    is its eps twist;
  * m: <m_lam, p_mu> = [h_lam] p_mu, the product over the parts k of mu of
    Newton's p_k = sum over lam |- k of (-1)^(len-1) k (len-1)! /
    prod m_i(lam)! h_lam, multiplied in h by part concatenation.

No table is inverted: [p_mu] b_lam = A_b[lam][mu] / z_mu, and [b_lam] f is
<f, b*_lam>, a row of the table of the Hall dual basis b* (s for s, h for
m, m for h, and omega(m), the eps twist of the m table, for e). The kernels
clear each degree to one denominator, sum in ints and build one Fraction
per output coefficient. The per-degree cache is compute-then-publish:
concurrent readers never observe a partial table and each (basis, degree)
table is computed at most once.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod

from . import limits
from .errors import InvariantViolationError
from .partitions import (
    Partition,
    as_partition,
    conjugate,
    contains,
    format_partition,
    parse_partition,
    partitions_of,
    z_value,
)

M, E, H, P, S = "m", "e", "h", "p", "s"
BASES = (M, E, H, P, S)

PExpansion = dict[Partition, Fraction]
# A_b[lam][mu] = <b_lam, p_mu>, zero entries left out
PairingTable = dict[Partition, dict[Partition, int]]


class _OnceCache:
    """Thread-safe memo: at most one computation per key, readers see only
    fully built values."""

    def __init__(self):
        self._data: dict = {}
        self._locks: dict = {}
        self._guard = threading.Lock()
        self.compute_counts: dict = {}

    def get(self, key, compute):
        try:
            return self._data[key]
        except KeyError:
            pass
        with self._guard:
            lock = self._locks.setdefault(key, threading.Lock())
        with lock:
            if key not in self._data:
                value = compute()
                self.compute_counts[key] = self.compute_counts.get(key, 0) + 1
                self._data[key] = value
            return self._data[key]


_cache = _OnceCache()


def _validate_basis(b: str) -> str:
    if b not in BASES:
        raise ValueError(f"unknown basis {b!r}; expected one of {BASES}")
    return b


def _require_integer(c: Fraction, what: str) -> int:
    if c.denominator != 1:
        raise InvariantViolationError(f"{what} came out non-integral: {c}")
    return int(c)


# --- integer kernels ---------------------------------------------------------


def _add_scaled(acc: dict, c, vec: dict) -> None:
    """acc += c * vec on sparse coefficient dicts, dropping keys that cancel."""
    for key, coeff in vec.items():
        c2 = acc.get(key, 0) + c * coeff
        if c2:
            acc[key] = c2
        elif key in acc:
            del acc[key]


def _clear(terms: dict) -> tuple[int, dict]:
    """(D, D * terms) for D the lcm of the denominators of the values, so
    that every value of the second is an int."""
    den = 1
    for c in terms.values():
        if den % c.denominator:
            den = lcm(den, c.denominator)
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _over(nums: dict, den: int) -> dict:
    """nums / den as Fractions, zeros left out."""
    return {k: Fraction(v, den) for k, v in nums.items() if v}


def _dot(a: dict, b: dict):
    """sum over shared keys of a[k] * b[k], walking the shorter dict."""
    if len(b) < len(a):
        a, b = b, a
    return sum(c * b[k] for k, c in a.items() if k in b)


def _by_degree(terms: dict) -> dict[int, dict]:
    """The nonzero terms split into homogeneous chunks, keyed by degree."""
    chunks: dict[int, dict] = {}
    for lam, c in terms.items():
        if c:
            chunks.setdefault(sum(lam), {})[lam] = c
    return chunks


def _concat_mul(a: dict, b: dict) -> dict:
    """Product in a basis multiplied by part concatenation (p, or h);
    cancelled keys may stay as zeros."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _p_mul(a: PExpansion, b: PExpansion) -> PExpansion:
    da, na = _clear(a)
    db, nb = _clear(b)
    return _over(_concat_mul(na, nb), da * db)


def _omega_sign(mu: Partition) -> int:
    """The sign omega puts on p_mu: (-1)^(|mu| - len(mu))."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def _omega_twist(terms: dict) -> dict:
    return {mu: _omega_sign(mu) * c for mu, c in terms.items()}


# --- the pairing tables ------------------------------------------------------


def _jacobi_trudi_h(lam: Partition) -> dict[Partition, int]:
    """Expansion of the Schur function in the h basis, as the determinant
    det(h_{lambda_i - i + j}) expanded row by row over column subsets."""
    ell = len(lam)
    if ell == 0:
        return {(): 1}
    state: dict[int, dict[Partition, int]] = {0: {(): 1}}
    for i in range(ell):
        nxt: dict[int, dict[Partition, int]] = {}
        for mask, exp in state.items():
            for j in range(ell):
                bit = 1 << j
                if mask & bit:
                    continue
                k = lam[i] - i + j
                if k < 0:
                    continue
                sgn = -1 if (i + bin(mask & (bit - 1)).count("1")) % 2 else 1
                row = exp if k == 0 else {
                    tuple(sorted(mu + (k,), reverse=True)): c for mu, c in exp.items()
                }
                _add_scaled(nxt.setdefault(mask | bit, {}), sgn, row)
        state = nxt
    (expansion,) = state.values()
    return expansion


def _newton_in_h(k: int) -> dict[Partition, int]:
    """p_k in the h basis: (-1)^(len - 1) k (len - 1)! / prod m_i(lam)! at
    h_lam, where prod m_i(lam)! = z_lam / prod(lam)."""
    return {
        lam: (-1) ** (len(lam) - 1) * _require_integer(
            Fraction(k * factorial(len(lam) - 1) * prod(lam), z_value(lam)),
            f"Newton coefficient of h_{lam} in p_{k}",
        )
        for lam in partitions_of(k)
    }


def _pairing_table(basis: str, degree: int) -> PairingTable:
    """A_b[lam][mu] = <b_lam, p_mu> for every lam, mu |- ``degree``."""
    if not degree:
        return {(): {(): 1}}
    lams = partitions_of(degree)
    if basis == H:
        table: PairingTable = {}
        for lam in lams:
            row: dict[Partition, int] = {}
            for beta, c in _pairing(H, degree - lam[0])[lam[1:]].items():
                for alpha in partitions_of(lam[0]):
                    mu = tuple(sorted(alpha + beta, reverse=True))
                    # z_mu / (z_alpha z_beta) is a product of binomials
                    ways = z_value(mu) // (z_value(alpha) * z_value(beta))
                    row[mu] = row.get(mu, 0) + c * ways
            table[lam] = row
        return table
    if basis == E:
        return {lam: _omega_twist(row) for lam, row in _pairing(H, degree).items()}
    if basis == S:
        # s_lam = omega(s_lam'): expand the shape with fewer rows, which
        # comes first in canonical order, and twist it for its conjugate
        h_table = _pairing(H, degree)
        table = {}
        for lam in lams:
            conj = conjugate(lam)
            if len(conj) < len(lam):
                table[lam] = _omega_twist(table[conj])
                continue
            row = {}
            for nu, c in _jacobi_trudi_h(lam).items():
                _add_scaled(row, c, h_table[nu])
            table[lam] = row
        return table
    # monomial: column mu is p_mu = p_(mu_1) p_(mu_2) ... in the h basis
    newton = {k: _newton_in_h(k) for k in range(1, degree + 1)}
    cols: dict[Partition, dict[Partition, int]] = {(): {(): 1}}

    def column(mu: Partition) -> dict[Partition, int]:
        if mu not in cols:
            cols[mu] = _concat_mul(newton[mu[0]], column(mu[1:]))
        return cols[mu]

    table = {lam: {} for lam in lams}
    for mu in lams:
        for lam, c in column(mu).items():
            if c:
                table[lam][mu] = c
    return table


def _pairing(basis: str, degree: int) -> PairingTable:
    """The cached pairing table of ``basis`` (not p) at one degree."""
    limits.check("ring", degree)
    return _cache.get(("pairing", basis, degree), lambda: _pairing_table(basis, degree))


# The Hall dual of each basis other than p; that of e is omega(m), whose
# table is the eps twist of the m table.
_DUAL = {S: S, H: M, M: H, E: M}


# --- elements ----------------------------------------------------------------


def _normalize_terms(terms) -> dict[Partition, Fraction]:
    out: dict[Partition, Fraction] = {}
    for lam, c in dict(terms).items():
        c = Fraction(c)
        if c:
            out[as_partition(lam)] = c
    return out


@dataclass(frozen=True, eq=False)
class SymElement:
    """A symmetric function: finitely many (partition -> rational) terms in
    one named basis. May mix degrees. Equality is semantic (compared in p)."""

    basis: str
    terms: dict

    def degrees(self) -> set[int]:
        return {sum(lam) for lam in self.terms}

    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(as_partition(lam), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymElement") -> "SymElement":
        other = convert(other, self.basis)
        out = dict(self.terms)
        _add_scaled(out, 1, other.terms)
        return SymElement(self.basis, out)

    def __sub__(self, other: "SymElement") -> "SymElement":
        return self + (-1) * other

    def __neg__(self) -> "SymElement":
        return (-1) * self

    def __rmul__(self, scalar) -> "SymElement":
        c = Fraction(scalar)
        if not c:
            return SymElement(self.basis, {})
        return SymElement(self.basis, {lam: c * v for lam, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymElement):
            return multiply(self, other)
        return self.__rmul__(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymElement):
            return NotImplemented
        return to_p_terms(self) == to_p_terms(other)

    def __str__(self) -> str:
        return _format_terms(
            (self.terms[lam], f"{self.basis}[{format_partition(lam) if lam else ''}]")
            for lam in sorted(self.terms, key=_canonical_sort_key)
        )

    __repr__ = __str__


def _canonical_sort_key(lam: Partition):
    d = sum(lam)
    return (d, partitions_of(d).index(lam))


def sym_element(basis: str, terms) -> SymElement:
    return SymElement(_validate_basis(basis), _normalize_terms(terms))


def basis_element(basis: str, lam) -> SymElement:
    """The single basis vector b_lambda."""
    return sym_element(basis, {as_partition(lam): 1})


def zero(basis: str = P) -> SymElement:
    return sym_element(basis, {})


def one(basis: str = P) -> SymElement:
    return basis_element(basis, ())


def to_p_terms(f: SymElement) -> PExpansion:
    """The power-sum expansion of ``f`` as a plain dict:
    [p_mu] f = sum over lam of f_lam A_b[lam][mu] / z_mu."""
    if f.basis == P:
        return dict(f.terms)
    out: PExpansion = {}
    for d, chunk in _by_degree(f.terms).items():
        table = _pairing(f.basis, d)
        den, nums = _clear(chunk)
        acc: dict[Partition, int] = {}
        for lam, n in nums.items():
            _add_scaled(acc, n, table[lam])
        for mu, v in acc.items():
            out[mu] = Fraction(v, den * z_value(mu))
    return out


def from_p_terms(basis: str, pexp: PExpansion) -> SymElement:
    """Re-express a power-sum expansion in ``basis``: [b_lam] f is
    <f, b*_lam> = sum over mu of [p_mu] f A_b*[lam][mu]."""
    _validate_basis(basis)
    if basis == P:
        return sym_element(P, pexp)
    out: dict[Partition, Fraction] = {}
    for d, chunk in _by_degree(pexp).items():
        den, nums = _clear(chunk)
        if basis == E:
            nums = _omega_twist(nums)
        dual = _pairing(_DUAL[basis], d)
        for lam in partitions_of(d):
            v = _dot(dual[lam], nums)
            if v:
                out[lam] = Fraction(v, den)
    return SymElement(basis, out)


def convert(f: SymElement, target: str) -> SymElement:
    """Same element, coefficients in the target basis."""
    _validate_basis(target)
    if f.basis == target:
        return f
    return from_p_terms(target, to_p_terms(f))


def multiply(f: SymElement, g: SymElement) -> SymElement:
    """Ring product; reported in the p basis, where it is part
    concatenation."""
    return SymElement(P, _p_mul(to_p_terms(f), to_p_terms(g)))


def hall_inner(f: SymElement, g: SymElement) -> Fraction:
    """Hall scalar product: diagonal in p with <p_lam, p_lam> = z_lam."""
    df, fp = _clear(to_p_terms(f))
    dg, gp = _clear(to_p_terms(g))
    if len(gp) < len(fp):
        fp, gp = gp, fp
    total = sum(c * gp[lam] * z_value(lam) for lam, c in fp.items() if lam in gp)
    return Fraction(total, df * dg)


def omega(f: SymElement) -> SymElement:
    """The involution with omega(e_n) = h_n and omega(s_lam) = s_lam'.

    On power sums it multiplies p_n by (-1)^(n-1), extended
    multiplicatively; the sign rule is forced by the two identities above.
    """
    return SymElement(P, _omega_twist(to_p_terms(f)))


def skew_schur(lam, mu) -> SymElement:
    """The skew Schur function as a Schur expansion,
    sum over nu of <s_lam, s_mu s_nu> s_nu; zero if mu is not inside lam.

    It is s_mu^perp s_lam, and p_alpha^perp p_rho = z_rho / z_beta p_beta
    when rho = alpha + beta, so its pairing with p_beta is the sum over
    alpha |- |mu| of <s_mu, p_alpha> <s_lam, p_(alpha + beta)> / z_alpha."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if not contains(mu, lam):
        return zero(S)
    m = sum(mu)
    row_lam = _pairing(S, sum(lam))[lam]
    row_mu = _pairing(S, m)[mu]
    pexp: PExpansion = {}
    for beta in partitions_of(sum(lam) - m):
        # scaled by m!, which every z_alpha divides
        w = sum(
            c * row_lam.get(tuple(sorted(alpha + beta, reverse=True)), 0)
            * (factorial(m) // z_value(alpha))
            for alpha, c in row_mu.items()
        )
        if w:
            pexp[beta] = Fraction(w, factorial(m) * z_value(beta))
    terms: dict[Partition, Fraction] = {}
    for nu, c in from_p_terms(S, pexp).terms.items():
        val = _require_integer(c, f"skew Schur coefficient ({lam}/{mu}, {nu})")
        if val < 0:
            raise InvariantViolationError(
                f"negative skew Schur coefficient {val} at {nu}"
            )
        terms[nu] = Fraction(val)
    return SymElement(S, terms)


def perp(mu, f: SymElement) -> SymElement:
    """Adjoint of multiplication by s_mu: on the Schur basis it sends
    s_lam to the skew function s_(lam/mu)."""
    mu = as_partition(mu)
    fs = convert(f, S)
    out: dict[Partition, Fraction] = {}
    for lam, c in fs.terms.items():
        if not contains(mu, lam):
            continue
        _add_scaled(out, c, skew_schur(lam, mu).terms)
    return SymElement(S, out)


# --- evaluation in finitely many variables -----------------------------------


@dataclass(frozen=True, eq=False)
class PolynomialValue:
    """A polynomial in x_1..x_nvars with exact rational coefficients,
    stored as exponent-vector -> coefficient."""

    nvars: int
    terms: dict

    def __add__(self, other: "PolynomialValue") -> "PolynomialValue":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        out = dict(self.terms)
        _add_scaled(out, 1, other.terms)
        return PolynomialValue(self.nvars, out)

    def __mul__(self, other: "PolynomialValue") -> "PolynomialValue":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        out: dict = {}
        for ka, ca in self.terms.items():
            shifted = {tuple(a + b for a, b in zip(ka, kb)): cb for kb, cb in other.terms.items()}
            _add_scaled(out, ca, shifted)
        return PolynomialValue(self.nvars, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialValue):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def at_ones(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __str__(self) -> str:
        return _format_terms(
            (self.terms[key], "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(key) if e
            ))
            for key in sorted(self.terms, key=lambda k: (-sum(k),) + tuple(-x for x in k))
        )

    __repr__ = __str__


def _arrangements(counts: dict[int, int], slots: int):
    """Every distinct word of length ``slots`` using each value v exactly
    counts[v] times (the counts sum to ``slots``)."""
    if not slots:
        yield ()
        return
    for v in list(counts):
        if counts[v]:
            counts[v] -= 1
            for rest in _arrangements(counts, slots - 1):
                yield (v,) + rest
            counts[v] += 1


def evaluate(f: SymElement, nvars: int) -> PolynomialValue:
    """The polynomial f(x_1, ..., x_nvars, 0, 0, ...): each m_lam with at
    most nvars parts is the sum of the distinct monomials x^alpha over the
    rearrangements alpha of lam padded with zeros."""
    if nvars < 0:
        raise ValueError("variable count must be >= 0")
    out: dict[tuple[int, ...], Fraction] = {}
    for lam, c in convert(f, M).terms.items():
        if len(lam) <= nvars:
            counts = Counter(lam)
            counts[0] = nvars - len(lam)
            for alpha in _arrangements(counts, nvars):
                out[alpha] = c
    return PolynomialValue(nvars, out)


# --- text / JSON forms --------------------------------------------------------


def format_coeff(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_terms(terms) -> str:
    """Join (coefficient, monomial) pairs as ``c*mono + ... - mono``: a unit
    coefficient is left out, an empty monomial (a constant) shows it."""
    pieces = []
    for c, mono in terms:
        mag = format_coeff(abs(c))
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        sign = ("" if c > 0 else "-") if not pieces else ("+ " if c > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def parse_coeff(text: str) -> Fraction:
    """A rational literal such as ``3`` or ``-1/2``; a zero denominator is a
    ValueError like any other malformed literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {text!r}") from None


def sym_to_json(f: SymElement) -> dict:
    keys = sorted(f.terms, key=_canonical_sort_key)
    return {
        "basis": f.basis,
        "terms": [
            {"partition": list(lam), "coeff": format_coeff(f.terms[lam])}
            for lam in keys
        ],
    }


def sym_from_json(obj: dict) -> SymElement:
    terms = {
        tuple(t["partition"]): parse_coeff(t["coeff"]) for t in obj["terms"]
    }
    return sym_element(obj["basis"], terms)


def parse_sym_element(text: str) -> SymElement:
    """Parse the CLI literal ``basis:coeff*partition+...``, e.g.
    ``s:1*2,1`` or ``p:1/2*2+-1/2*1,1``. A missing ``coeff*`` means 1;
    the empty partition is ``()``."""
    basis, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"element literal must look like 'basis:terms': {text!r}")
    basis = _validate_basis(basis.strip())
    terms: dict[Partition, Fraction] = {}
    for tok in rest.split("+"):
        tok = tok.strip()
        if not tok:
            raise ValueError(f"empty term in element literal {text!r}")
        if "*" in tok:
            coeff_s, part_s = tok.split("*", 1)
            coeff = parse_coeff(coeff_s.strip())
        else:
            coeff, part_s = Fraction(1), tok
        lam = parse_partition(part_s.strip())
        terms[lam] = terms.get(lam, Fraction(0)) + coeff
    return sym_element(basis, terms)
