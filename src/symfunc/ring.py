"""The graded ring of symmetric functions over exact rationals.

Five classical bases (monomial m, elementary e, complete homogeneous h,
power sum p, Schur s). Internally everything is routed through the power-sum
basis, where multiplication is part concatenation, the Hall product is
diagonal with weights z_lambda, and the omega involution is a sign twist.
The other bases reach p through cached per-degree transition matrices:

  * h_n = sum over lambda |- n of p_lambda / z_lambda,
    e_n = sum of (-1)^(n + len(lambda)) p_lambda / z_lambda,
    extended multiplicatively to h_lambda, e_lambda;
  * Schur via the Jacobi-Trudi determinant det(h_{lambda_i - i + j}),
    expanded by a subset-DP Laplace expansion (2^len ring operations
    instead of len! permutation terms) over the h table;
  * monomial by back-substitution in p_mu = sum of <p_mu, h_lam> m_lam,
    which is triangular in the canonical descending-lex order.

No table is inverted: [b_lam] p_mu = z_mu [p_mu] b*_lam for the Hall dual
basis b*. The per-degree cache is compute-then-publish: concurrent readers
never observe a partial table and each (basis, degree) table is computed at
most once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapError, InvariantViolationError
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

_DEFAULT_MAX_DEGREE = 20
_max_degree = _DEFAULT_MAX_DEGREE


def set_max_degree(n: int) -> None:
    """Raise or lower the transition-cache degree bound (default 20)."""
    global _max_degree
    if n < 0:
        raise ValueError("max degree must be >= 0")
    _max_degree = n


def get_max_degree() -> int:
    return _max_degree


def _degree_guard(d: int) -> None:
    if d > _max_degree:
        raise DegreeCapError(
            f"degree {d} exceeds the configured cap {_max_degree}; "
            "raise it with set_max_degree()"
        )


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


# --- power-sum primitives ----------------------------------------------------


def _p_mul(a: PExpansion, b: PExpansion) -> PExpansion:
    out: PExpansion = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb, reverse=True))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _h_in_p(n: int) -> PExpansion:
    return {mu: Fraction(1, z_value(mu)) for mu in partitions_of(n)}


def _e_in_p(n: int) -> PExpansion:
    return {
        mu: Fraction((-1) ** ((n + len(mu)) % 2), z_value(mu))
        for mu in partitions_of(n)
    }


def _omega_sign(mu: Partition) -> int:
    """The sign omega puts on p_mu: (-1)^(|mu| - len(mu))."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def _multiplicative_in_p(lam: Partition, gen) -> PExpansion:
    out: PExpansion = {(): Fraction(1)}
    for part in lam:
        out = _p_mul(out, gen(part))
    return out


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
                target = nxt.setdefault(mask | bit, {})
                for mu, c in exp.items():
                    key = mu if k == 0 else tuple(sorted(mu + (k,), reverse=True))
                    c2 = target.get(key, 0) + sgn * c
                    if c2:
                        target[key] = c2
                    elif key in target:
                        del target[key]
        state = nxt
    (expansion,) = state.values()
    return expansion


def _add_scaled(acc: dict, c, vec: dict) -> None:
    """acc += c * vec on sparse coefficient dicts, dropping keys that cancel."""
    for key, coeff in vec.items():
        c2 = acc.get(key, 0) + c * coeff
        if c2:
            acc[key] = c2
        elif key in acc:
            del acc[key]


def _to_p_table(basis: str, degree: int) -> dict[Partition, PExpansion]:
    """p-expansions of every degree-``degree`` element of ``basis``."""
    lams = partitions_of(degree)
    if basis == P:
        return {lam: {lam: Fraction(1)} for lam in lams}
    if basis == H:
        return {lam: _multiplicative_in_p(lam, _h_in_p) for lam in lams}
    if basis == E:
        return {lam: _multiplicative_in_p(lam, _e_in_p) for lam in lams}
    h_table = _cached_to_p(H, degree)
    table: dict[Partition, PExpansion] = {}
    if basis == S:
        # s_lam = omega(s_lam'): expand the shape with fewer rows, which
        # comes first in canonical order, and twist it for its conjugate
        for lam in lams:
            conj = conjugate(lam)
            if len(conj) < len(lam):
                table[lam] = {mu: _omega_sign(mu) * c for mu, c in table[conj].items()}
                continue
            acc: PExpansion = {}
            for nu, c in _jacobi_trudi_h(lam).items():
                _add_scaled(acc, c, h_table[nu])
            table[lam] = acc
        return table
    # monomial: p_mu - sum over lam coarser than mu of <p_mu, h_lam> m_lam is
    # <p_mu, h_mu> m_mu, and the coarser lam come earlier in canonical order
    for mu in lams:
        z = z_value(mu)
        acc = {mu: Fraction(1)}
        for lam, m_lam in table.items():
            c = h_table[lam].get(mu)
            if c:
                _add_scaled(acc, -z * c, m_lam)
        diag = z * h_table[mu][mu]
        table[mu] = {key: c / diag for key, c in acc.items()}
    return table


def _cached_to_p(basis: str, degree: int) -> dict[Partition, PExpansion]:
    _degree_guard(degree)
    return _cache.get(("to_p", basis, degree), lambda: _to_p_table(basis, degree))


# The Hall dual of each basis other than p; that of e is omega(m).
_DUAL = {S: S, H: M, M: H, E: M}


def _cached_from_p(basis: str, degree: int):
    """Inverse transition at one degree: matrix C with (target coords) =
    C . (p coords), both over the canonical partition list. Entry
    C[lam][mu] = <p_mu, b*_lam> = z_mu [p_mu] b*_lam for the dual basis b*."""
    _degree_guard(degree)

    def compute():
        lams = partitions_of(degree)
        dual = _cached_to_p(_DUAL[basis], degree)
        weights = [
            z_value(mu) * (_omega_sign(mu) if basis == E else 1) for mu in lams
        ]
        return tuple(
            tuple(w * dual[lam].get(mu, Fraction(0)) for w, mu in zip(weights, lams))
            for lam in lams
        )

    return _cache.get(("from_p", basis, degree), compute)


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

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(as_partition(lam), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymElement") -> "SymElement":
        other = convert(other, self.basis)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            c2 = out.get(lam, 0) + c
            if c2:
                out[lam] = c2
            elif lam in out:
                del out[lam]
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
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=_canonical_sort_key)
        pieces = []
        for lam in keys:
            c = self.terms[lam]
            mono = f"{self.basis}[{format_partition(lam) if lam else ''}]"
            mag = abs(c)
            body = mono if mag == 1 else f"{format_coeff(mag)}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

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
    """The power-sum expansion of ``f`` as a plain dict."""
    if f.basis == P:
        return dict(f.terms)
    out: PExpansion = {}
    for lam, c in f.terms.items():
        _add_scaled(out, c, _cached_to_p(f.basis, sum(lam))[lam])
    return out


def from_p_terms(basis: str, pexp: PExpansion) -> SymElement:
    """Re-express a power-sum expansion in ``basis``."""
    _validate_basis(basis)
    if basis == P:
        return sym_element(P, pexp)
    by_degree: dict[int, PExpansion] = {}
    for lam, c in pexp.items():
        if c:
            by_degree.setdefault(sum(lam), {})[lam] = c
    out: dict[Partition, Fraction] = {}
    for d, chunk in by_degree.items():
        lams = partitions_of(d)
        inv = _cached_from_p(basis, d)
        vec = [chunk.get(mu, Fraction(0)) for mu in lams]
        for i, lam in enumerate(lams):
            c = sum(inv[i][j] * vec[j] for j in range(len(lams)))
            if c:
                out[lam] = c
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
    return sym_element(P, _p_mul(to_p_terms(f), to_p_terms(g)))


def hall_inner(f: SymElement, g: SymElement) -> Fraction:
    """Hall scalar product: diagonal in p with <p_lam, p_lam> = z_lam."""
    fp = to_p_terms(f)
    gp = to_p_terms(g)
    if len(gp) < len(fp):
        fp, gp = gp, fp
    return sum(
        (c * gp[lam] * z_value(lam) for lam, c in fp.items() if lam in gp),
        Fraction(0),
    )


def omega(f: SymElement) -> SymElement:
    """The involution with omega(e_n) = h_n and omega(s_lam) = s_lam'.

    On power sums it multiplies p_n by (-1)^(n-1), extended
    multiplicatively; the sign rule is forced by the two identities above.
    """
    out = {lam: c * _omega_sign(lam) for lam, c in to_p_terms(f).items()}
    return sym_element(P, out)


def _require_integer(c: Fraction, what: str) -> int:
    if c.denominator != 1:
        raise InvariantViolationError(f"{what} came out non-integral: {c}")
    return int(c)


def skew_schur(lam, mu) -> SymElement:
    """The skew Schur function as a Schur expansion,
    sum over nu of <s_lam, s_mu s_nu> s_nu; zero if mu is not inside lam."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if not contains(mu, lam):
        return zero(S)
    n = sum(lam) - sum(mu)
    s_lam = basis_element(S, lam)
    s_mu = basis_element(S, mu)
    terms: dict[Partition, Fraction] = {}
    for nu in partitions_of(n):
        c = hall_inner(s_lam, multiply(s_mu, basis_element(S, nu)))
        if c:
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
        for k, c in other.terms.items():
            c2 = out.get(k, 0) + c
            if c2:
                out[k] = c2
            elif k in out:
                del out[k]
        return PolynomialValue(self.nvars, out)

    def __mul__(self, other: "PolynomialValue") -> "PolynomialValue":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                c = out.get(key, 0) + ca * cb
                if c:
                    out[key] = c
                elif key in out:
                    del out[key]
        return PolynomialValue(self.nvars, out)

    def scale(self, c) -> "PolynomialValue":
        c = Fraction(c)
        if not c:
            return PolynomialValue(self.nvars, {})
        return PolynomialValue(self.nvars, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialValue):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def at_ones(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, key=lambda k: (-sum(k),) + tuple(-x for x in k)):
            c = self.terms[key]
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(key)
                if e
            ]
            mono = "*".join(factors) if factors else "1"
            mag = abs(c)
            body = mono if mag == 1 and factors else (
                f"{format_coeff(mag)}" if not factors else f"{format_coeff(mag)}*{mono}"
            )
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    __repr__ = __str__


def poly_one(nvars: int) -> PolynomialValue:
    return PolynomialValue(nvars, {(0,) * nvars: Fraction(1)})


def _p_power_poly(k: int, nvars: int) -> PolynomialValue:
    terms = {}
    for i in range(nvars):
        key = tuple(k if j == i else 0 for j in range(nvars))
        terms[key] = Fraction(1)
    return PolynomialValue(nvars, terms)


def evaluate(f: SymElement, nvars: int) -> PolynomialValue:
    """The polynomial f(x_1, ..., x_nvars, 0, 0, ...)."""
    if nvars < 0:
        raise ValueError("variable count must be >= 0")
    out = PolynomialValue(nvars, {})
    for lam, c in to_p_terms(f).items():
        term = poly_one(nvars)
        for part in lam:
            term = term * _p_power_poly(part, nvars)
        out = out + term.scale(c)
    return out


# --- text / JSON forms --------------------------------------------------------


def format_coeff(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def parse_coeff(text: str) -> Fraction:
    return Fraction(text)


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
            coeff = Fraction(coeff_s.strip())
        else:
            coeff, part_s = Fraction(1), tok
        lam = parse_partition(part_s.strip())
        terms[lam] = terms.get(lam, Fraction(0)) + coeff
    return sym_element(basis, terms)
