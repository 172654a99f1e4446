"""Symmetric-group characters via the Frobenius characteristic, and the
Littlewood-Richardson, Kronecker and Young's-rule coefficient families.

Irreducible characters are rows of ring's Schur pairing table:
chi^lam(mu) = <s_lam, p_mu> = z_mu * [p_mu] s_lam. No recursive character
rule is used; the explicit polynomial modules in matrixreps provide the
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeCapError, InvariantViolationError, SizeMismatchError
from .partitions import Partition, as_partition, partitions_of, z_value
from .ring import (
    H,
    P,
    S,
    SymElement,
    _pairing,
    basis_element,
    convert,
    hall_inner,
    multiply,
    sym_element,
    to_p_terms,
)

_table_cap = 8
_coefficient_cap = 12


def set_caps(table: int | None = None, coefficient: int | None = None) -> None:
    """Adjust the degree caps (defaults: tables n<=8, coefficients n<=12)."""
    global _table_cap, _coefficient_cap
    if table is not None:
        _table_cap = table
    if coefficient is not None:
        _coefficient_cap = coefficient


def _coeff_guard(n: int) -> None:
    if n > _coefficient_cap:
        raise DegreeCapError(
            f"degree {n} exceeds the coefficient cap {_coefficient_cap}"
        )


@dataclass(frozen=True, eq=True)
class ClassFunction:
    """A rational-valued function on the conjugacy classes of S_n, keyed by
    the cycle-type partitions. Keys are exactly the partitions of n."""

    n: int
    values: tuple

    def value(self, mu) -> Fraction:
        mu = as_partition(mu)
        return dict(zip(partitions_of(self.n), self.values))[mu]

    def as_dict(self) -> dict[Partition, Fraction]:
        return dict(zip(partitions_of(self.n), self.values))


def class_function(n: int, values) -> ClassFunction:
    """Build a ClassFunction from any mapping cycle-type -> value; missing
    classes read as 0, keys must be partitions of n."""
    vals = {as_partition(mu): Fraction(v) for mu, v in dict(values).items()}
    allowed = set(partitions_of(n))
    bad = set(vals) - allowed
    if bad:
        raise SizeMismatchError(f"class keys are not partitions of {n}: {sorted(bad)}")
    return ClassFunction(
        n, tuple(vals.get(mu, Fraction(0)) for mu in partitions_of(n))
    )


def _int(c: Fraction, what: str) -> int:
    if Fraction(c).denominator != 1:
        raise InvariantViolationError(f"{what} is non-integral: {c}")
    return int(c)


def character_row(lam) -> dict[Partition, int]:
    """All values of the irreducible character chi^lam, keyed by class."""
    lam = as_partition(lam)
    n = sum(lam)
    _coeff_guard(n)

    row = _pairing(S, n)[lam]
    return {mu: row.get(mu, 0) for mu in partitions_of(n)}


def character(lam, mu) -> int:
    """chi^lam evaluated on the class of cycle type mu."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatchError(f"|{lam}| != |{mu}|")
    return character_row(lam)[mu]


def irreducible_character(lam) -> ClassFunction:
    lam = as_partition(lam)
    return class_function(sum(lam), character_row(lam))


def character_table(n: int) -> list[list[int]]:
    """Character table of S_n: rows are the irreducibles lam in canonical
    descending-lex order, columns the classes mu from the identity class
    (1^n) upward (ascending lex), so column 0 holds the degrees f^lam."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > _table_cap:
        raise DegreeCapError(f"character tables are capped at n <= {_table_cap}")
    cols = table_columns(n)
    return [[character_row(lam)[mu] for mu in cols] for lam in partitions_of(n)]


def table_columns(n: int) -> list[Partition]:
    return list(reversed(partitions_of(n)))


def sign_of_class(mu) -> int:
    """Sign of any permutation of cycle type mu."""
    mu = as_partition(mu)
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def frobenius_ch(f: ClassFunction) -> SymElement:
    """Frobenius characteristic: sum over classes of f(mu) p_mu / z_mu."""
    return sym_element(
        P,
        {
            mu: Fraction(v, 1) / z_value(mu)
            for mu, v in f.as_dict().items()
            if v
        },
    )


def frobenius_inverse(f: SymElement, n: int) -> ClassFunction:
    """The class function g with frobenius_ch(g) = f, for f homogeneous of
    degree n: g(mu) = z_mu * [p_mu] f."""
    pexp = to_p_terms(f)
    if any(sum(lam) != n for lam in pexp):
        raise ValueError(f"input is not homogeneous of degree {n}")
    return class_function(
        n, {mu: z_value(mu) * pexp.get(mu, Fraction(0)) for mu in partitions_of(n)}
    )


def littlewood_richardson(lam, mu, nu) -> int:
    """c^lam_{mu,nu} = <s_lam, s_mu s_nu>; zero unless |lam|=|mu|+|nu|."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    _coeff_guard(sum(lam))
    c = hall_inner(
        basis_element(S, lam), multiply(basis_element(S, mu), basis_element(S, nu))
    )
    val = _int(c, f"LR coefficient c^{lam}_({mu},{nu})")
    if val < 0:
        raise InvariantViolationError(f"negative LR coefficient {val}")
    return val


def kronecker(lam, mu, nu) -> int:
    """gamma^lam_{mu,nu} = sum over classes rho of
    chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho; zero unless all three
    partitions have the same size."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        return 0
    _coeff_guard(n)
    rows = (character_row(lam), character_row(mu), character_row(nu))
    total = sum(
        Fraction(rows[0][rho] * rows[1][rho] * rows[2][rho], z_value(rho))
        for rho in partitions_of(n)
    )
    val = _int(total, f"Kronecker coefficient gamma^{lam}_({mu},{nu})")
    if val < 0:
        raise InvariantViolationError(f"negative Kronecker coefficient {val}")
    return val


def kronecker_product(f: SymElement, g: SymElement) -> SymElement:
    """The internal (Kronecker) product, diagonal on power sums:
    p_lam * p_mu = delta z_lam p_lam. Degree-preserving; distinct degrees
    annihilate."""
    fp = to_p_terms(f)
    gp = to_p_terms(g)
    out = {}
    for lam, c in fp.items():
        if lam in gp:
            v = c * gp[lam] * z_value(lam)
            if v:
                out[lam] = v
    return sym_element(P, out)


def youngs_rule(mu) -> dict[Partition, int]:
    """Multiplicities of the irreducibles inside the Young permutation
    module indexed by mu; equals the Schur expansion of h_mu, i.e. the
    Kostka numbers K_{lam,mu}."""
    mu = as_partition(mu)
    _coeff_guard(sum(mu))
    expansion = convert(basis_element(H, mu), S)
    return {
        lam: _int(c, f"Young's-rule multiplicity of {lam} in H^{mu}")
        for lam, c in sorted(expansion.terms.items(), reverse=True)
    }


def char_inner(f: ClassFunction, g: ClassFunction) -> Fraction:
    """<f, g> = (1/n!) sum over the group = sum over classes of
    f(mu) g(mu) / z_mu. (S_n characters are rational, so no conjugate.)"""
    if f.n != g.n:
        raise SizeMismatchError(f"class functions of degrees {f.n} != {g.n}")
    fd, gd = f.as_dict(), g.as_dict()
    return sum(
        (fd[mu] * gd[mu] / z_value(mu) for mu in partitions_of(f.n)), Fraction(0)
    )


def pointwise_product(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """Pointwise product of class functions (the tensor-product character)."""
    if f.n != g.n:
        raise SizeMismatchError(f"class functions of degrees {f.n} != {g.n}")
    fd, gd = f.as_dict(), g.as_dict()
    return class_function(f.n, {mu: fd[mu] * gd[mu] for mu in partitions_of(f.n)})
