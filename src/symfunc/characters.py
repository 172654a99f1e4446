"""Symmetric-group characters via the Frobenius characteristic, and the
Littlewood-Richardson, Kronecker and Young's-rule coefficient families.

An irreducible character is one cached s row of ring, chi^lam(mu) =
<s_lam, p_mu>, built by Murnaghan-Nakayama from only the rows it reaches.
The Specht modules of matrixreps read their traces from these rows; the
diagonals of their matrices, built by Garnir straightening on tableaux,
stay the tests' independent cross-check. LR coefficients count LR tableaux
(tableaux._lr_fillings), and Young's rule is the Pieri rule (tableaux._h_in_s).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul

from . import limits
from ._record import Record
from .errors import InvariantViolationError, SizeMismatchError
from .partitions import Partition, as_partition, contains, partition_ranks, partitions_of, z_value
from .ring import (
    P,
    SymElement,
    _class_sizes,
    _p_ints,
    _require_integer,
    _schur_row,
    sym_element,
)
from .tableaux import _h_in_s, _lr_fillings

class ClassFunction(Record):
    """A rational-valued function on the conjugacy classes of S_n, keyed by
    the cycle-type partitions. Keys are exactly the partitions of n."""

    n: int
    values: tuple

    def value(self, mu) -> Fraction:
        rank = partition_ranks(self.n).get(as_partition(mu))
        if rank is None:
            raise SizeMismatchError(f"{mu} is not a partition of {self.n}")
        return self.values[rank]


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


def _capped(n: int) -> None:
    """The caps of a coefficient of degree n: its own, then the s table's."""
    limits.check("coefficient", n)
    limits.check("ring", n)


def character_row(lam) -> dict[Partition, int]:
    """All values of the irreducible character chi^lam, keyed by class."""
    lam = as_partition(lam)
    _capped(sum(lam))
    return dict(zip(partitions_of(sum(lam)), _schur_row(lam)))


def character(lam, mu) -> int:
    """chi^lam evaluated on the class of cycle type mu."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatchError(f"|{lam}| != |{mu}|")
    return character_row(lam)[mu]


def character_table(n: int) -> list[list[int]]:
    """Character table of S_n: rows are the irreducibles lam in canonical
    descending-lex order, columns the classes mu from the identity class
    (1^n) upward (ascending lex), so column 0 holds the degrees f^lam."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    limits.check("table", n)
    cols = table_columns(n)
    return [[row[mu] for mu in cols] for row in map(character_row, partitions_of(n))]


def table_columns(n: int) -> list[Partition]:
    return list(reversed(partitions_of(n)))


def frobenius_ch(f: ClassFunction) -> SymElement:
    """Frobenius characteristic: sum over classes of f(mu) p_mu / z_mu."""
    return sym_element(
        P, {mu: Fraction(v, z_value(mu)) for mu, v in zip(partitions_of(f.n), f.values)}
    )


def frobenius_inverse(f: SymElement, n: int) -> ClassFunction:
    """The class function g with frobenius_ch(g) = f, for f homogeneous of
    degree n: g(mu) = <f, p_mu>, read off the rows of f's keys."""
    den, vals = _p_ints(f, pairing=True)
    if any(sum(mu) != n for mu in vals):
        raise ValueError(f"input is not homogeneous of degree {n}")
    return ClassFunction(n, tuple(Fraction(vals.get(mu, 0), den) for mu in partitions_of(n)))


def littlewood_richardson(lam, mu, nu) -> int:
    """c^lam_{mu,nu} = <s_mu^perp s_lam, s_nu>, the number of LR tableaux of
    shape lam/mu and content nu; zero unless |lam|=|mu|+|nu|."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    _capped(sum(lam))
    return _lr_fillings(lam, mu, nu).get(nu, 0) if contains(mu, lam) else 0


def kronecker(lam, mu, nu) -> int:
    """gamma^lam_{mu,nu} = sum over classes rho of
    chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho, summed over the common
    denominator n!; zero unless all three partitions have the same size."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        return 0
    _capped(n)
    a, b, c = map(_schur_row, (lam, mu, nu))
    total = sum(map(mul, map(mul, a, b), map(mul, c, _class_sizes(n))))
    val = _require_integer(total, "Kronecker coefficient gamma^{}_({},{})", factorial(n), lam, mu, nu)
    if val < 0:
        raise InvariantViolationError(f"negative Kronecker coefficient {val}")
    return val


def kronecker_product(f: SymElement, g: SymElement) -> SymElement:
    """The internal (Kronecker) product, diagonal on power sums:
    p_lam * p_mu = delta z_lam p_lam, so [p_mu](f * g) = <f, p_mu> <g, p_mu>
    / z_mu, each pairing read off the rows of its element's keys.
    Degree-preserving; distinct degrees annihilate. Reported in p."""
    (df, fv), (dg, gv) = _p_ints(f, pairing=True), _p_ints(g, pairing=True)
    return SymElement(P, {mu: Fraction(a * gv[mu], z_value(mu) * df * dg)
                          for mu, a in fv.items() if mu in gv})


def youngs_rule(mu) -> dict[Partition, int]:
    """Multiplicities of the irreducibles inside the Young permutation
    module indexed by mu; equals the Schur expansion of h_mu, i.e. the
    Kostka numbers K_{lam,mu}, by the Pieri rule."""
    mu = as_partition(mu)
    _capped(sum(mu))
    return dict(sorted(_h_in_s(mu).items(), reverse=True))


def char_inner(f: ClassFunction, g: ClassFunction) -> Fraction:
    """<f, g> = (1/n!) sum over the group = sum over classes of
    f(mu) g(mu) / z_mu. (S_n characters are rational, so no conjugate.)"""
    if f.n != g.n:
        raise SizeMismatchError(f"class functions of degrees {f.n} != {g.n}")
    return sum(
        (a * b / z_value(mu) for mu, a, b in zip(partitions_of(f.n), f.values, g.values)),
        Fraction(0),
    )
