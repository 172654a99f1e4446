"""Independent check of plethysm in finitely many variables, kept out of
the library: it is a second route to f[g], used only by the tests."""

from fractions import Fraction

from symfunc.ring import PolynomialValue, SymElement, _add_scaled, evaluate


def plethysm_alphabet_oracle(f: SymElement, g: SymElement, nvars: int):
    """Independent check of f[g] in finitely many variables: list g's
    monomials (with positive integral multiplicities) as a new alphabet,
    evaluate f on that alphabet, and expand back into x_1..x_nvars.

    Only valid when g evaluates with nonnegative integer coefficients."""
    gpoly = evaluate(g, nvars)
    alphabet = []
    for expvec, coeff in sorted(gpoly.terms.items()):
        c = Fraction(coeff)
        if c.denominator != 1 or c < 0:
            raise ValueError("oracle needs a nonnegative-integer inner alphabet")
        alphabet.extend([expvec] * int(c))
    fpoly = evaluate(f, len(alphabet))
    out: dict[tuple, Fraction] = {}
    for expvec, coeff in fpoly.terms.items():
        key = tuple(
            sum(e * mono[i] for e, mono in zip(expvec, alphabet))
            for i in range(nvars)
        )
        _add_scaled(out, coeff, {key: 1})
    return PolynomialValue(nvars, out)
