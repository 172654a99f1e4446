"""Command-line front end.

Every computation is one subcommand with stable text output (default) or
JSON (--format json / SYMF_FORMAT=json). Exit codes: 0 success, 1 domain
error (one-line diagnostic on stderr), 2 usage error.

Partition syntax: "3,2,1" (descending) or "()" for the empty partition.
Permutation words: "2 3 1". Element literals: basis:coeff*partition+...,
e.g. s:1*2,1 or p:1/2*2+-1/2*1,1 (a bare partition means coefficient 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import characters, hopf, limits, matrixreps, ring, tableaux
from .errors import InvariantViolationError
from .partitions import (
    cycle_type,
    count_of_type,
    conjugate,
    dominates,
    format_partition,
    parse_partition,
    parse_permutation,
    partitions_of,
    z_value,
)


def _fmt_matrix_text(m) -> str:
    rows = [[ring.format_coeff(x) for x in row] for row in m]
    if not rows:
        return "(empty 0x0 matrix)"
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return "\n".join(
        " ".join(x.rjust(w) for x, w in zip(r, widths)) for r in rows
    )


def _matrix_json(m) -> list[list[str]]:
    return [[ring.format_coeff(x) for x in row] for row in m]


def _tableau_text(t) -> str:
    lines = []
    for r, row in enumerate(t.rows):
        pad = t.inner[r] if r < len(t.inner) else 0
        lines.append(" ".join(["."] * pad + [str(v) for v in row]))
    return "\n".join(lines)


def _tableau_json(t):
    if not t.inner:
        return t.to_lists()
    out = []
    for r, row in enumerate(t.rows):
        pad = t.inner[r] if r < len(t.inner) else 0
        out.append([None] * pad + list(row))
    return out


def _classfn_rows(cf: characters.ClassFunction):
    cols = characters.table_columns(cf.n)
    vals = cf.as_dict()
    return [(mu, vals[mu]) for mu in cols]


def _classfn_text(cf) -> str:
    return "\n".join(
        f"{format_partition(mu)}\t{ring.format_coeff(v)}" for mu, v in _classfn_rows(cf)
    )


def _classfn_json(cf):
    return {
        "n": cf.n,
        "values": [
            {"class": list(mu), "value": ring.format_coeff(v)}
            for mu, v in _classfn_rows(cf)
        ],
    }


def _mults_text(mults) -> str:
    items = sorted(mults.items(), reverse=True)
    if not items:
        return "0"
    width = max(len(format_partition(lam)) for lam, _ in items)
    return "\n".join(f"{format_partition(lam).ljust(width)}  {m}" for lam, m in items)


def _mults_json(mults):
    return [
        {"partition": list(lam), "multiplicity": int(m)}
        for lam, m in sorted(mults.items(), reverse=True)
    ]


def _parse_composition(text: str) -> tuple[int, ...]:
    try:
        comp = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"malformed composition {text!r}") from None
    if not comp or any(c < 1 for c in comp):
        raise ValueError("composition parts must be positive integers")
    return comp


def _rep_from_spec(kind: str, arg: str) -> matrixreps.MatrixRep:
    if kind in ("trivial", "sign", "defining", "regular", "standard"):
        return matrixreps.classical_rep(kind, int(arg))
    if kind == "young":
        return matrixreps.young_module(parse_partition(arg))
    if kind == "specht":
        return matrixreps.specht_module(parse_partition(arg))
    raise ValueError(
        "representation kind must be one of trivial, sign, defining, "
        "regular, standard, young, specht"
    )


def _elem(text: str) -> ring.SymElement:
    return ring.parse_sym_element(text)


def _sym_out(f: ring.SymElement, basis: str):
    out = ring.convert(f, basis)
    return str(out), ring.sym_to_json(out)


def _poly_out(poly: ring.PolynomialValue):
    return str(poly), {
        "variables": poly.nvars,
        "terms": [
            {"exponents": list(k), "coeff": ring.format_coeff(c)}
            for k, c in sorted(poly.terms.items())
        ],
    }


def _emit(args, text: str, obj) -> None:
    if args.format == "json":
        print(json.dumps(obj))
    else:
        print(text)


# --- handlers -----------------------------------------------------------------


def _cmd_partitions(args):
    parts = partitions_of(args.n)
    return "\n".join(format_partition(p) for p in parts), [list(p) for p in parts]


def _cmd_conjugate(args):
    lam = conjugate(parse_partition(args.partition))
    return format_partition(lam), list(lam)


def _cmd_dominates(args):
    res = dominates(parse_partition(args.lam), parse_partition(args.mu))
    return ("true" if res else "false"), res


def _cmd_ztable(args):
    rows = [(p, z_value(p), count_of_type(p)) for p in partitions_of(args.n)]
    text = "\n".join(
        f"{format_partition(p)}\t{z}\t{c}" for p, z, c in rows
    )
    return text, [
        {"partition": list(p), "z": z, "count": c} for p, z, c in rows
    ]


def _cmd_kostka(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    if args.tableaux:
        tabs = list(tableaux.enumerate_ssyt(lam, len(mu), mu))
        text_parts = []
        for t in tabs:
            mono = tableaux.weight_monomial(t)
            weight = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in sorted(mono.items())
            )
            text_parts.append(_tableau_text(t) + f"\nweight: {weight or '1'}")
        text = f"{len(tabs)}\n" + "\n\n".join(text_parts)
        return text, {
            "count": len(tabs),
            "tableaux": [_tableau_json(t) for t in tabs],
        }
    k = tableaux.kostka(lam, mu)
    return str(k), k


def _cmd_flambda(args):
    k = tableaux.f_lambda(parse_partition(args.partition))
    return str(k), k


def _cmd_rsk(args):
    if args.inverse:
        if len(args.word) != 2:
            raise ValueError("rsk --inverse expects two JSON tableaux")
        p = _tableau_from_json(args.word[0])
        q = _tableau_from_json(args.word[1])
        word = tableaux.rsk_inverse(p, q)
        return " ".join(str(x) for x in word), list(word)
    letters = [int(x) for x in args.word]
    p, q = tableaux.rsk(letters)
    text = "P:\n" + _tableau_text(p) + "\nQ:\n" + _tableau_text(q)
    return text, {"P": _tableau_json(p), "Q": _tableau_json(q)}


def _tableau_from_json(text: str) -> tableaux.Tableau:
    rows = json.loads(text)
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(type(x) is int for x in r) for r in rows
    ):
        raise ValueError(f"tableau must be a JSON list of lists of integers: {text!r}")
    return tableaux.Tableau(tuple(map(len, rows)), tuple(map(tuple, rows)))


def _cmd_convert(args):
    return _sym_out(_elem(args.element), args.basis)


def _cmd_multiply(args):
    return _sym_out(ring.multiply(_elem(args.f), _elem(args.g)), args.basis)


def _cmd_inner(args):
    v = ring.hall_inner(_elem(args.f), _elem(args.g))
    return ring.format_coeff(v), ring.format_coeff(v)


def _cmd_omega(args):
    return _sym_out(ring.omega(_elem(args.element)), args.basis)


def _cmd_skew(args):
    out = ring.skew_schur(parse_partition(args.lam), parse_partition(args.mu))
    return _sym_out(out, args.basis)


def _cmd_perp(args):
    out = ring.perp(parse_partition(args.mu), _elem(args.element))
    return _sym_out(out, args.basis)


def _cmd_evaluate(args):
    return _poly_out(ring.evaluate(_elem(args.element), args.nvars))


def _cmd_char(args):
    v = characters.character(parse_partition(args.lam), parse_partition(args.mu))
    return str(v), v


def _cmd_chartable(args):
    table = characters.character_table(args.n)
    rows = partitions_of(args.n)
    cols = characters.table_columns(args.n)
    col_labels = [format_partition(c) for c in cols]
    row_labels = [format_partition(r) for r in rows]
    head_width = max(len(x) for x in row_labels + ["chi"])
    widths = [
        max(len(col_labels[j]), max(len(str(table[i][j])) for i in range(len(rows))))
        for j in range(len(cols))
    ]
    lines = [
        "chi".ljust(head_width)
        + "  "
        + "  ".join(lbl.rjust(w) for lbl, w in zip(col_labels, widths))
    ]
    for i, rl in enumerate(row_labels):
        lines.append(
            rl.ljust(head_width)
            + "  "
            + "  ".join(str(table[i][j]).rjust(widths[j]) for j in range(len(cols)))
        )
    obj = {
        "n": args.n,
        "rows": [list(r) for r in rows],
        "columns": [list(c) for c in cols],
        "table": table,
    }
    return "\n".join(lines), obj


def _cmd_ch(args):
    values = {}
    for pair in args.values:
        key, sep, val = pair.partition("=")
        if not sep:
            raise ValueError(f"class value must look like MU=VALUE: {pair!r}")
        values[parse_partition(key)] = ring.parse_coeff(val)
    cf = characters.class_function(args.n, values)
    return _sym_out(characters.frobenius_ch(cf), args.basis)


def _cmd_ch_inverse(args):
    cf = characters.frobenius_inverse(_elem(args.element), args.n)
    return _classfn_text(cf), _classfn_json(cf)


def _coefficient(fn, args):
    v = fn(*(parse_partition(x) for x in (args.lam, args.mu, args.nu)))
    return str(v), v


def _cmd_lr(args):
    return _coefficient(characters.littlewood_richardson, args)


def _cmd_kronecker(args):
    return _coefficient(characters.kronecker, args)


def _cmd_kron_product(args):
    out = characters.kronecker_product(_elem(args.f), _elem(args.g))
    return _sym_out(out, args.basis)


def _cmd_youngs_rule(args):
    mults = characters.youngs_rule(parse_partition(args.mu))
    return _mults_text(mults), _mults_json(mults)


def _coproduct(coproduct, counit, args):
    f = _elem(args.element)
    if args.counit:
        v = counit(f)
        return ring.format_coeff(v), ring.format_coeff(v)
    t = hopf.tensor_convert(coproduct(f), tuple(args.bases.split(",")))
    return str(t), hopf.tensor_to_json(t)


def _cmd_coproduct(args):
    return _coproduct(hopf.coproduct_sum, hopf.counit, args)


def _cmd_coproduct_star(args):
    return _coproduct(hopf.coproduct_prod, hopf.counit_star, args)


def _cmd_antipode(args):
    return _sym_out(hopf.antipode(_elem(args.element)), args.basis)


def _cmd_cauchy(args):
    pair = tuple(args.pair.split(","))
    t = hopf.cauchy_kernel(args.n, pair)
    return str(t), hopf.tensor_to_json(t)


def _cmd_plethysm(args):
    out = hopf.plethysm(_elem(args.f), _elem(args.g), scale=args.scale)
    return _sym_out(out, args.basis)


def _cmd_rep(args):
    rep = _rep_from_spec(args.kind, args.arg)
    if args.at:
        m = rep.matrix(parse_permutation(args.at))
        return _fmt_matrix_text(m), {
            "n": rep.n,
            "dim": rep.dim,
            "matrix": _matrix_json(m),
        }
    gens = rep.generator_matrices()
    text_parts = [f"dim {rep.dim}"]
    for i in sorted(gens):
        text_parts.append(f"s{i}:\n{_fmt_matrix_text(gens[i])}")
    obj = {
        "n": rep.n,
        "dim": rep.dim,
        "generators": {f"s{i}": _matrix_json(m) for i, m in sorted(gens.items())},
    }
    return "\n".join(text_parts), obj


def _cmd_decompose(args):
    rep = _rep_from_spec(args.kind, args.arg)
    mults = matrixreps.decompose(rep)
    return _mults_text(mults), _mults_json(mults)


def _cmd_induce(args):
    comp = _parse_composition(args.composition)
    sub = matrixreps.SubgroupSpec.young(comp)
    base = (
        matrixreps.trivial_of(sub) if args.kind == "trivial"
        else matrixreps.sign_of(sub)
    )
    rep = matrixreps.induce(base, sub.n)
    if args.at:
        m = rep.matrix(parse_permutation(args.at))
        return _fmt_matrix_text(m), {"dim": rep.dim, "matrix": _matrix_json(m)}
    cf = matrixreps.character_of(rep)
    return (
        f"dim {rep.dim}\n" + _classfn_text(cf),
        {"dim": rep.dim, "character": _classfn_json(cf)},
    )


def _cmd_restrict(args):
    lam = parse_partition(args.lam)
    comp = _parse_composition(args.composition)
    if sum(comp) != sum(lam):
        raise ValueError("composition must sum to |lam|")
    chi = characters.character_row(lam)
    rows = [
        (w, size, chi[cycle_type(w)]) for w, size in matrixreps.young_classes(comp)
    ]
    text = "\n".join(
        f"{' '.join(str(i) for i in w)}\t{size}\t{v}" for w, size, v in rows
    )
    obj = [
        {"representative": list(w), "class_size": size, "value": v}
        for w, size, v in rows
    ]
    return text, obj


def _cmd_tensor(args):
    a = _rep_from_spec(args.kind1, args.arg1)
    b = _rep_from_spec(args.kind2, args.arg2)
    rep = matrixreps.direct_sum(a, b) if args.sum else matrixreps.tensor_product(a, b)
    cf = matrixreps.character_of(rep)
    mults = matrixreps.decompose(rep)
    text = f"dim {rep.dim}\n" + _classfn_text(cf) + "\n" + _mults_text(mults)
    return text, {
        "dim": rep.dim,
        "character": _classfn_json(cf),
        "decomposition": _mults_json(mults),
    }


def _cmd_ext2(args):
    rep = _rep_from_spec(args.kind, args.arg)
    cf = matrixreps.exterior_square_character(matrixreps.character_of(rep))
    return _classfn_text(cf), _classfn_json(cf)


def _cmd_gl_char(args):
    return _poly_out(matrixreps.gl_character(parse_partition(args.lam), args.nvars))


def _cmd_gl_dim(args):
    v = matrixreps.gl_dimension(parse_partition(args.lam), args.nvars)
    return str(v), v


def _cmd_schur_weyl(args):
    res = matrixreps.schur_weyl_check(args.n, args.m)
    return ("true" if res else "false"), res


# --- parser -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once on first use; main sets the defaults that
    come from the environment on every call."""
    top = argparse.ArgumentParser(
        prog="symfunc",
        description="Exact symmetric functions and S_n representations",
    )
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument(
        "--max-degree",
        type=int,
        default="0",
        help="raise every degree cap to this value",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = cmd("partitions", _cmd_partitions)
    p.add_argument("n", type=int)

    p = cmd("conjugate", _cmd_conjugate)
    p.add_argument("partition")

    p = cmd("dominates", _cmd_dominates)
    p.add_argument("lam")
    p.add_argument("mu")

    p = cmd("ztable", _cmd_ztable)
    p.add_argument("n", type=int)

    p = cmd("kostka", _cmd_kostka)
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("--tableaux", action="store_true",
                   help="list the semistandard tableaux and their weights")

    p = cmd("flambda", _cmd_flambda)
    p.add_argument("partition")

    p = cmd("rsk", _cmd_rsk)
    p.add_argument("word", nargs="+",
                   help="word letters, or two JSON tableaux with --inverse")
    p.add_argument("--inverse", action="store_true")

    p = cmd("convert", _cmd_convert)
    p.add_argument("element")
    p.add_argument("basis", choices=ring.BASES)

    p = cmd("multiply", _cmd_multiply)
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--basis", choices=ring.BASES, default=ring.P)

    p = cmd("inner", _cmd_inner)
    p.add_argument("f")
    p.add_argument("g")

    p = cmd("omega", _cmd_omega)
    p.add_argument("element")
    p.add_argument("--basis", choices=ring.BASES, default=ring.P)

    p = cmd("skew", _cmd_skew)
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("--basis", choices=ring.BASES, default=ring.S)

    p = cmd("perp", _cmd_perp)
    p.add_argument("mu")
    p.add_argument("element")
    p.add_argument("--basis", choices=ring.BASES, default=ring.S)

    p = cmd("evaluate", _cmd_evaluate)
    p.add_argument("element")
    p.add_argument("nvars", type=int)

    p = cmd("char", _cmd_char)
    p.add_argument("lam")
    p.add_argument("mu")

    p = cmd("chartable", _cmd_chartable)
    p.add_argument("n", type=int)

    p = cmd("ch", _cmd_ch)
    p.add_argument("n", type=int)
    p.add_argument("values", nargs="*", metavar="MU=VALUE")
    p.add_argument("--basis", choices=ring.BASES, default=ring.S)

    p = cmd("ch-inverse", _cmd_ch_inverse)
    p.add_argument("element")
    p.add_argument("n", type=int)

    p = cmd("lr", _cmd_lr)
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")

    p = cmd("kronecker", _cmd_kronecker)
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")

    p = cmd("kron-product", _cmd_kron_product)
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--basis", choices=ring.BASES, default=ring.P)

    p = cmd("youngs-rule", _cmd_youngs_rule)
    p.add_argument("mu")

    p = cmd("coproduct", _cmd_coproduct)
    p.add_argument("element")
    p.add_argument("--bases", default="p,p", help="target pair, e.g. s,s")
    p.add_argument("--counit", action="store_true")

    p = cmd("coproduct-star", _cmd_coproduct_star)
    p.add_argument("element")
    p.add_argument("--bases", default="p,p")
    p.add_argument("--counit", action="store_true")

    p = cmd("antipode", _cmd_antipode)
    p.add_argument("element")
    p.add_argument("--basis", choices=ring.BASES, default=ring.P)

    p = cmd("cauchy", _cmd_cauchy)
    p.add_argument("n", type=int)
    p.add_argument("pair", help="dual basis pair: s,s h,m m,h or p,p")

    p = cmd("plethysm", _cmd_plethysm)
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--basis", choices=ring.BASES, default=ring.P)

    p = cmd("rep", _cmd_rep)
    p.add_argument("kind")
    p.add_argument("arg")
    p.add_argument("--at", help="permutation word to evaluate at")

    p = cmd("decompose", _cmd_decompose)
    p.add_argument("kind")
    p.add_argument("arg")

    p = cmd("induce", _cmd_induce)
    p.add_argument("composition", help="Young subgroup composition, e.g. 2,1")
    p.add_argument("kind", choices=("trivial", "sign"))
    p.add_argument("--at", help="permutation word to evaluate at")

    p = cmd("restrict", _cmd_restrict)
    p.add_argument("lam")
    p.add_argument("composition")

    p = cmd("tensor", _cmd_tensor)
    p.add_argument("kind1")
    p.add_argument("arg1")
    p.add_argument("kind2")
    p.add_argument("arg2")
    p.add_argument("--sum", action="store_true", help="direct sum instead")

    p = cmd("ext2", _cmd_ext2)
    p.add_argument("kind")
    p.add_argument("arg")

    p = cmd("gl-char", _cmd_gl_char)
    p.add_argument("lam")
    p.add_argument("nvars", type=int)

    p = cmd("gl-dim", _cmd_gl_dim)
    p.add_argument("lam")
    p.add_argument("nvars", type=int)

    p = cmd("schur-weyl", _cmd_schur_weyl)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    parser.set_defaults(
        format=os.environ.get("SYMF_FORMAT", "text"),
        # a string default goes through type=int, so a bad value is a usage error
        max_degree=os.environ.get("SYMF_MAX_DEGREE", "0"),
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with limits.scoped(limits.current().raised(args.max_degree)):
            text, obj = args.handler(args)
    except (ValueError, InvariantViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(args, text, obj)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; send what is still buffered to devnull so
        # that the flush at interpreter exit stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
