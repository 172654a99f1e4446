"""Command-line front end.

Every computation is one subcommand with stable text output (default) or
JSON (--format json / SYMF_FORMAT=json). Exit codes: 0 success, 1 domain
error (one-line diagnostic on stderr), 2 usage error. The options
--format and --max-degree go before the subcommand.

The subcommands are one table, COMMANDS. A well-formed call is read
straight from it and builds no parser. argparse words usage errors and help
texts and reads unusual spellings (an abbreviated or "=" option, "--"); it
then builds the top-level parser and the subcommand's parser, each once per
process. A handler's result is rendered once, in the format asked for: it
comes back with its text and JSON renderers, and main calls only one, so a
JSON answer builds no text and a text answer no JSON object.

Partition syntax: "3,2,1" (descending) or "()" for the empty partition.
Permutation words: "2 3 1". Element literals: basis:coeff*partition+...,
e.g. s:1*2,1 or p:1/2*2+-1/2*1,1 (a bare partition means coefficient 1).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types

from . import characters, hopf, limits, matrixreps, ring, tableaux
from .errors import InvariantViolationError
from .partitions import (
    as_composition,
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


def _grid(rows, sep: str, left: int) -> str:
    """Rows of equally many cells as aligned lines: the first ``left``
    columns padded on the right, the others on the left, and each line
    stripped of trailing spaces."""
    widths = [max(map(len, col)) for col in zip(*rows)]
    return "\n".join(
        sep.join(
            x.ljust(w) if j < left else x.rjust(w)
            for j, (x, w) in enumerate(zip(r, widths))
        ).rstrip(" ")
        for r in rows
    )


def _fmt_matrix_text(m) -> str:
    return _grid(_matrix_json(m), " ", 0) or "(empty 0x0 matrix)"


def _matrix_json(m) -> list[list[str]]:
    return [[ring.format_coeff(x) for x in row] for row in m]


def _tableau_text(t) -> str:
    return "\n".join(" ".join(map(str, row)) for row in t.rows)


def _classfn_rows(cf: characters.ClassFunction):
    # classes from the identity 1^n upward, the character-table column order
    return zip(characters.table_columns(cf.n), reversed(cf.values))


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
    rows = [(format_partition(lam), str(m)) for lam, m in sorted(mults.items(), reverse=True)]
    return _grid(rows, "  ", 2) or "0"


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
    return as_composition(comp)  # never empty: text.split gives one part or more


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
    return ring.convert(f, basis), str, ring.sym_to_json


def _poly_json(poly: ring.PolynomialValue):
    return {
        "variables": poly.nvars,
        "terms": [
            {"exponents": list(k), "coeff": ring.format_coeff(c)}
            for k, c in sorted(poly.terms.items())
        ],
    }


def _itself(value):
    return value


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


# --- handlers -----------------------------------------------------------------
# Each returns (value, text, json): its result, and the two functions that
# render it as the text output and as the JSON object; main calls only one.


def _cmd_partitions(args):
    return (partitions_of(args.n), lambda parts: "\n".join(map(format_partition, parts)),
            lambda parts: list(map(list, parts)))


def _cmd_conjugate(args):
    return conjugate(parse_partition(args.partition)), format_partition, list


def _cmd_dominates(args):
    return dominates(parse_partition(args.lam), parse_partition(args.mu)), _bool_text, _itself


def _cmd_ztable(args):
    rows = [(p, z_value(p), count_of_type(p)) for p in partitions_of(args.n)]
    return rows, lambda rows: "\n".join(
        f"{format_partition(p)}\t{z}\t{c}" for p, z, c in rows
    ), lambda rows: [{"partition": list(p), "z": z, "count": c} for p, z, c in rows]


def _tableaux_text(tabs) -> str:
    text = "\n\n".join(
        _tableau_text(t) + f"\nweight: {ring.format_monomial(t.content()) or '1'}"
        for t in tabs
    )
    return f"{len(tabs)}\n{text}" if tabs else "0"


def _cmd_kostka(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    if args.tableaux:
        tabs = list(tableaux.enumerate_ssyt(lam, len(mu), mu))
        return tabs, _tableaux_text, lambda tabs: {
            "count": len(tabs), "tableaux": [t.to_lists() for t in tabs]}
    return tableaux.kostka(lam, mu), str, _itself


def _cmd_flambda(args):
    return tableaux.f_lambda(parse_partition(args.partition)), str, _itself


def _cmd_rsk(args):
    if args.inverse:
        if len(args.word) != 2:
            raise ValueError("rsk --inverse expects two JSON tableaux")
        p = _tableau_from_json(args.word[0])
        q = _tableau_from_json(args.word[1])
        return tableaux.rsk_inverse(p, q), lambda word: " ".join(map(str, word)), list
    letters = [int(x) for x in args.word]
    return tableaux.rsk(letters), lambda pq: "P:\n" + "\nQ:\n".join(map(_tableau_text, pq)), (
        lambda pq: {"P": pq[0].to_lists(), "Q": pq[1].to_lists()})


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
    return ring.hall_inner(_elem(args.f), _elem(args.g)), ring.format_coeff, ring.format_coeff


def _cmd_omega(args):
    return _sym_out(ring.omega(_elem(args.element)), args.basis)


def _cmd_skew(args):
    out = ring.skew_schur(parse_partition(args.lam), parse_partition(args.mu))
    return _sym_out(out, args.basis)


def _cmd_perp(args):
    out = ring.perp(parse_partition(args.mu), _elem(args.element))
    return _sym_out(out, args.basis)


def _cmd_evaluate(args):
    return ring.evaluate(_elem(args.element), args.nvars), str, _poly_json


def _cmd_char(args):
    return characters.character(parse_partition(args.lam), parse_partition(args.mu)), str, _itself


def _cmd_chartable(args):
    table = characters.character_table(args.n)
    rows = partitions_of(args.n)
    cols = characters.table_columns(args.n)
    return table, lambda table: _grid([("chi", *map(format_partition, cols))] + [
        (format_partition(lam), *map(str, row)) for lam, row in zip(rows, table)
    ], "  ", 1), lambda table: {
        "n": args.n,
        "rows": [list(r) for r in rows],
        "columns": [list(c) for c in cols],
        "table": table,
    }


def _cmd_ch(args):
    values = {}
    for pair in args.values:
        key, sep, val = pair.partition("=")
        if not sep:
            raise ValueError(f"class value must look like MU=VALUE: {pair!r}")
        mu = parse_partition(key)
        if mu in values:
            raise ValueError(f"class {format_partition(mu)} is given twice")
        values[mu] = ring.parse_coeff(val)
    cf = characters.class_function(args.n, values)
    return _sym_out(characters.frobenius_ch(cf), args.basis)


def _cmd_ch_inverse(args):
    cf = characters.frobenius_inverse(_elem(args.element), args.n)
    return cf, _classfn_text, _classfn_json


def _coefficient(fn, args):
    return fn(*(parse_partition(x) for x in (args.lam, args.mu, args.nu))), str, _itself


def _cmd_lr(args):
    return _coefficient(characters.littlewood_richardson, args)


def _cmd_kronecker(args):
    return _coefficient(characters.kronecker, args)


def _cmd_kron_product(args):
    out = characters.kronecker_product(_elem(args.f), _elem(args.g))
    return _sym_out(out, args.basis)


def _cmd_youngs_rule(args):
    return characters.youngs_rule(parse_partition(args.mu)), _mults_text, _mults_json


def _coproduct(coproduct, counit, args):
    f = _elem(args.element)
    if args.counit:
        return counit(f), ring.format_coeff, ring.format_coeff
    return hopf.tensor_convert(coproduct(f), tuple(args.bases.split(","))), str, hopf.tensor_to_json


def _cmd_coproduct(args):
    return _coproduct(hopf.coproduct_sum, hopf.counit, args)


def _cmd_coproduct_star(args):
    return _coproduct(hopf.coproduct_prod, hopf.counit_star, args)


def _cmd_antipode(args):
    return _sym_out(hopf.antipode(_elem(args.element)), args.basis)


def _cmd_cauchy(args):
    pair = tuple(args.pair.split(","))
    return hopf.cauchy_kernel(args.n, pair), str, hopf.tensor_to_json


def _cmd_plethysm(args):
    out = hopf.plethysm(_elem(args.f), _elem(args.g), scale=args.scale)
    return _sym_out(out, args.basis)


def _cmd_rep(args):
    rep = _rep_from_spec(args.kind, args.arg)
    if args.at is not None:
        return rep.matrix(parse_permutation(args.at)), _fmt_matrix_text, lambda m: {
            "n": rep.n,
            "dim": rep.dim,
            "matrix": _matrix_json(m),
        }
    return dict(sorted(rep.generator_matrices().items())), lambda gens: "\n".join(
        [f"dim {rep.dim}"] + [f"s{i}:\n{_fmt_matrix_text(m)}" for i, m in gens.items()]
    ), lambda gens: {
        "n": rep.n,
        "dim": rep.dim,
        "generators": {f"s{i}": _matrix_json(m) for i, m in gens.items()},
    }


def _cmd_decompose(args):
    return matrixreps.decompose(_rep_from_spec(args.kind, args.arg)), _mults_text, _mults_json


def _cmd_induce(args):
    comp = _parse_composition(args.composition)
    sub = matrixreps.SubgroupSpec.young(comp)
    base = (
        matrixreps.trivial_of(sub) if args.kind == "trivial"
        else matrixreps.sign_of(sub)
    )
    rep = matrixreps.induce(base, sub.n)
    if args.at is not None:
        return rep.matrix(parse_permutation(args.at)), _fmt_matrix_text, lambda m: {
            "dim": rep.dim, "matrix": _matrix_json(m)}
    return matrixreps.character_of(rep), lambda cf: f"dim {rep.dim}\n" + _classfn_text(cf), (
        lambda cf: {"dim": rep.dim, "character": _classfn_json(cf)})


def _cmd_restrict(args):
    lam = parse_partition(args.lam)
    comp = _parse_composition(args.composition)
    if sum(comp) != sum(lam):
        raise ValueError("composition must sum to |lam|")
    chi = characters.character_row(lam)
    rows = [
        (w, size, chi[cycle_type(w)]) for w, size in matrixreps.young_classes(comp)
    ]
    return rows, lambda rows: "\n".join(
        f"{' '.join(str(i) for i in w)}\t{size}\t{v}" for w, size, v in rows
    ), lambda rows: [
        {"representative": list(w), "class_size": size, "value": v}
        for w, size, v in rows
    ]


def _cmd_tensor(args):
    a = _rep_from_spec(args.kind1, args.arg1)
    b = _rep_from_spec(args.kind2, args.arg2)
    rep = matrixreps.direct_sum(a, b) if args.sum else matrixreps.tensor_product(a, b)
    traces = matrixreps._class_traces(rep)
    cf = characters.class_function(rep.n, traces)
    mults = matrixreps._multiplicities(rep.n, traces)
    return (cf, mults), lambda out: (
        f"dim {rep.dim}\n" + _classfn_text(out[0]) + "\n" + _mults_text(out[1])
    ), lambda out: {
        "dim": rep.dim,
        "character": _classfn_json(out[0]),
        "decomposition": _mults_json(out[1]),
    }


def _cmd_ext2(args):
    rep = _rep_from_spec(args.kind, args.arg)
    cf = matrixreps.exterior_square_character(matrixreps.character_of(rep))
    return cf, _classfn_text, _classfn_json


def _cmd_gl_char(args):
    return matrixreps.gl_character(parse_partition(args.lam), args.nvars), str, _poly_json


def _cmd_gl_dim(args):
    return matrixreps.gl_dimension(parse_partition(args.lam), args.nvars), str, _itself


def _cmd_schur_weyl(args):
    return matrixreps.schur_weyl_check(args.n, args.m), _bool_text, _itself


# --- commands -----------------------------------------------------------------

# name -> (handler, argument specs); a spec is a bare positional name or a
# (name or flag, add_argument keywords) pair, added in order
_INT = {"type": int}
_N = ("n", _INT)
_FLAG = {"action": "store_true"}
_AT = ("--at", {"help": "permutation word to evaluate at"})


def _basis(default):
    return ("--basis", {"choices": ring.BASES, "default": default})


COMMANDS = {
    "partitions": (_cmd_partitions, (_N,)),
    "conjugate": (_cmd_conjugate, ("partition",)),
    "dominates": (_cmd_dominates, ("lam", "mu")),
    "ztable": (_cmd_ztable, (_N,)),
    "kostka": (_cmd_kostka, ("lam", "mu", ("--tableaux", {
        **_FLAG, "help": "list the semistandard tableaux and their weights"}))),
    "flambda": (_cmd_flambda, ("partition",)),
    "rsk": (_cmd_rsk, (("word", {
        "nargs": "+", "help": "word letters, or two JSON tableaux with --inverse"}),
        ("--inverse", _FLAG))),
    "convert": (_cmd_convert, ("element", ("basis", {"choices": ring.BASES}))),
    "multiply": (_cmd_multiply, ("f", "g", _basis(ring.P))),
    "inner": (_cmd_inner, ("f", "g")),
    "omega": (_cmd_omega, ("element", _basis(ring.P))),
    "skew": (_cmd_skew, ("lam", "mu", _basis(ring.S))),
    "perp": (_cmd_perp, ("mu", "element", _basis(ring.S))),
    "evaluate": (_cmd_evaluate, ("element", ("nvars", _INT))),
    "char": (_cmd_char, ("lam", "mu")),
    "chartable": (_cmd_chartable, (_N,)),
    "ch": (_cmd_ch, (_N, ("values", {"nargs": "*", "metavar": "MU=VALUE"}),
                     _basis(ring.S))),
    "ch-inverse": (_cmd_ch_inverse, ("element", _N)),
    "lr": (_cmd_lr, ("lam", "mu", "nu")),
    "kronecker": (_cmd_kronecker, ("lam", "mu", "nu")),
    "kron-product": (_cmd_kron_product, ("f", "g", _basis(ring.P))),
    "youngs-rule": (_cmd_youngs_rule, ("mu",)),
    "coproduct": (_cmd_coproduct, ("element", ("--bases", {
        "default": "p,p", "help": "target pair, e.g. s,s"}), ("--counit", _FLAG))),
    "coproduct-star": (_cmd_coproduct_star, (
        "element", ("--bases", {"default": "p,p"}), ("--counit", _FLAG))),
    "antipode": (_cmd_antipode, ("element", _basis(ring.P))),
    "cauchy": (_cmd_cauchy, (_N, ("pair", {
        "help": "dual basis pair: s,s h,m m,h or p,p"}))),
    "plethysm": (_cmd_plethysm, ("f", "g", ("--scale", {"type": int, "default": 1}),
                                 _basis(ring.P))),
    "rep": (_cmd_rep, ("kind", "arg", _AT)),
    "decompose": (_cmd_decompose, ("kind", "arg")),
    "induce": (_cmd_induce, (("composition", {
        "help": "Young subgroup composition, e.g. 2,1"}),
        ("kind", {"choices": ("trivial", "sign")}), _AT)),
    "restrict": (_cmd_restrict, ("lam", "composition")),
    "tensor": (_cmd_tensor, ("kind1", "arg1", "kind2", "arg2", ("--sum", {
        **_FLAG, "help": "direct sum instead"}))),
    "ext2": (_cmd_ext2, ("kind", "arg")),
    "gl-char": (_cmd_gl_char, ("lam", ("nvars", _INT))),
    "gl-dim": (_cmd_gl_dim, ("lam", ("nvars", _INT))),
    "schur-weyl": (_cmd_schur_weyl, (_N, ("m", _INT))),
}


_TOP = {
    "--format": {"choices": ("text", "json")},
    "--max-degree": {"type": int, "help": "raise every degree cap to this value"},
}


def _spec(spec):
    return (spec, {}) if isinstance(spec, str) else spec


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_")


def _value(kwargs, token: str):
    """A token through its spec's type and choices; ValueError where argparse
    would not take it as that value."""
    value = kwargs.get("type", str)(token)
    if token.startswith("-") or value not in kwargs.get("choices", (value,)):
        raise ValueError(token)
    return value


def _read(argv: list):
    """The namespace argparse builds from a well-formed argv, read straight
    from _TOP and COMMANDS; None for anything else (help, an abbreviated or
    "=" option, "--", a dash-led value, a misplaced option, a wrong count or
    a bad value), which main hands to argparse."""
    ns = {"format": os.environ.get("SYMF_FORMAT", "text")}
    try:
        ns["max_degree"] = int(os.environ.get("SYMF_MAX_DEGREE", "0"))
        i = 0
        while argv[i] in _TOP:
            ns[_dest(argv[i])] = _value(_TOP[argv[i]], argv[i + 1])
            i += 2
        ns["command"] = argv[i:]
        specs = list(map(_spec, COMMANDS[argv[i]][1]))
        options = {name: kwargs for name, kwargs in specs if name.startswith("-")}
        positionals = [spec for spec in specs if spec[0] not in options]
        for name, kwargs in options.items():
            default = kwargs.get("default", False if "action" in kwargs else None)
            isstr = isinstance(default, str)  # argparse types a string default
            ns[_dest(name)] = kwargs.get("type", str)(default) if isstr else default
        nargs = positionals[-1][1].get("nargs")  # only the last can be variadic
        tokens, after = [], False
        rest = iter(argv[i + 1:])
        for token in rest:
            if token.startswith("-"):
                kwargs = options[token]
                ns[_dest(token)] = "action" in kwargs or _value(kwargs, next(rest))
                after = bool(tokens)
            elif after and nargs:  # argparse ends a list at an option
                return None
            else:
                tokens.append(token)
        k = len(positionals) - 1
        if nargs and len(tokens) >= k + (nargs == "+"):
            tokens[k:] = [tokens[k:]]
        if len(tokens) != len(positionals):
            return None
        for (name, kwargs), token in zip(positionals, tokens):
            ns[name] = ([_value(kwargs, t) for t in token] if "nargs" in kwargs
                        else _value(kwargs, token))
    except (IndexError, KeyError, StopIteration, ValueError):
        return None
    return types.SimpleNamespace(**ns)


@functools.cache
def _parser(command: str | None = None):
    """The top parser (no command) or one command's parser, each built once
    on first use; _parse sets the defaults that come from the environment on
    every call."""
    import argparse

    if command is not None:
        class _OneToken(argparse.Action):
            """A positional that takes one token. Python 3.11's argparse hands
            it [] when that token is a literal "--" after the "--" separator."""

            def __call__(self, parser, namespace, values, option_string=None):
                if values == []:
                    raise argparse.ArgumentError(self, "expected one argument")
                setattr(namespace, self.dest, values)

        p = argparse.ArgumentParser(prog=f"symfunc {command}")
        for name, kwargs in map(_spec, COMMANDS[command][1]):
            if not name.startswith("-") and "nargs" not in kwargs:
                kwargs = {"action": _OneToken, **kwargs}
            p.add_argument(name, **kwargs)
        return p
    top = argparse.ArgumentParser(
        prog="symfunc",
        description="Exact symmetric functions and S_n representations",
    )
    for name, kwargs in _TOP.items():
        top.add_argument(name, **kwargs)
    # the command name and every token after it, as a subparsers action takes them
    top.add_argument("command", nargs=argparse.PARSER, choices=COMMANDS)
    return top


def _parse(argv: list):
    """The namespace argparse builds from argv; where there is none, argparse
    prints the usage error or help text and raises SystemExit."""
    top = _parser()
    top.set_defaults(
        format=os.environ.get("SYMF_FORMAT", "text"),
        # a string default goes through type=int, so a bad value is a usage error
        max_degree=os.environ.get("SYMF_MAX_DEGREE", "0"),
    )
    args, extras = top.parse_known_args(argv)
    name, *rest = args.command
    args, more = _parser(name).parse_known_args(rest, args)
    if extras or more:
        top.error(f"unrecognized arguments: {' '.join(extras + more)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        try:
            args = _parse(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        with limits.scoped(limits.current().raised(args.max_degree)):
            value, text, obj = COMMANDS[args.command[0]][0](args)
            out = obj(value) if args.format == "json" else text(value)
    except (ValueError, InvariantViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(out) if args.format == "json" else out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the pipe's reader closed early; send what is still buffered to
        # devnull so that the flush at interpreter exit stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
