import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from symfunc import matrixreps, ring
from symfunc import cli
from symfunc.cli import COMMANDS, main
from symfunc.partitions import partitions_of

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


def test_kostka_fixture(capsys):
    code, out, err = run(capsys, "kostka", "3,2", "2,2,1")
    assert code == 0 and out == "2\n" and err == ""


@pytest.mark.parametrize("lam, n, count", [("5,4,3,2,1", 15, "292864"),
                                           ("6,5,4,3,2", 20, "141892608")])
def test_kostka_of_a_standard_content_past_ssyt_counting(capsys, lam, n, count):
    code, out, err = run(capsys, "kostka", lam, ",".join(["1"] * n))
    assert (code, out, err) == (0, count + "\n", "")


def test_kostka_tableaux_with_no_tableau_prints_only_the_count(capsys):
    code, out, err = run(capsys, "kostka", "--tableaux", "3", "1,1")
    assert code == 0 and out == "0\n" and err == ""
    code, out, err = run(capsys, "--format", "json", "kostka", "--tableaux", "3", "1,1")
    assert code == 0 and json.loads(out) == {"count": 0, "tableaux": []} and err == ""


def test_golden_files_byte_identical_across_runs(capsys):
    for argv, fname in [
        (("chartable", "5"), "chartable5.txt"),
        (("youngs-rule", "3,2,1"), "youngs_rule_321.txt"),
        (("kostka", "3,2", "2,2,1"), "kostka_32_221.txt"),
    ]:
        outs = []
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            outs.append(out.encode())
        assert outs[0] == outs[1] == golden(fname)


def test_json_output_deterministic(capsys):
    code, out1, _ = run(capsys, "--format", "json", "chartable", "5")
    code2, out2, _ = run(capsys, "--format", "json", "chartable", "5")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.encode() == golden("chartable5.json")
    obj = json.loads(out1)
    assert obj["table"][0] == [1] * 7


# mixed signs and denominators, one degree-8 term per shape family
CONVERT_D8 = "s:3/7*4,2,1,1+-5/2*3,3,2+2*8+-1/3*2,2,2,1,1+9/11*1,1,1,1,1,1,1,1+-4*5,3"


# the same shape families at degree 16, expanded in p
CONVERT_D16 = ("s:3/7*6,4,3,2,1+-5/2*4,4,3,3,2+2*16+-1/3*2,2,2,2,2,2,1,1,1,1"
               "+9/11*1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1+-4*9,7")


@pytest.mark.parametrize("basis", ["m", "e", "h", "p", "s"])
def test_convert_golden_byte_identical(capsys, basis):
    code, out, err = run(capsys, "--format", "json", "convert", CONVERT_D8, basis)
    assert code == 0 and err == ""
    assert out.encode() == golden(f"convert_d8_{basis}.json")


@pytest.mark.parametrize("argv, fname", [
    (("--format", "json", "rep", "specht", "3,2"), "rep_specht_32.json"),
    (("rep", "specht", "2,2,1", "--at", "3 1 5 2 4"), "rep_specht_221_at.txt"),
])
def test_specht_golden_byte_identical(capsys, argv, fname):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == golden(fname)


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("argv, stem", [
    (("decompose", "young", "2,2,1"), "decompose_young_221"),
    (("decompose", "regular", "5"), "decompose_regular_5"),
    (("induce", "2,1,2", "sign"), "induce_212_sign"),
    (("induce", "4,2", "trivial"), "induce_42_trivial"),
    (("induce", "2,2,1", "sign", "--at", "2 3 1 5 4"), "induce_221_sign_at"),
    (("tensor", "specht", "3,1,1", "specht", "2,2,1"), "tensor_specht_311_specht_221"),
    (("tensor", "young", "3,2", "defining", "5", "--sum"),
     "tensor_young_32_defining_5_sum"),
    (("ext2", "young", "3,2"), "ext2_young_32"),
    (("skew", "6,4,3,1", "3,1"), "skew_6431_31"),
    (("perp", "2,1", "h:3/2*4,2+-2*3,3,1+1/3*2,1+5*1+7*3"), "perp_21_h_mixed"),
    (("perp", "3,1", "p:3/2*4,2+-2*3,3,1+1/3*2,2+5*1+7*3,2,1,1", "--basis", "m"),
     "perp_31_p_mixed_m"),
    (("lr", "5,4,2,1", "3,2,1", "3,2,1"), "lr_5421_321_321"),
    (("coproduct", "h:2,1+-1/2*3,2+2/3*1", "--bases", "s,s"), "coproduct_h_mixed_ss"),
    (("cauchy", "6", "s,s"), "cauchy_6_ss"),
    (("coproduct-star", "e:2,1+-1/2*3,1+2/3*2+3*()+5/7*2,2,1", "--bases", "e,m"),
     "coproduct_star_e_mixed_em"),
    (("coproduct", "p:3/2*2,1+-2*3+1/5*1,1+4*()+-7/3*3,2,1", "--bases", "m,e"),
     "coproduct_p_mixed_me"),
    (("cauchy", "6", "h,m"), "cauchy_6_hm"),
    (("--max-degree", "12", "chartable", "12"), "chartable12"),
    (("convert", CONVERT_D16, "p"), "convert_d16_p"),
    (("kostka", "--tableaux", "3,2", "2,2,1"), "kostka_tableaux_32_221"),
    (("rsk", "3", "1", "2", "2"), "rsk_3122"),
    (("rep", "standard", "4"), "rep_standard_4"),
    (("gl-char", "3,1", "3"), "gl_char_31_3"),
])
def test_character_golden_byte_identical(capsys, argv, stem, fmt):
    code, out, err = run(capsys, *(("--format", "json") if fmt == "json" else ()), *argv)
    assert code == 0 and err == ""
    assert out.encode() == golden(f"{stem}.{fmt}")


def test_flambda_of_a_large_staircase(capsys):
    code, out, err = run(capsys, "flambda", "8,7,6,5,4,3,2,1")
    assert code == 0 and err == ""
    assert out == "29258366996258488320\n"


def test_format_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SYMF_FORMAT", "json")
    code, out, _ = run(capsys, "kostka", "3,2", "2,2,1")
    assert code == 0
    assert json.loads(out) == 2


def test_env_defaults_are_read_on_every_call(capsys, monkeypatch):
    # the parser is built once; the environment is read on every call
    monkeypatch.setenv("SYMF_FORMAT", "json")
    code, out, _ = run(capsys, "conjugate", "3,1")
    assert code == 0 and json.loads(out) == [2, 1, 1]
    monkeypatch.setenv("SYMF_FORMAT", "text")
    code, out, _ = run(capsys, "conjugate", "3,1")
    assert code == 0 and out == "2,1,1\n"


def test_usage_error_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "kostka")[0] == 2
    assert run(capsys)[0] == 2


def test_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "dominates", "2,1", "3,1")
    assert code == 1 and out == "" and "equal size" in err
    code, out, err = run(capsys, "conjugate", "1,2")
    assert code == 1 and "weakly decreasing" in err
    code, out, err = run(capsys, "chartable", "99")
    assert code == 1 and "capped" in err
    # The counits read their input's own terms, but keep the ring cap that
    # a map to power sums applies, so they stop on it.
    for command in ("coproduct", "coproduct-star"):
        code, out, err = run(capsys, command, "s:21", "--counit")
        assert (code, out) == (1, "")
        assert err == ("error: transition tables are capped at n <= 20, got 21; "
                       "raise the cap with --max-degree or symfunc.limits\n")


def test_cauchy_at_the_ring_cap_is_the_diagonal_and_above_it_exits_1(capsys):
    """At the default cap, the degree-20 kernel is its p(20) = 627 diagonal
    unit terms; one degree above it, every dual pair stops on the cap."""
    code, out, err = run(capsys, "--format", "json", "cauchy", "20", "h,m")
    assert (code, err) == (0, "")
    terms = json.loads(out)
    assert len(terms) == 627
    assert all(t["left"] == t["right"] and t["coeff"] == "1" for t in terms)
    assert [tuple(t["left"]) for t in terms] == sorted(partitions_of(20))
    for pair in ("s,s", "p,p"):
        assert run(capsys, "cauchy", "21", pair) == (1, "", (
            "error: transition tables are capped at n <= 20, got 21; "
            "raise the cap with --max-degree or symfunc.limits\n"))


def test_an_exponent_sign_in_a_coefficient_splits_no_term(capsys):
    assert run(capsys, "convert", "s:1e+2*2", "m") == (0, "100*m[2] + 100*m[1,1]\n", "")


# a well-formed call of every subcommand and of every option but rsk --inverse
SMOKE_ARGV = [
    ("partitions", "4"),
    ("conjugate", "3,2,2"),
    ("dominates", "3,1", "2,2"),
    ("ztable", "4"),
    ("kostka", "3,2", "2,2,1"),
    ("kostka", "3,2", "2,2,1", "--tableaux"),
    ("flambda", "2,1"),
    ("rsk", "3", "1", "2", "2"),
    ("convert", "s:1*2,1", "m"),
    ("multiply", "h:2", "h:1", "--basis", "s"),
    ("inner", "s:2,1", "s:2,1"),
    ("omega", "e:4", "--basis", "h"),
    ("skew", "2,1", "1"),
    ("perp", "1", "s:2,1"),
    ("evaluate", "e:2", "3"),
    ("char", "2,1", "2,1"),
    ("chartable", "3"),
    ("ch", "3", "3=1", "2,1=1", "1,1,1=1"),
    ("ch-inverse", "s:2,1", "3"),
    ("lr", "2,1", "1,1", "1"),
    ("kronecker", "2,1", "2,1", "2,1"),
    ("kron-product", "s:2,1", "s:2,1", "--basis", "s"),
    ("youngs-rule", "3,2,1"),
    ("coproduct", "h:3", "--bases", "h,h"),
    ("coproduct", "p:2", "--counit"),
    ("coproduct-star", "e:3", "--bases", "s,s"),
    ("coproduct-star", "h:3", "--counit"),
    ("antipode", "h:3", "--basis", "e"),
    ("cauchy", "3", "s,s"),
    ("plethysm", "p:2", "p:3"),
    ("plethysm", "p:2", "p:1", "--scale", "2"),
    ("rep", "defining", "3"),
    ("rep", "specht", "2,1", "--at", "2 1 3"),
    ("decompose", "young", "2,2"),
    ("induce", "2,1", "trivial"),
    ("induce", "2,1", "trivial", "--at", "2 1 3"),
    ("restrict", "2,1", "2,1"),
    ("tensor", "specht", "2,1", "specht", "2,1"),
    ("tensor", "trivial", "3", "standard", "3", "--sum"),
    ("ext2", "defining", "3"),
    ("gl-char", "2", "2"),
    ("gl-dim", "2", "2"),
    ("schur-weyl", "4", "3"),
]


def test_every_subcommand_smoke(capsys):
    invocations = SMOKE_ARGV
    for argv in invocations:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out
        code2, out2, _ = run(capsys, *argv)
        assert code2 == 0 and out2 == out  # deterministic text
        code_json, out_json, err_json = run(capsys, "--format", "json", *argv)
        assert code_json == 0, (argv, err_json)
        json.loads(out_json)
        code_json2, out_json2, _ = run(capsys, "--format", "json", *argv)
        assert code_json2 == 0 and out_json2 == out_json  # deterministic JSON


def test_each_format_is_rendered_alone(capsys, monkeypatch):
    """main renders only the format asked for: under --format json no text
    renderer runs, and under text no JSON object is built; each answer is
    the one printed with every renderer in place."""
    from symfunc import hopf

    want = {(fmt, argv): run(capsys, *fmt, *argv) for fmt in ((), ("--format", "json"))
            for argv in SMOKE_ARGV}

    def unused(*args, **kwargs):
        raise AssertionError("rendered a format that was not asked for")

    text_renderers = [(ring.SymElement, "__str__"), (ring.PolynomialValue, "__str__"),
                      (hopf.TensorElement, "__str__"), (cli, "_grid"), (cli, "_fmt_matrix_text"),
                      (cli, "_classfn_text"), (cli, "_mults_text"), (cli, "_tableau_text")]
    json_renderers = [(ring, "sym_to_json"), (hopf, "tensor_to_json"), (cli, "_poly_json"),
                      (cli, "_classfn_json"), (cli, "_mults_json")]
    for fmt, renderers in ((("--format", "json"), text_renderers), ((), json_renderers)):
        with monkeypatch.context() as patch:
            for owner, name in renderers:
                patch.setattr(owner, name, unused)
            for argv in SMOKE_ARGV:
                assert run(capsys, *fmt, *argv) == want[fmt, argv], (fmt, argv)


def test_readme_lists_every_subcommand():
    """The README's ``Subcommands:`` list names exactly the command table's
    subcommands, in the table's order."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    listed = re.search(r"Subcommands: `([^`]*)`", readme).group(1).split()
    assert listed == list(COMMANDS)


def _readme_block(heading):
    """The lines of the first code block under ``heading`` in the README,
    each split into (code, comment)."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = re.search(heading + r"\n.*?```[a-z]*\n(.*?)```", readme, re.S).group(1)
    return [tuple(part.strip() for part in line.partition("#")[::2])
            for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run_and_print_their_stated_values(capsys):
    """Every ``symfunc`` line of the README's CLI block exits 0, and a line
    whose comment is a value prints exactly that value."""
    valued = {
        "kostka 3,2 2,2,1": "2",
        "convert s:1*2,1 m": "m[2,1] + 2*m[1,1,1]",
        "plethysm p:2 p:3": "p[6]",
        "schur-weyl 4 3": "true",
    }
    seen = set()
    for code, comment in _readme_block("## CLI"):
        prog, *argv = shlex.split(code)
        assert prog == "symfunc"
        status, out, err = run(capsys, *argv)
        assert status == 0, (code, err)
        key = " ".join(argv)
        if key in valued:
            seen.add(key)
            assert comment.removeprefix("-> ") == valued[key] == out.strip(), code
    assert seen == set(valued)


def test_readme_quick_tour_runs_and_prints_its_stated_values():
    """Every line of the README's library quick tour runs, and the four
    lines whose comment is a value evaluate to exactly that value."""
    valued = {
        "convert": "m[2,1] + 2*m[1,1,1]",
        "kostka": "2",
        "littlewood_richardson": "1",
        "plethysm": "p[6]",
    }
    namespace = {}
    seen = set()
    for code, comment in _readme_block("## Library quick tour"):
        if code.startswith(("from ", "import ")):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        name = code.partition("(")[0]
        if name in valued:
            seen.add(name)
            assert comment == valued[name] == str(value), code
    assert seen == set(valued)


def count_parsers(monkeypatch):
    """The prog of every ArgumentParser built from now on, with the parser
    cache emptied first."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    return built


def test_a_well_formed_call_builds_no_parser(capsys, monkeypatch):
    """Well-formed calls of every subcommand are read straight from COMMANDS:
    no parser is built, and in a fresh interpreter argparse, gettext and
    locale stay unloaded."""
    calls = [*SMOKE_ARGV, ("rsk", "--inverse", "[[1]]", "[[1]]"),
             ("--format", "json", "--max-degree", "9", "flambda", "3,1")]
    assert {argv[0] for argv in calls[:-1]} == set(COMMANDS)
    built = count_parsers(monkeypatch)
    try:
        for argv in calls:
            assert run(capsys, *argv)[0] == 0, argv
    finally:
        cli._parser.cache_clear()
    assert built == []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys; from symfunc import cli; assert cli.main(['flambda', '3,1']) == 0; "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3\n[]\n", "")


@pytest.mark.parametrize("argv, out", [
    (("--max-deg", "9", "flambda", "3,1"), "3\n"),
    (("flambda", "-h"), "usage: symfunc flambda "),
], ids=["abbreviation", "help"])
def test_a_declined_call_builds_only_its_own_parser(capsys, monkeypatch, argv, out):
    """argparse takes what the reader declines, and builds the top parser and
    the parser of the command it runs, none of the others."""
    built = count_parsers(monkeypatch)
    try:
        code, stdout, err = run(capsys, *argv)
    finally:
        cli._parser.cache_clear()
    assert code == 0 and stdout.startswith(out) and err == ""
    assert built == ["symfunc", "symfunc flambda"]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_has_help(capsys, command):
    code, out, err = run(capsys, command, "-h")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: symfunc {command} ")


def test_max_degree_flag_raises_caps(capsys):
    code, _, err = run(capsys, "chartable", "9")
    assert code == 1 and "capped" in err
    code, out, _ = run(capsys, "--max-degree", "9", "chartable", "9")
    assert code == 0 and out.splitlines()[1].split()[0] == "9"


def test_max_degree_flag_raises_rep_caps(capsys):
    code, _, err = run(capsys, "rep", "specht", "3,2,1")
    assert code == 1 and "capped" in err
    code, out, _ = run(capsys, "--max-degree", "6", "--format", "json",
                       "rep", "specht", "3,2,1")
    assert code == 0 and json.loads(out)["dim"] == 16


@pytest.mark.parametrize("raise_argv, probe_argv", [
    (("--max-degree", "10", "chartable", "9"), ("chartable", "10")),
    (("--max-degree", "10", "rep", "specht", "3,2,1"), ("rep", "specht", "3,2,1")),
    (("--max-degree", "25", "chartable", "3"), ("convert", "s:21", "p")),
])
def test_max_degree_ends_with_its_call(capsys, raise_argv, probe_argv):
    """A raised cap holds for its own call only; the next call in the same
    process sees the default caps again."""
    code, _, err = run(capsys, *raise_argv)
    assert code == 0, err
    code, out, err = run(capsys, *probe_argv)
    assert code == 1 and out == "" and "capped" in err


def test_max_degree_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SYMF_MAX_DEGREE", "9")
    code, out, _ = run(capsys, "chartable", "9")
    assert code == 0


def test_bad_max_degree_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SYMF_MAX_DEGREE", "abc")
    code, out, err = run(capsys, "kostka", "2,1", "1,1,1")
    assert code == 2 and out == ""
    assert err.startswith("usage:") and "invalid int value: 'abc'" in err


# argv, extra environment and golden key of each pinned usage error or help text
USAGE_CASES = [
    ((), {}, "no_arguments"),
    (("no-such-command",), {}, "no_such_command"),
    (("kostka",), {}, "kostka_no_arguments"),
    (("rsk",), {}, "rsk_no_arguments"),
    (("--format",), {}, "format_no_value"),
    (("--format", "x", "kostka", "1", "1"), {}, "format_invalid"),
    (("convert", "s:1", "h", "--format", "json"), {}, "convert_trailing_option"),
    (("rep", "young", "2", "--at"), {}, "rep_at_no_value"),
    (("kostka", "2,1", "1,1,1"), {"SYMF_MAX_DEGREE": "abc"}, "bad_max_degree_env"),
    (("-h",), {}, "help"),
    (("kostka", "-h"), {}, "kostka_help"),
    (("convert", "-h"), {}, "convert_help"),
]


@pytest.mark.parametrize("argv, env, key", USAGE_CASES)
def test_usage_errors_and_help_byte_identical(capsys, monkeypatch, argv, env, key):
    """Exit code, stdout and stderr of usage errors and help texts, byte for
    byte, at a fixed help width of 80 columns."""
    with open(os.path.join(GOLDEN, "usage_and_help.json")) as fh:
        expected = json.load(fh)[key]
    monkeypatch.setenv("COLUMNS", "80")
    for var in ("SYMF_FORMAT", "SYMF_MAX_DEGREE"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, out, err = run(capsys, *argv)
    assert {"code": code, "stdout": out, "stderr": err} == expected


@pytest.mark.parametrize("argv", [
    ("convert", "s:1/0*2", "m"),
    ("ch", "3", "3=1/0"),
    ("rsk", "--inverse", "5", "5"),
    ("rsk", "--inverse", "[1]", "[1]"),
    ("rsk", "--inverse", "[[1,null]]", "[[1,2]]"),
    ("rsk", "--inverse", "{}", "{}"),
    ("rsk", "--inverse", "[[1],[2,3]]", "[[1],[2,3]]"),
    ("gl-dim", "2,1", "-1"),
    ("gl-dim", "()", "-1"),
    ("gl-char", "2,1", "-1"),
    ("coproduct", "s:1", "--bases", "s"),
    ("coproduct", "s:1", "--bases", "s,s,s"),
    ("coproduct-star", "s:1", "--bases", "s"),
    ("ch", "2", "2=1", "2=3"),
    ("ch", "3", "2,1=1", "3=1", "2,1=1"),
    ("induce", "2,x", "trivial"),
    ("induce", "2,0", "trivial"),
    ("restrict", "3,1", "2,1"),
    ("rsk", "--inverse", "[[1]]"),
    ("ch", "3", "2"),
    ("plethysm", "--scale", "0", "p:1", "p:1"),
    ("cauchy", "-1", "s,s"),
    ("rep", "specht", "2,1", "--at", ""),
    ("induce", "2,1", "trivial", "--at", ""),
])
def test_malformed_input_is_a_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, err", [
    (("induce", "2,x", "trivial"), "error: malformed composition '2,x'\n"),
    (("induce", "0,2", "sign"), "error: composition parts must be positive integers\n"),
    (("restrict", "3", "2,0"), "error: composition parts must be positive integers\n"),
    (("restrict", "3", ""), "error: malformed composition ''\n"),
])
def test_bad_composition_keeps_its_wording(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("argv, err", [
    (("schur-weyl", "4", "-1"), "error: n and m must be >= 0\n"),
    (("schur-weyl", "-1", "3"), "error: n and m must be >= 0\n"),
    (("schur-weyl", "7", "1"), "error: the Schur-Weyl check is supported for n, m <= 6\n"),
])
def test_schur_weyl_out_of_range_says_which_bound(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


def test_empty_at_word_is_the_identity_of_s0(capsys):
    """--at '' is the empty word, not an absent --at."""
    assert run(capsys, "rep", "young", "()", "--at", "") == (0, "1\n", "")


# every int stays <= 4, so no draw reaches an uncapped large input
FUZZ_TOKENS = [*map(str, range(5)), "()", "2,1", "s:1", *ring.BASES, "--at", "--basis",
               "-h", "--", "", "x", "-1", "1/0", "2=1", "[[1]]", "young", "sign",
               "2 1 3", "s:2,1", "h:1/2*1+1,1", "1,2", "0,2", "2,x"]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(COMMANDS)), st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5))
@example("kostka", ["--", "1", "--"])  # a literal "--" after the separator
def test_fuzzed_argv_exits_cleanly(command, tokens):
    """Any argv exits 0, 1 or 2 and never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *tokens])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


OPTION_SPELLINGS = sorted({spec[0] for _, specs in COMMANDS.values() for spec in specs
                           if isinstance(spec, tuple) and spec[0].startswith("-")})
READER_TOKENS = [*FUZZ_TOKENS, *OPTION_SPELLINGS, "--format", "json", "text",
                 "--max-degree", "9", "--format=json", "--max-deg"]
WORDS = [t for t in READER_TOKENS if not t.startswith("-")]
DASHED = [t for t in READER_TOKENS if t.startswith("-")]


@st.composite
def reader_argv(draw):
    """Tokens of READER_TOKENS around a command: up to two leading option-value
    pairs; after it, mostly as many words as it has positionals, and up to
    two dashed tokens, mostly its own options, each maybe with a word after
    it, in any order."""
    command = draw(st.sampled_from(list(COMMANDS)))
    specs = list(map(cli._spec, COMMANDS[command][1]))
    own = [name for name, _ in specs if name.startswith("-")]
    arity = len(specs) - len(own)
    count = draw(st.sampled_from([arity, arity, max(arity - 1, 0), arity + 1]))
    units = [(w,) for w in draw(st.lists(st.sampled_from(WORDS), min_size=count, max_size=count))]
    dashed = st.sampled_from(own) | st.sampled_from(DASHED) if own else st.sampled_from(DASHED)
    units += [(d, *v) for d, v in draw(st.lists(st.tuples(
        dashed, st.lists(st.sampled_from(WORDS), max_size=1)), max_size=2))]
    lead = draw(st.lists(st.tuples(st.sampled_from(["--format", "--max-degree", "--max-deg"]),
                                   st.sampled_from(["json", "text", "9", "x"])), max_size=2))
    return [*(t for pair in lead for t in pair), command,
            *(t for unit in draw(st.permutations(units)) for t in unit)]


@settings(max_examples=500, deadline=None)
@given(reader_argv(), st.sampled_from([None, "json", "xml"]),
       st.sampled_from([None, "9", "abc"]))
@example(["ch", "3", "--basis", "s"], None, None)  # an empty list before an option
@example(["rsk", "1", "--inverse", "2"], None, None)  # a list cut by an option
@example(["--max-degree", "9", "flambda", "2,1"], None, "abc")
@example(["rep", "young", "2", "--at", "-h"], None, None)  # a dashed value is an option
def test_the_reader_agrees_with_argparse(argv, fmt, max_degree):
    """Where the reader takes an argv, argparse builds the same namespace;
    where argparse exits, the reader has declined. Both read SYMF_FORMAT and
    SYMF_MAX_DEGREE unset, valid and invalid."""
    with mock.patch.dict(os.environ):
        for var, value in (("SYMF_FORMAT", fmt), ("SYMF_MAX_DEGREE", max_degree)):
            os.environ.pop(var, None)
            if value is not None:
                os.environ[var] = value
        read = cli._read(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = cli._parse(argv)
            except SystemExit:
                parsed = None
    if read is not None:
        assert parsed is not None and vars(parsed) == vars(read), argv


def test_restrict_above_the_cap_exits_before_enumerating(capsys, monkeypatch):
    """restrict reads the capped character row first and never lists the
    Young subgroup's 13! elements."""
    def no_subgroup(comp):
        pytest.fail(f"SubgroupSpec.young({comp}) was built above the cap")

    monkeypatch.setattr(matrixreps.SubgroupSpec, "young", staticmethod(no_subgroup))
    code, out, err = run(capsys, "restrict", "13", "13")
    assert code == 1 and out == "" and "capped" in err


def test_restrict_reads_young_classes_in_closed_form(capsys, monkeypatch):
    """restrict 9 9 lists none of the 9! elements of S_9: it prints one row
    per cycle type, and the class sizes sum to the group order."""
    def no_subgroup(comp):
        pytest.fail(f"SubgroupSpec.young({comp}) was built")

    monkeypatch.setattr(matrixreps.SubgroupSpec, "young", staticmethod(no_subgroup))
    code, out, err = run(capsys, "restrict", "9", "9")
    assert code == 0 and err == ""
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 30 and all(v == "1" for _, _, v in rows)
    assert sum(int(size) for _, size, _ in rows) == 362880
    assert rows[0] == ["1 2 3 4 5 6 7 8 9", "1", "1"]


@pytest.mark.parametrize("comp, kind, dim, values", [
    ("9", "trivial", 1, {1}),
    ("1,1,1,1,1,1,1,1,1", "sign", 362880, {0, 362880}),
])
def test_induce_reads_young_classes_in_closed_form(capsys, monkeypatch, comp, kind, dim, values):
    """induce from a Young subgroup of S_9 lists no word of S_9 and no
    element of the subgroup: the character is the inner rule times the h
    row of its blocks."""
    def no_words(n):
        pytest.fail(f"the words of S_{n} were listed")

    monkeypatch.setattr(matrixreps, "all_permutations", no_words)
    monkeypatch.setattr(matrixreps, "_perms", no_words)
    code, out, err = run(capsys, "induce", comp, kind)
    assert code == 0 and err == ""
    head, *rows = out.splitlines()
    assert head == f"dim {dim}" and len(rows) == 30
    assert {int(row.split("\t")[1]) for row in rows} == values
    assert rows[0] == f"1,1,1,1,1,1,1,1,1\t{dim}"


def test_tensor_traces_each_class_once(capsys, monkeypatch):
    """tensor prints the character and the decomposition from one set of
    class traces: 7 classes of S_5, each read once from the class rule of
    the product and of both factors, at its cycle type."""
    calls = []
    real = matrixreps.MatrixRep.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        rule = self._trace_fn
        self._trace_fn = lambda rho: calls.append((self.label, rho)) or rule(rho)

    monkeypatch.setattr(matrixreps.MatrixRep, "__init__", counting)
    code, out, err = run(capsys, "tensor", "specht", "3,1,1", "specht", "2,2,1")
    assert code == 0 and err == ""
    assert len(calls) == len(set(calls)) == 21


def test_chartable_below_range_names_it(capsys):
    code, out, err = run(capsys, "chartable", "0")
    assert code == 1 and out == ""
    assert "at least 1" in err and "capped" not in err


def test_ch_of_trivial_character_is_h(capsys):
    code, out, _ = run(capsys, "ch", "3", "3=1", "2,1=1", "1,1,1=1", "--basis", "h")
    assert code == 0 and out.strip() == "h[3]"


def test_rsk_inverse_roundtrip(capsys):
    code, out, _ = run(capsys, "--format", "json", "rsk", "3", "1", "2", "2")
    obj = json.loads(out)
    code, out, _ = run(
        capsys, "rsk", "--inverse", json.dumps(obj["P"]), json.dumps(obj["Q"])
    )
    assert code == 0 and out.strip() == "3 1 2 2"


def test_induced_matrix_via_cli_is_valid_permutation_matrix(capsys):
    code, out, _ = run(capsys, "--format", "json", "induce", "2,1", "trivial",
                       "--at", "2 1 3")
    obj = json.loads(out)
    m = obj["matrix"]
    assert sorted(sum(1 for x in row if x == "1") for row in m) == [1, 1, 1]


def test_closed_reader_gets_no_traceback():
    """A reader that stops early, as ``| head -c 10`` does, sees exit 1 and
    an empty stderr. The output (about 290 kB) overfills the pipe, so the
    writer is still writing when the reader closes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "symfunc.cli", "--format", "json", "rep", "regular", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{"n": 5, "'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
