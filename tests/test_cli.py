import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from symfunc import matrixreps
from symfunc.cli import _build_parser, main

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


def test_every_subcommand_smoke(capsys):
    invocations = [
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


def test_readme_lists_every_subcommand():
    """The README's ``Subcommands:`` list names exactly the parser's
    subcommands, in the parser's order."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    listed = re.search(r"Subcommands: `([^`]*)`", readme).group(1).split()
    (action,) = [a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(action.choices)


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


@pytest.mark.parametrize("argv", [
    ("convert", "s:1/0*2", "m"),
    ("ch", "3", "3=1/0"),
    ("rsk", "--inverse", "5", "5"),
    ("rsk", "--inverse", "[1]", "[1]"),
    ("rsk", "--inverse", "[[1,null]]", "[[1,2]]"),
    ("rsk", "--inverse", "{}", "{}"),
    ("rsk", "--inverse", "[[1],[2,3]]", "[[1],[2,3]]"),
])
def test_malformed_input_is_a_one_line_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
