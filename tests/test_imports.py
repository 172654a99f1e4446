"""The import footprint and the namespace of the ``symfunc`` package.

The package resolves its public names on first use, so what a process loads
depends on what it read before: every check that reads the footprint, or
reads a name first, runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symfunc

SRC = str(Path(__file__).resolve().parents[1] / "src")

# dir(symfunc) without the underscored names, as the eager package had it.
PUBLIC = [
    "BASES", "ClassFunction", "DegreeCapError", "E", "H", "InvariantViolationError", "M",
    "MatrixRep", "P", "Partition", "Permutation", "PolynomialValue", "S", "SizeMismatchError",
    "SkewShape", "SubgroupSpec", "SymElement", "Tableau", "TensorElement", "antipode",
    "as_partition", "basis_element", "cauchy_kernel", "char_inner", "character", "character_of",
    "character_table", "characters", "class_function", "classical_rep", "conjugate", "convert",
    "coproduct_prod", "coproduct_sum", "counit", "counit_star", "count_of_type", "cycle_type",
    "decompose", "direct_sum", "dominates", "enumerate_ssyt", "errors", "evaluate",
    "exterior_square_character", "f_lambda", "frobenius_ch", "frobenius_inverse",
    "gl_character", "gl_dimension", "hall_inner", "hopf", "induce", "kostka", "kronecker",
    "kronecker_product", "limits", "littlewood_richardson", "matrixreps", "multiply", "omega",
    "partitions", "partitions_of", "perp", "plethysm", "restrict", "ring", "rsk", "rsk_inverse",
    "schur_weyl_check", "skew_schur", "specht_module", "sym_element", "tableaux",
    "tensor_product", "young_module", "youngs_rule", "z_value",
]

# Where each re-exported name lives; the eight submodule names are their own home.
HOMES = {
    "errors": ("DegreeCapError", "InvariantViolationError", "SizeMismatchError"),
    "partitions": ("Partition", "Permutation", "as_partition", "conjugate", "count_of_type",
                   "cycle_type", "dominates", "partitions_of", "z_value"),
    "tableaux": ("SkewShape", "Tableau", "enumerate_ssyt", "f_lambda", "kostka", "rsk",
                 "rsk_inverse"),
    "ring": ("BASES", "E", "H", "M", "P", "S", "PolynomialValue", "SymElement",
             "basis_element", "convert", "evaluate", "hall_inner", "multiply", "omega", "perp",
             "skew_schur", "sym_element"),
    "characters": ("ClassFunction", "char_inner", "character", "character_table",
                   "class_function", "frobenius_ch", "frobenius_inverse", "kronecker",
                   "kronecker_product", "littlewood_richardson", "youngs_rule"),
    "hopf": ("TensorElement", "antipode", "cauchy_kernel", "coproduct_prod", "coproduct_sum",
             "counit", "counit_star", "plethysm"),
    "matrixreps": ("MatrixRep", "SubgroupSpec", "character_of", "classical_rep", "decompose",
                   "direct_sum", "exterior_square_character", "gl_character", "gl_dimension",
                   "induce", "restrict", "schur_weyl_check", "specht_module", "tensor_product",
                   "young_module"),
    "limits": (),
}
HOME_OF = {name: home for home, names in HOMES.items() for name in (home, *names)}

SUBMODULES = {"_record", "characters", "cli", "errors", "hopf", "limits", "matrixreps",
              "partitions", "ring", "tableaux"}


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args``; it must exit 0 and write no stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return proc


def test_the_pinned_names_cover_the_homes():
    assert sorted(HOME_OF) == PUBLIC and len(PUBLIC) == 78


@pytest.mark.parametrize("module, loads", [
    ("symfunc", set()),
    ("symfunc.ring", {"_record", "errors", "limits", "partitions", "ring"}),
    ("symfunc.matrixreps", SUBMODULES - {"hopf", "cli"}),
    # cli imports every layer at its top on purpose: a CLI process pays its
    # imports before main() runs, so a timing of main() holds no compile.
    ("symfunc.cli", SUBMODULES),
], ids=["package", "ring", "matrixreps", "cli"])
def test_an_import_loads_only_the_modules_it_reads(module, loads):
    code = (f"import sys, {module}; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'symfunc')))")
    loaded = set(fresh("-c", code).stdout.split())
    assert loaded == {"symfunc", *(f"symfunc.{m}" for m in loads)}


@pytest.mark.parametrize("form", ["attribute", "from-import"])
def test_every_public_name_resolves_to_its_home_object(form):
    """Each name is read first in the form under test, then compared with
    the object its home module holds."""
    code = """if True:
        import importlib, json, sys
        import symfunc
        bad = []
        for name, home in json.loads(sys.argv[1]).items():
            if sys.argv[2] == "attribute":
                value = getattr(symfunc, name)
            else:
                ns = {}
                exec(f"from symfunc import {name} as value", ns)
                value = ns["value"]
            module = importlib.import_module(f"symfunc.{home}")
            if value is not (module if home == name else getattr(module, name)):
                bad.append(name)
        print(json.dumps(bad))
    """
    assert json.loads(fresh("-c", code, json.dumps(HOME_OF), form).stdout) == []


def test_dir_and_star_import_list_the_public_names():
    code = """if True:
        import json, symfunc
        public = lambda names: sorted(n for n in names if not n.startswith("_"))
        before = public(dir(symfunc))
        ns = {}
        exec("from symfunc import *", ns)
        print(json.dumps([before, public(dir(symfunc)), sorted(set(ns) - {"__builtins__"})]))
    """
    before, after, star = json.loads(fresh("-c", code).stdout)
    assert before == after == star == PUBLIC


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'symfunc' has no attribute 'no_such_name'"):
        symfunc.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from symfunc import no_such_name  # noqa: F401


def test_an_error_in_a_layer_import_propagates_as_itself():
    code = """if True:
        import sys

        class Broken:
            def find_spec(self, name, path=None, target=None):
                if name == "symfunc.hopf":
                    raise RuntimeError("hopf will not load")

        sys.meta_path.insert(0, Broken())
        import symfunc
        try:
            symfunc.plethysm
        except RuntimeError as exc:
            print(exc)
    """
    assert fresh("-c", code).stdout == "hopf will not load\n"


def test_threads_racing_the_first_read_get_one_object():
    code = """if True:
        import sys, threading
        import symfunc
        sys.setswitchinterval(1e-6)
        barrier, seen = threading.Barrier(8), []

        def read():
            barrier.wait()
            seen.append(symfunc.decompose)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        from symfunc.matrixreps import decompose
        print(len(seen), all(f is decompose for f in seen))
    """
    assert fresh("-c", code).stdout == "8 True\n"


def test_the_cli_runs_as_a_module_without_a_runpy_warning():
    """``python -m symfunc.cli`` warns if the package imported ``cli`` first."""
    proc = fresh("-W", "error", "-m", "symfunc.cli", "partitions", "3")
    assert proc.stdout == "3\n2,1\n1,1,1\n"
