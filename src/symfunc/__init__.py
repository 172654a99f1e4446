"""Exact-arithmetic symmetric functions and S_n representation theory.

The package namespace resolves on first use (PEP 562): ``symfunc.decompose``
or ``from symfunc import decompose`` imports ``symfunc.matrixreps`` at that
moment, and ``import symfunc`` alone loads no layer. So ``import symfunc.ring``
loads only ``_record``, ``errors``, ``limits``, ``partitions`` and ``ring``:
what a conversion between bases reads. ``dir(symfunc)`` and
``from symfunc import *`` still list every public name below.

``symfunc.cli`` stays eager: it imports every layer at its top, so a CLI
process pays its imports before ``main`` runs and a timing of ``main`` holds
no module compile.
"""

_NAMES = {  # home module -> the public names the package lends from it
    "errors": "DegreeCapError InvariantViolationError SizeMismatchError",
    "partitions": ("Partition Permutation as_partition conjugate count_of_type cycle_type"
                   " dominates partitions_of z_value"),
    "tableaux": "SkewShape Tableau enumerate_ssyt f_lambda kostka rsk rsk_inverse",
    "ring": ("BASES E H M P S PolynomialValue SymElement basis_element convert evaluate"
             " hall_inner multiply omega perp skew_schur sym_element"),
    "characters": ("ClassFunction char_inner character character_table class_function"
                   " frobenius_ch frobenius_inverse kronecker kronecker_product"
                   " littlewood_richardson youngs_rule"),
    "hopf": ("TensorElement antipode cauchy_kernel coproduct_prod coproduct_sum counit"
             " counit_star plethysm"),
    "matrixreps": ("MatrixRep SubgroupSpec character_of classical_rep decompose direct_sum"
                   " exterior_square_character gl_character gl_dimension induce restrict"
                   " schur_weyl_check specht_module tensor_product young_module"),
    "limits": "",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted([*_NAMES, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of ``name`` on first use and keep the value, so
    later lookups are plain attribute reads; ``name`` may be a module."""
    home = _HOME.get(name, name)
    if home not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # binds the submodule in globals()
    module = globals()[home]
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
