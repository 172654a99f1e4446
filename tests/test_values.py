"""Value semantics of the frozen classes, and a cold import that stays light."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from symfunc._record import Record
from symfunc.characters import ClassFunction
from symfunc.hopf import TensorElement
from symfunc.limits import Limits
from symfunc.matrixreps import MatrixRep, SubgroupSpec
from symfunc.ring import PolynomialValue, SymElement
from symfunc.tableaux import SkewShape, Tableau

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


FIELDS = {
    Limits: ("ring", "table", "coefficient", "regular", "specht", "young"),
    SkewShape: ("outer", "inner"),
    Tableau: ("shape", "rows", "inner"),
    SymElement: ("basis", "terms"),
    PolynomialValue: ("nvars", "terms"),
    ClassFunction: ("n", "values"),
    TensorElement: ("bases", "terms"),
    SubgroupSpec: ("n", "elements"),
}


# a valid positional call of each class, one value per field
ARGS = {
    Limits: (1, 2, 3, 4, 5, 6),
    SkewShape: ((3, 2), (1,)),
    Tableau: ((2, 1), ((1, 2), (3,)), ()),
    SymElement: ("s", {}),
    PolynomialValue: (2, {}),
    ClassFunction: (2, (1, 1)),
    TensorElement: (("s", "h"), {}),
    SubgroupSpec: (1, ((1,),)),
}


def samples():
    """One instance of each of the eight value classes."""
    return [
        Limits(),
        SkewShape((3, 2), (1,)),
        Tableau((2, 1), ((1, 2), (3,))),
        SymElement("s", {(2, 1): Fraction(1)}),
        PolynomialValue(2, {(1, 0): Fraction(1)}),
        ClassFunction(2, (Fraction(1), Fraction(1))),
        TensorElement(("s", "h"), {((1,), (2,)): Fraction(3, 2)}),
        SubgroupSpec.young([2, 1]),
    ]


def field_values(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def test_cold_cli_import_loads_no_dataclasses_or_inspect():
    code = (
        f"import sys; sys.path.insert(0, {os.path.abspath(SRC)!r}); import symfunc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    before = field_values(value)
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        value.other = 1
    assert all(a is b for a, b in zip(field_values(value), before))


def test_positional_keyword_and_default_construction():
    assert Limits() == Limits(20, 8, 12, 6, 5, 6)
    assert Limits(specht=7) == Limits(20, 8, 12, 6, 7, 6)
    assert Limits(1, young=2).young == 2
    assert SkewShape((2,)).inner == () and SkewShape(outer=(2,), inner=(1,)).inner == (1,)
    assert Tableau((1,), ((1,),)) == Tableau(shape=(1,), rows=((1,),), inner=())
    assert SymElement(basis="h", terms={}).basis == "h"
    assert PolynomialValue(terms={}, nvars=3).nvars == 3
    assert ClassFunction(values=(), n=0) == ClassFunction(0, ())
    assert TensorElement(terms={}, bases=("s", "s")).bases == ("s", "s")
    assert SubgroupSpec(n=1, elements=((1,),)) == SubgroupSpec(1, ((1,),))
    with pytest.raises(TypeError):
        Limits(bogus=1)
    for cls, args in ARGS.items():
        fields = FIELDS[cls]
        assert field_values(cls(*args)) == args == field_values(cls(**dict(zip(fields, args))))
        if cls is not Limits:  # every Limits field has a default
            with pytest.raises(TypeError, match="missing"):
                cls(**dict(zip(fields[1:], args[1:])))
        with pytest.raises(TypeError, match="twice|multiple values"):
            cls(*args, **{fields[0]: args[0]})
        with pytest.raises(TypeError, match="unknown|unexpected keyword"):
            cls(*args, bogus=1)
        with pytest.raises(TypeError, match="positional"):
            cls(*args, None)


def test_only_limits_and_skew_shape_define_a_constructor():
    assert set(Record.__subclasses__()) == set(FIELDS)
    assert {cls for cls in FIELDS if "__init__" in vars(cls)} == {Limits, SkewShape}


@pytest.mark.parametrize("make, other", [
    (lambda: Limits(1, 2, 3, 4, 5, 6), Limits(1, 2, 3, 4, 5, 7)),
    (lambda: SkewShape((3, 2), (1,)), SkewShape((3, 2), (2,))),
    (lambda: Tableau((2,), ((1, 2),)), Tableau((2,), ((1, 1),))),
    (lambda: ClassFunction(2, (Fraction(1), Fraction(-1))), ClassFunction(2, (Fraction(1), Fraction(1)))),
    (lambda: SubgroupSpec.young([1, 1]), SubgroupSpec.young([2])),
], ids=["Limits", "SkewShape", "Tableau", "ClassFunction", "SubgroupSpec"])
def test_hashable_classes_compare_and_hash_field_by_field(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(field_values(a))
    assert {a: 1}[b] == 1
    assert a != other and len({a, b, other}) == 2
    assert a != field_values(a)


def test_equal_fields_in_different_classes_are_unequal():
    cf = ClassFunction(3, (1, 2))
    sub = SubgroupSpec(3, (1, 2))
    assert cf != sub and sub != cf
    assert SkewShape((2,), (1,)) != Tableau((2,), (1,), ())


@pytest.mark.parametrize("cls", [SymElement, PolynomialValue, TensorElement])
def test_classes_with_semantic_equality_stay_unhashable(cls):
    value = next(v for v in samples() if type(v) is cls)
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_reprs_and_limits_error_text_are_unchanged():
    # strings printed by the dataclass versions of these classes
    assert [repr(v) for v in [
        Limits(), Limits(table=9), Limits(1, 2, 3, 4, 5, 6),
        SkewShape([3, 2, 0], [1]), SkewShape((2,)),
        Tableau((2, 1), ((1, 2), (3,))), Tableau((2, 1), ((2,), (3,)), (1,)),
        SymElement("s", {(2, 1): Fraction(1), (3,): Fraction(-1, 2)}),
        PolynomialValue(2, {(1, 0): Fraction(1), (0, 1): Fraction(3, 2)}),
        ClassFunction(3, (Fraction(1), Fraction(0), Fraction(2))),
        TensorElement(("s", "h"), {((1,), (2,)): Fraction(3, 2)}),
        SubgroupSpec.young([2, 1]),
    ]] == [
        "Limits(ring=20, table=8, coefficient=12, regular=6, specht=5, young=6)",
        "Limits(ring=20, table=9, coefficient=12, regular=6, specht=5, young=6)",
        "Limits(ring=1, table=2, coefficient=3, regular=4, specht=5, young=6)",
        "SkewShape(outer=(3, 2), inner=(1,))",
        "SkewShape(outer=(2,), inner=())",
        "Tableau(shape=(2, 1), rows=((1, 2), (3,)), inner=())",
        "Tableau(shape=(2, 1), rows=((2,), (3,)), inner=(1,))",
        "-1/2*s[3] + s[2,1]",
        "x1 + 3/2*x2",
        "ClassFunction(n=3, values=(Fraction(1, 1), Fraction(0, 1), Fraction(2, 1)))",
        "3/2*s[1](x)h[2]",
        "SubgroupSpec(n=3, elements=((1, 2, 3), (2, 1, 3)))",
    ]
    with pytest.raises(ValueError) as err:
        Limits(table=-1)
    assert str(err.value) == (
        "degree caps must be >= 0: "
        "Limits(ring=20, table=-1, coefficient=12, regular=6, specht=5, young=6)"
    )


def test_skew_shape_normalises_and_checks_containment():
    shape = SkewShape([3, 2, 0], [1, 0])
    assert (shape.outer, shape.inner) == ((3, 2), (1,))
    assert shape == SkewShape((3, 2), (1,))
    with pytest.raises(ValueError, match=r"inner shape \(3,\) not contained in \(2, 2\)"):
        SkewShape((2, 2), (3,))


def test_matrix_rep_holds_only_its_definition():
    a = MatrixRep(1, 1, lambda pi: ((1,),))
    b = MatrixRep(1, 1, lambda pi: ((1,),))
    assert sorted(vars(a)) == ["_matrix_fn", "_trace_fn", "dim", "domain", "label", "n"]
    assert a != b and a == a
    assert (a.domain, a.label, a._trace_fn) == (None, "", None)
