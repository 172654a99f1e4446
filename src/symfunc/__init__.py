"""Exact-arithmetic symmetric functions and S_n representation theory."""

from .errors import DegreeCapError, InvariantViolationError, SizeMismatchError
from .partitions import (
    Partition,
    Permutation,
    as_partition,
    conjugate,
    count_of_type,
    cycle_type,
    dominates,
    partitions_of,
    z_value,
)
from .tableaux import (
    SkewShape,
    Tableau,
    enumerate_ssyt,
    f_lambda,
    kostka,
    rsk,
    rsk_inverse,
)
from .ring import (
    BASES,
    E,
    H,
    M,
    P,
    S,
    PolynomialValue,
    SymElement,
    basis_element,
    convert,
    evaluate,
    hall_inner,
    multiply,
    omega,
    perp,
    skew_schur,
    sym_element,
)
from .characters import (
    ClassFunction,
    char_inner,
    character,
    character_table,
    class_function,
    frobenius_ch,
    frobenius_inverse,
    kronecker,
    kronecker_product,
    littlewood_richardson,
    youngs_rule,
)
from .hopf import (
    TensorElement,
    antipode,
    cauchy_kernel,
    coproduct_prod,
    coproduct_sum,
    counit,
    counit_star,
    plethysm,
)
from .matrixreps import (
    MatrixRep,
    SubgroupSpec,
    character_of,
    classical_rep,
    decompose,
    direct_sum,
    exterior_square_character,
    gl_character,
    gl_dimension,
    induce,
    restrict,
    schur_weyl_check,
    specht_module,
    tensor_product,
    young_module,
)

__version__ = "0.1.0"
