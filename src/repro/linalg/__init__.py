"""Linear-algebra substrate: LU, dense expm, Arnoldi, Krylov expm operators."""

from repro.linalg.arnoldi import ArnoldiBreakdown, ArnoldiResult, arnoldi
from repro.linalg.dense_reference import dense_a_matrix, etd_exact_step, exact_transient
from repro.linalg.expm import expm, expm_e1
from repro.linalg.krylov import (
    METHOD_NAMES,
    InvertedKrylov,
    KrylovBasis,
    KrylovExpmOperator,
    RationalKrylov,
    RegularizationRequiredError,
    StandardKrylov,
    make_krylov_operator,
)
from repro.linalg.lu import FactorizationError, SparseLU
from repro.linalg.triangular import (
    KERNEL_MODES,
    TriangularFactors,
    kernel_mode,
    set_kernel_mode,
)

__all__ = [
    "ArnoldiBreakdown",
    "ArnoldiResult",
    "FactorizationError",
    "InvertedKrylov",
    "KERNEL_MODES",
    "KrylovBasis",
    "KrylovExpmOperator",
    "METHOD_NAMES",
    "RationalKrylov",
    "RegularizationRequiredError",
    "SparseLU",
    "StandardKrylov",
    "TriangularFactors",
    "arnoldi",
    "dense_a_matrix",
    "etd_exact_step",
    "exact_transient",
    "expm",
    "expm_e1",
    "kernel_mode",
    "make_krylov_operator",
    "set_kernel_mode",
]
