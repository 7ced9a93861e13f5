"""Dense matrix exponential for small matrices (Padé scaling-and-squaring).

MATEX only ever exponentiates the tiny (m×m, m ≈ 10…30) Hessenberg matrix
produced by the Arnoldi process (Alg. 1 line 14); the paper does this with
MATLAB's ``expm``.  We implement the classic Higham (2005) degree-13 Padé
scaling-and-squaring algorithm from scratch rather than calling
``scipy.linalg.expm`` for the inner kernel, and validate it against
``scipy.linalg.expm`` in the test suite.

This is the one Padé kernel of the package.  At m ≈ 10 the wrapper
overhead of ``numpy.linalg.solve`` costs several times the LAPACK work,
so the Padé solve calls ``getrf``/``getrs`` directly — the very pair
``gesv`` runs internally.  :func:`expm` validates its input around that
core; the Krylov estimates call the core :func:`_expm` per Arnoldi
iteration.  :func:`fast_expm_stack` evaluates a ``(B, m, m)`` stack with
the same Padé split, slice for slice bitwise equal to :func:`expm`,
which is what lets the lockstep march batch its posterior estimates.
:func:`expm_e1` is the ``exp(H) @ e1`` product every Krylov evaluation
needs.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = ["expm", "expm_e1", "fast_expm_stack"]

_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), (np.zeros((2, 2)),))

# Padé coefficients for the degree-13 diagonal approximant (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)

# theta_13: the 1-norm bound under which the [13/13] approximant meets
# double-precision accuracy without scaling.
_THETA13 = 5.371920351148152


def _pade13(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator/denominator split (U, V) of the [13/13] Padé.

    ``a`` is one ``(m, m)`` matrix or a ``(B, m, m)`` stack; the stacked
    matmul gufunc runs the same dgemm per slice, so each slice of a
    stacked split is bitwise the split of that slice alone.
    """
    ident = np.eye(a.shape[-1])
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    return u, v


def _expm(a: np.ndarray) -> np.ndarray:
    """Core of :func:`expm` for a square float array, unvalidated."""
    if a.shape[0] == 0:
        return np.zeros((0, 0))
    if a.shape[0] == 1:
        return np.exp(a)

    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise ValueError("expm: matrix contains non-finite entries")

    s = 0
    if norm > _THETA13:
        s = int(np.ceil(np.log2(norm / _THETA13)))
        a = a / (2.0 ** s)

    u, v = _pade13(a)
    # Solve (V - U) X = (V + U) for the Padé value.
    lu, piv, info = _GETRF(v - u)
    if info != 0:
        raise np.linalg.LinAlgError("singular Padé denominator")
    r, info = _GETRS(lu, piv, v + u)
    # getrs hands back a Fortran-ordered solution while the stacked gesv
    # returns C order; dgemm results depend on operand layout, so the
    # squaring phase must see the layout fast_expm_stack squares in.
    r = np.ascontiguousarray(r)
    # The squaring phase can overflow legitimately when the matrix has
    # large positive eigenvalues (spurious Ritz values on RLC systems);
    # callers treat a non-finite result as "not converged", so overflow
    # is allowed to produce inf silently rather than spam warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    return r


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small dense square matrix.

    Scaling-and-squaring with the [13/13] Padé approximant.  Intended for
    the m×m Hessenberg matrices of the Krylov methods; for large sparse
    operators use the Krylov machinery in :mod:`repro.linalg.krylov`
    instead.

    Raises
    ------
    ValueError
        If ``a`` is not square or contains non-finite entries.
    numpy.linalg.LinAlgError
        If the Padé denominator is singular.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm expects a square matrix, got shape {a.shape}")
    return _expm(a)


def expm_e1(a: np.ndarray) -> np.ndarray:
    """First column of ``exp(a)``, i.e. ``exp(a) @ e1``.

    This is the quantity every Krylov step needs (paper Alg. 1 line 14:
    ``x = ‖v‖ Vm exp(h Hm) e1``).  For the tiny matrices involved, forming
    the full exponential is cheap and numerically safest.  The column is
    returned contiguous: BLAS dot kernels are only bit-reproducible for
    identical strides.
    """
    return expm(a)[:, 0].copy()


def fast_expm_stack(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a ``(B, m, m)`` stack, one slice per matrix.

    Slice ``k`` of the result is **bit-for-bit** ``expm(a[k])``: numpy's
    stacked matmul/solve gufuncs run the identical BLAS/LAPACK call per
    slice, the per-slice 1-norms and scaling powers reproduce the scalar
    control flow, and the squaring phase re-squares exactly the slices
    whose scale demands it.  This is the vectorised heart of the batched
    posterior error estimates: one stacked Padé evaluation replaces one
    small ``expm`` per Arnoldi column per iteration.

    Raises
    ------
    ValueError
        If any slice contains non-finite entries (as the scalar expm
        does for that slice); callers fall back to per-column handling.
    numpy.linalg.LinAlgError
        If any slice's Padé denominator is singular.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, m, m) stack, got {a.shape}")
    B, m, _ = a.shape
    if m == 0:
        return np.zeros((B, 0, 0))
    if m == 1:
        return np.exp(a)

    norms = np.abs(a).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValueError("expm: matrix contains non-finite entries")

    s = np.zeros(B, dtype=int)
    big = norms > _THETA13
    if np.any(big):
        s[big] = np.ceil(np.log2(norms[big] / _THETA13)).astype(int)
        a = a / (2.0 ** s)[:, None, None]

    u, v = _pade13(a)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(int(s.max()) if B else 0):
            idx = s > step
            r[idx] = r[idx] @ r[idx]
    return r
