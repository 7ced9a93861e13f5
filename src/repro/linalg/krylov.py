"""Krylov-subspace approximation of ``exp(hA) v`` for MNA pencils.

This is the numerical heart of MATEX.  The descriptor system
``C x' = -G x + B u`` has ``A = -C⁻¹G``, which is never formed: each
Krylov flavour works through one sparse LU factorisation and reduces
``exp(hA)v`` to the exponential of a tiny Hessenberg matrix:

===========  ==================  ======================  =======================
method       factors (X1)        Arnoldi operator        effective Hm
===========  ==================  ======================  =======================
standard     ``C``               ``C⁻¹ G = -A``          ``-H``          (MEXP)
inverted     ``G``               ``G⁻¹ C = -A⁻¹``        ``-H⁻¹``        (I-MATEX)
rational     ``C + γG``          ``(C+γG)⁻¹C=(I-γA)⁻¹``  ``(I - H̃⁻¹)/γ`` (R-MATEX)
===========  ==================  ======================  =======================

each satisfying ``exp(hA) v ≈ β V_m exp(h·Hm) e_1`` (paper Secs. 2.3,
3.3.1, 3.3.2).  The inverted/rational variants capture the *small*
magnitude eigenvalues of ``A`` first — the ones that dominate the circuit
response — which is why their basis stays around m ≈ 10 where MEXP needs
hundreds on stiff circuits (paper Table 1).

Crucially, the standard method must factor ``C`` and therefore fails on
singular ``C`` (missing node capacitors), requiring MNA regularization;
the inverted/rational methods only factor ``G`` or ``C+γG`` and are
regularization-free (paper Sec. 3.3.3).

A :class:`KrylovBasis` is the reusable artefact of one Arnoldi run: MATEX
re-evaluates it at any step ``h`` inside the current piecewise-linear
input segment just by rescaling the Hessenberg exponent (paper Sec. 2.4,
Alg. 2 line 11).

The three flavours differ only in that small Hessenberg-side map — the
effective exponent and the posterior residual of Eqs. (7)/(8)/(10) —
which lives here exactly once, on the operator classes, over one LU
kernel (:class:`HessenbergFactors`, raw LAPACK) and one Padé kernel
(:mod:`repro.linalg.expm`).  The scalar :meth:`KrylovExpmOperator.build_basis`
and the lockstep :func:`~repro.linalg.block_krylov.build_bases_block`
both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from repro.linalg.arnoldi import (
    TEST_THROTTLE_DIM,
    TEST_THROTTLE_EVERY,
    ArnoldiResult,
    arnoldi,
)
from repro.linalg.expm import _GETRF, _GETRS, _expm, expm_e1
from repro.linalg.lu import (
    FACTORIZATION_CACHE,
    FactorizationError,
    SparseLU,
    canonical_shift,
)

__all__ = [
    "HessenbergFactors",
    "KrylovBasis",
    "KrylovExpmOperator",
    "StandardKrylov",
    "InvertedKrylov",
    "RationalKrylov",
    "RegularizationRequiredError",
    "make_krylov_operator",
    "METHOD_NAMES",
]

MethodName = Literal["standard", "inverted", "rational"]

#: Canonical method names with their paper aliases.
METHOD_NAMES = {
    "standard": "standard", "mexp": "standard",
    "inverted": "inverted", "imatex": "inverted", "i-matex": "inverted",
    "rational": "rational", "rmatex": "rational", "r-matex": "rational",
}


class RegularizationRequiredError(FactorizationError):
    """Standard-Krylov (MEXP) needs a non-singular ``C``.

    Raised when ``C`` cannot be factored; the paper's fix is either an MNA
    regularization pass (Chen et al., TCAD'12) or — MATEX's answer —
    switching to the inverted/rational subspaces (Sec. 3.3.3).
    """


@dataclass
class KrylovBasis:
    """A reusable Krylov approximation of ``h ↦ exp(hA) v``.

    Built once at a Local Transition Spot, evaluated many times at the
    Snapshots that follow (paper Alg. 2): ``evaluate(h)`` returns
    ``β V_m exp(h·Hm) e_1`` for any ``h``.

    Attributes
    ----------
    Vm:
        ``n × m`` orthonormal basis.
    Hm:
        Effective ``m × m`` matrix (already mapped so the exponent is
        ``h * Hm`` regardless of the generating method).
    beta:
        Norm of the starting vector.
    h_built:
        The step size used for the convergence test when the basis was
        generated.  Fig. 5 shows the approximation only *improves* for
        larger ``h``, so reuse with ``h > h_built`` is safe.
    m:
        Basis dimension.
    error_estimate:
        Posterior error estimate at ``h_built``.
    method:
        Canonical generating-method name.
    h_next:
        Subdiagonal entry ``h_{m+1,m}`` of the generating Arnoldi run
        (0 on happy breakdown).
    err_row:
        Row functional of the posterior estimate, so the error can be
        re-checked at any reuse step via :meth:`error_at`.
    """

    Vm: np.ndarray
    Hm: np.ndarray
    beta: float
    h_built: float
    m: int
    error_estimate: float
    method: str
    h_next: float = 0.0
    err_row: np.ndarray | None = None
    _eig: tuple | None = None

    #: Above this basis dimension the rank-1 accumulation kernel would
    #: cost more Python round-trips than it saves; fall back to one BLAS
    #: gemv per column (only MEXP on stiff circuits gets here).
    _LOOP_KERNEL_MAX_M = 32

    def _eig_payload(self):
        """Cached eigendecomposition of ``Hm`` (diagonalise once, O(m³)),
        so each evaluation costs O(m²) instead of a fresh Padé ``expm``.
        ``usable`` is False when the eigenvector matrix is ill-conditioned
        (defective ``Hm``) and evaluations must fall back to Padé."""
        if self._eig is None:
            usable = False
            payload = None
            try:
                d, s = np.linalg.eig(self.Hm)
                s_inv_e1 = np.linalg.solve(s, np.eye(self.m)[:, 0])
                cond = np.linalg.cond(s)
                usable = np.isfinite(cond) and cond < 1e10
                payload = (d, s, s_inv_e1)
            except np.linalg.LinAlgError:
                pass
            object.__setattr__(self, "_eig", (usable, payload))
        return self._eig

    def _expm_e1_many(self, hs: np.ndarray) -> np.ndarray:
        """``exp(h·Hm) e_1`` for a whole vector of steps, shape ``(m, K)``.

        The accumulation is an explicit rank-1 loop over the basis
        columns so each output column is **bit-for-bit identical**
        whether evaluated alone (``K = 1``, the per-node marching path)
        or as part of a span batch (the block runner): elementwise
        broadcasting never changes the per-element operation order,
        whereas BLAS gemm and gemv kernels disagree in the last ulp.
        """
        usable, payload = self._eig_payload()
        m = self.m
        if not usable:
            cols = np.empty((m, len(hs)))
            for k, h in enumerate(hs):
                cols[:, k] = expm_e1(float(h) * self.Hm)
            return cols
        d, s, s_inv_e1 = payload
        with np.errstate(over="ignore", invalid="ignore"):
            E = np.exp(np.multiply.outer(d, hs)) * s_inv_e1[:, None]
            if m <= self._LOOP_KERNEL_MAX_M:
                acc = s[:, 0:1] * E[0:1, :]
                for j in range(1, m):
                    acc += s[:, j:j + 1] * E[j:j + 1, :]
            else:
                acc = np.empty((m, len(hs)), dtype=complex)
                for k in range(E.shape[1]):
                    acc[:, k] = s @ np.ascontiguousarray(E[:, k])
            return acc.real

    def evaluate_many(
        self, hs, with_errors: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the basis at many steps at once.

        Returns ``(Y, errs)`` with ``Y`` of shape ``(K, n)`` — row ``k``
        is ``β V_m exp(hs[k]·Hm) e_1`` (row-major, so a marching span
        commits straight into its states block) — and ``errs`` the
        posterior error estimate per step (zeros when the basis carries
        no error row, or when ``with_errors`` is false).  This is the
        batched Hessenberg-exponential kernel behind snapshot reuse:
        the scalar :meth:`evaluate` / :meth:`evaluate_with_error`
        delegate here with ``K = 1``, so batched and per-step
        evaluations are bit-for-bit interchangeable.
        """
        hs = np.asarray(hs, dtype=float)
        K = hs.shape[0]
        n = self.Vm.shape[0]
        if self.m == 0:
            return np.zeros((K, n)), np.zeros(K)
        cols = self._expm_e1_many(hs)
        if self.m <= self._LOOP_KERNEL_MAX_M:
            acc = cols[0][:, None] * self.Vm[:, 0][None, :]
            if self.m > 1:
                tmp = np.empty_like(acc)
                for j in range(1, self.m):
                    np.multiply(
                        cols[j][:, None], self.Vm[:, j][None, :], out=tmp
                    )
                    acc += tmp
            Y = np.multiply(acc, self.beta, out=acc)
        else:
            Y = np.empty((K, n))
            for k in range(K):
                Y[k] = self.beta * (
                    self.Vm @ np.ascontiguousarray(cols[:, k])
                )
        if not with_errors or self.err_row is None or self.h_next == 0.0:  # repro: allow[RPL005] exact happy-breakdown sentinel
            return Y, np.zeros(K)
        dots = self.err_row[0] * cols[0, :]
        for j in range(1, self.m):
            dots = dots + self.err_row[j] * cols[j, :]
        errs = self.beta * np.abs(self.h_next * dots)
        return Y, errs

    def evaluate(self, h: float) -> np.ndarray:
        """Return ``β V_m exp(h Hm) e_1`` — the reuse step of Alg. 2."""
        Y, _ = self.evaluate_many([h], with_errors=False)
        return Y[0]

    def error_at(self, h: float) -> float:
        """Posterior error estimate re-evaluated at step ``h``.

        Used by the solver before serving a snapshot from this basis:
        normally the error only shrinks as ``h`` grows (paper Fig. 5),
        and this check catches the exceptions.
        """
        if self.m == 0 or self.err_row is None or self.h_next == 0.0:  # repro: allow[RPL005] exact happy-breakdown sentinel
            return 0.0
        _, errs = self.evaluate_many([h])
        return float(errs[0])

    def evaluate_with_error(self, h: float) -> tuple[np.ndarray, float]:
        """Snapshot fast path: value and posterior error from one
        small-matrix exponential evaluation."""
        Y, errs = self.evaluate_many([h])
        return Y[0], float(errs[0])


#: Read-only identity cache for the m ≈ 10 Hessenberg blocks: np.eye in
#: the per-iteration estimates was a visible slice of the lockstep loop.
_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(m: int) -> np.ndarray:
    """Cached identity — callers must not mutate the returned array."""
    ident = _EYE_CACHE.get(m)
    if ident is None:
        ident = np.eye(m)
        ident.setflags(write=False)
        _EYE_CACHE[m] = ident
    return ident


class HessenbergFactors:
    """LU factors of one small Hessenberg block — factor once, solve many.

    The inverted/rational error estimates and effective-exponent maps all
    need ``H⁻¹`` products of the *same* ``m × m`` block: the inverse for
    the exponent, and the ``e_m^T H⁻¹`` row for the posterior residual.
    This class factors the block once with LAPACK ``getrf`` and serves
    every product by ``getrs`` substitution.  The raw bindings skip the
    ``lu_factor``/``lu_solve`` input validation, which at m ≈ 10 costs
    several times the LAPACK work; the inverse is bitwise what
    ``numpy.linalg.inv`` (``gesv`` = ``getrf`` + ``getrs``) returns.
    Raw ``getrf`` does not reject non-finite input (an ``inf`` entry can
    even yield a finite "inverse"), so the constructor checks it and
    raises ``ValueError``; the posterior estimates report ``inf``.

    Singularity handling preserves the pencil semantics: a (near-)
    singular block arises when the start vector lies in the *algebraic*
    part of the descriptor system (``C v ≈ 0`` — e.g. MNA voltage-source
    branch currents): the pencil has an infinite generalised eigenvalue
    there, and the physical flow damps such components instantaneously.
    For the **inverse** we refactor with a tiny positive identity shift,
    mapping those directions to enormous negative exponent entries so
    ``exp(h·Hm)`` sends them to zero (paper Sec. 3.3.3 / Lemma 1).  The
    **row solve** reports failure instead (the caller treats the residual
    estimate as "not converged"), never a silently shifted answer.
    """

    def __init__(self, h_square: np.ndarray):
        if not np.isfinite(h_square).all():
            raise ValueError("Hessenberg block contains non-finite entries")
        self.h_square = h_square
        self.m = h_square.shape[0]
        self.singular = False
        if self.m:  # LAPACK rejects an empty block; there is nothing to factor
            lu, piv, _ = _GETRF(h_square)
            self._factors = (lu, piv)
            # An exactly-zero U pivot is the singularity sentinel.
            self.singular = not lu.diagonal().all()

    def _shifted_factors(self):
        """Factors of the identity-shifted block (singular fallback)."""
        delta = 1e-30 * (1.0 + float(np.abs(self.h_square).max()))
        lu, piv, _ = _GETRF(self.h_square + delta * np.eye(self.m))
        return lu, piv

    def inverse(self) -> np.ndarray:
        """``H⁻¹`` by m substitutions against the shared factors."""
        if not self.m:
            return np.zeros((0, 0))
        lu, piv = self._shifted_factors() if self.singular else self._factors
        out, _ = _GETRS(lu, piv, _eye(self.m))
        return out

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """``H^{-T} rhs`` (the ``e_m^T H⁻¹`` row of Eqs. 8/10).

        Raises
        ------
        numpy.linalg.LinAlgError
            If the block is exactly singular.
        """
        if self.singular:
            raise np.linalg.LinAlgError(
                "singular Hessenberg block has no H^{-1} row"
            )
        lu, piv = self._factors
        out, _ = _GETRS(lu, piv, rhs, trans=1)
        return out


class KrylovExpmOperator:
    """Base class: one factorisation + Arnoldi-based ``exp(hA)v`` products.

    Subclasses define which matrix is factored (``X1``) and which is
    applied (``X2``), plus the Hessenberg-side map of their flavour:

    * ``_hess_factors(h_square)`` — the shared LU of the block, or
      ``None`` when the flavour never inverts it;
    * ``effective_hm(H, factors)`` — the Arnoldi block mapped to the
      exponent matrix;
    * ``error_estimate(h, H, beta, factors)`` — the posterior error used
      as the convergence test in Alg. 1 lines 10-12;
    * ``_error_row(h_square, factors)`` — that estimate's row functional,
      kept on the basis so the error can be re-checked at reuse steps.

    The scalar :meth:`build_basis` and the lockstep
    :func:`~repro.linalg.block_krylov.build_bases_block` both call these
    hooks, so the two builds share one copy of the small-dense arithmetic.
    """

    method: str = "base"

    def __init__(self, C: sp.spmatrix, G: sp.spmatrix):
        self.C = sp.csc_matrix(C)
        self.G = sp.csc_matrix(G)
        if self.C.shape != self.G.shape:
            raise ValueError(
                f"C and G must have identical shapes, "
                f"got {self.C.shape} vs {self.G.shape}"
            )
        self._lu: SparseLU | None = None
        self._x2: sp.csc_matrix | None = None
        self._factor()

    def _factor(self) -> None:
        raise NotImplementedError

    def _hess_factors(self, h_square: np.ndarray) -> HessenbergFactors | None:
        """Factor the Hessenberg block once for all ``H⁻¹`` consumers.

        The standard subspace never inverts ``H`` and returns ``None``.
        """
        return None

    # -- shared machinery --------------------------------------------------------

    @property
    def lu(self) -> SparseLU:
        """The single factorisation this operator performs."""
        return self._lu

    @property
    def n_solves(self) -> int:
        """Forward/backward substitution pairs consumed so far."""
        return self._lu.n_solves

    @property
    def factor_seconds(self) -> float:
        """Wall time of the one-off factorisation."""
        return self._lu.factor_seconds

    def apply(self, v: np.ndarray) -> np.ndarray:
        """One Arnoldi operator application: ``X1⁻¹ (X2 v)``."""
        return self._lu.solve(self._x2 @ v)

    def apply_block(self, V: np.ndarray) -> np.ndarray:
        """Batched operator application over a dense column block.

        One sparse mat-mat product plus one multi-RHS substitution; the
        accounting charges one forward/backward pair per column, and
        each output column is bit-for-bit identical to a scalar
        :meth:`apply` of that column: CSC products scatter
        column-by-column, and the level-scheduled substitution kernel
        (:mod:`repro.linalg.triangular`) reproduces the scalar sweep's
        accumulation order per column at any batch width.  This is the
        primitive the lockstep block-Arnoldi builds on.
        """
        if V.ndim == 1:
            return self.apply(V)
        return self._lu.solve_many(self._x2 @ V)

    def _package_basis(
        self,
        V: np.ndarray,
        H: np.ndarray,
        m: int,
        beta: float,
        h: float,
        happy: bool,
        factors: HessenbergFactors | None = None,
        err: float | None = None,
    ) -> KrylovBasis:
        """Package a finished Arnoldi run as a :class:`KrylovBasis`.

        ``V``/``H`` hold at least ``m + 1`` basis columns and the
        ``(m+1) × m`` Hessenberg block.  One LU of the final block serves
        the effective exponent, the posterior estimate and the reuse
        error row; ``factors``/``err`` pass in what a convergence test
        at this very dimension already computed (the values are
        deterministic, so reusing them changes no bit).
        """
        if m == 0:
            return KrylovBasis(
                Vm=np.zeros((V.shape[0], 0)), Hm=np.zeros((0, 0)), beta=0.0,
                h_built=h, m=0, error_estimate=0.0, method=self.method,
            )
        h_square = np.ascontiguousarray(H[:m, :m])
        if factors is None:
            factors = self._hess_factors(h_square)
        heff = self.effective_hm(h_square, factors=factors)
        if happy:
            err = 0.0
            h_next = 0.0
            err_row = None
        else:
            if err is None:
                err = self.error_estimate(h, H[: m + 1, :m], beta, factors=factors)
            h_next = float(H[m, m - 1])
            err_row = self._error_row(h_square, factors=factors)
        return KrylovBasis(
            Vm=V[:, :m].copy(), Hm=heff, beta=beta,
            h_built=h, m=m, error_estimate=err, method=self.method,
            h_next=h_next, err_row=err_row,
        )

    def build_basis(
        self,
        v: np.ndarray,
        h: float,
        tol: float,
        m_max: int = 100,
        min_dim: int = 2,
    ) -> KrylovBasis:
        """Run Alg. 1: Arnoldi with the posterior-error stopping rule.

        Parameters
        ----------
        v:
            Starting vector (in MATEX: ``x(t) + F(t, h)``).
        h:
            The step size used in the convergence test.
        tol:
            Error budget ``ε`` for ``‖r_m(h)‖``.
        m_max:
            Hard cap on the basis dimension (MEXP on stiff circuits runs
            into this; I-/R-MATEX converge around m ≈ 10).
        min_dim:
            Iterations before the first convergence test.
        """

        def converged(m: int, H: np.ndarray, V: np.ndarray, beta: float) -> bool:
            if m > TEST_THROTTLE_DIM and m % TEST_THROTTLE_EVERY:
                return False
            return self.error_estimate(h, H, beta) < tol

        res: ArnoldiResult = arnoldi(
            self.apply, v, m_max=m_max, convergence=converged, min_dim=min_dim
        )
        return self._package_basis(
            res.V, res.H, res.m, res.beta, h, res.happy_breakdown
        )

    def expm_multiply(
        self,
        v: np.ndarray,
        h: float,
        tol: float = 1e-8,
        m_max: int = 100,
        min_dim: int = 2,
    ) -> tuple[np.ndarray, KrylovBasis]:
        """Approximate ``exp(hA) v``; returns the value and reusable basis."""
        basis = self.build_basis(v, h, tol=tol, m_max=m_max, min_dim=min_dim)
        return basis.evaluate(h), basis


class StandardKrylov(KrylovExpmOperator):
    """MEXP's standard Krylov subspace ``K_m(A, v)`` (paper Sec. 2.3).

    Factors ``C`` (hence *requires regularization* when ``C`` is
    singular) and applies ``C⁻¹G = -A``.  On stiff circuits the basis must
    grow large to capture the dominant small-magnitude eigenvalues, which
    is exactly the weakness Table 1 quantifies.
    """

    method = "standard"

    def _factor(self) -> None:
        try:
            self._lu = FACTORIZATION_CACHE.factor(self.C, label="C")
        except FactorizationError as exc:
            raise RegularizationRequiredError(
                "standard Krylov (MEXP) must factor C, which is singular "
                "for this circuit; regularize the MNA system or use the "
                "inverted/rational methods (paper Sec. 3.3.3)"
            ) from exc
        self._x2 = self.G

    def effective_hm(
        self, H: np.ndarray, factors: HessenbergFactors | None = None
    ) -> np.ndarray:
        # Arnoldi ran on C⁻¹G = -A, so exp(hA) = exp(-h·H) on the subspace.
        return -H

    def error_estimate(
        self,
        h: float,
        H: np.ndarray,
        beta: float,
        factors: HessenbergFactors | None = None,
    ) -> float:
        """Integrated (hump-aware) version of the Eq. (7) residual.

        On stiff circuits the point residual at τ = h underflows long
        before the approximation is accurate: the residual mass sits in a
        boundary layer τ ≲ 1/‖A‖ (the "hump").  The error transfer
        ``e(h) = ∫ exp((h-τ)A) r(τ) dτ`` suggests the integrated residual

            ‖e(h)‖ ≲ β |h_{m+1,m}| · |e_m^T h·φ1(h·Hm) e_1|

        with ``φ1(z) = (e^z - 1)/z``, evaluated through one augmented
        matrix exponential.  This keeps MEXP iterating until m ≈ h·‖A‖,
        exactly the basis blow-up the paper's Table 1 reports (m in the
        hundreds where I-/R-MATEX need ~10).
        """
        m = H.shape[1]
        h_next = float(H[m, m - 1])
        # exp([[hH, h e1],[0, 0]]) has top-right column h·φ1(hH)·e1,
        # with the effective exponent -H of this flavour.
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = h * -H[:m, :m]
        aug[0, m] = h
        try:
            col = _expm(aug)[:m, m]
        except (ValueError, np.linalg.LinAlgError):
            return np.inf
        val = abs(col[m - 1])
        if not np.isfinite(val):
            return np.inf
        return beta * abs(h_next) * val

    def _error_row(
        self,
        h_square: np.ndarray,
        factors: HessenbergFactors | None = None,
    ) -> np.ndarray:
        """Row functional ``e_m^T`` of the residual (for basis reuse)."""
        m = h_square.shape[0]
        e_m = np.zeros(m)
        e_m[m - 1] = 1.0
        return e_m


class InvertedHessenbergKrylov(KrylovExpmOperator):
    """Hessenberg-side map shared by the inverted and rational subspaces.

    I-MATEX and R-MATEX both run Arnoldi on an operator whose Hessenberg
    block must be inverted to recover ``A``.  Their effective exponents
    differ only in :meth:`exponent_from_inverse` (which the lockstep march
    also applies to a whole ``(B, m, m)`` stack of inverses), and their
    posterior estimates (Eqs. (8)/(10)) share one ``e_m^T H⁻¹`` row.
    """

    def _hess_factors(self, h_square: np.ndarray) -> HessenbergFactors:
        return HessenbergFactors(h_square)

    def exponent_from_inverse(self, inv: np.ndarray) -> np.ndarray:
        """Map ``H⁻¹`` (one block or a stack) to the effective exponent."""
        raise NotImplementedError

    def effective_hm(
        self, H: np.ndarray, factors: HessenbergFactors | None = None
    ) -> np.ndarray:
        """Map the Arnoldi Hessenberg block to the exponent matrix.

        ``factors`` lets callers that already factored ``H`` (the error
        estimates, basis packaging) reuse the LU instead of refactoring.
        """
        if factors is None:
            factors = HessenbergFactors(H)
        return self.exponent_from_inverse(factors.inverse())

    def error_estimate(
        self,
        h: float,
        H: np.ndarray,
        beta: float,
        factors: HessenbergFactors | None = None,
    ) -> float:
        """Residual estimate ``β |h_{m+1,m} · e_m^T H⁻¹ exp(h·Hm) e_1|``.

        This is the regularization-free specialisation of Eqs. (8)/(10):
        the leading operator factors (``A`` resp. ``(I-γA)/γ``) cannot be
        applied when ``C`` is singular, and numerically the remaining row
        functional already tracks the true error within a small factor
        (validated against dense ``expm`` in the test suite).  The extra
        ``e_m^T H⁻¹`` factor over the Eq. (7) form is empirically the
        difference between stopping correctly and stopping ~10 orders of
        magnitude too early on stiff PDNs.

        One LU of the small block serves both ``H⁻¹`` products — the
        effective exponent and the ``e_m^T H⁻¹`` row.  A singular block
        (no row) or a non-finite one reports ``inf``: "not converged".
        """
        m = H.shape[1]
        h_next = float(H[m, m - 1])
        h_square = H[:m, :m]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if factors is None:
                    factors = HessenbergFactors(h_square)
                heff = self.effective_hm(h_square, factors=factors)
                col = _expm(h * heff)[:, 0].copy()
                row = self._error_row(h_square, factors=factors)
                est = beta * abs(h_next * float(row @ col))
        except (ValueError, np.linalg.LinAlgError):
            return np.inf
        # A spurious positive Ritz value (oblique projection artefact,
        # possible mid-iteration on RLC systems) overflows the small
        # exponential; report "not converged" so Arnoldi keeps going.
        if not np.isfinite(est):
            return np.inf
        return est

    def _error_row(
        self,
        h_square: np.ndarray,
        factors: HessenbergFactors | None = None,
    ) -> np.ndarray:
        """Row functional ``e_m^T H⁻¹`` of the estimate (for basis reuse)."""
        m = h_square.shape[0]
        e_m = np.zeros(m)
        e_m[m - 1] = 1.0
        if factors is None:
            factors = HessenbergFactors(h_square)
        return factors.solve_transposed(e_m)


class InvertedKrylov(InvertedHessenbergKrylov):
    """I-MATEX inverted subspace ``K_m(A⁻¹, v)`` (paper Sec. 3.3.1).

    Factors ``G`` and applies ``G⁻¹C = -A⁻¹``; small-magnitude eigenvalues
    of ``A`` become dominant in ``A⁻¹`` and are captured by a tiny basis.
    Regularization-free: ``C`` is never factored.
    """

    method = "inverted"

    def _factor(self) -> None:
        self._lu = FACTORIZATION_CACHE.factor(self.G, label="G")
        self._x2 = self.C

    def exponent_from_inverse(self, inv: np.ndarray) -> np.ndarray:
        # Arnoldi ran on -A⁻¹ ⇒ A ≈ -H⁻¹ on the subspace.
        return -inv


class RationalKrylov(InvertedHessenbergKrylov):
    """R-MATEX shift-and-invert subspace ``K_m((I-γA)⁻¹, v)`` (Sec. 3.3.2).

    Factors ``C + γG`` and applies ``(C+γG)⁻¹C = (I-γA)⁻¹``.  The shift
    compresses the whole spectrum of ``A`` into the unit disk, so the
    basis dimension is small *and* spread evenly across time points —
    the best performer in the paper.  γ should sit near the order of the
    time steps used (paper: γ = 1e-10 for 10ps-scale stepping; Table 3).

    Parameters
    ----------
    gamma:
        The shift parameter γ in seconds.
    """

    method = "rational"

    def __init__(self, C: sp.spmatrix, G: sp.spmatrix, gamma: float = 1e-10):
        if gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {gamma!r}")
        # Canonicalise γ before it touches the pencil: γ values equal up
        # to arithmetic-order noise (h/2 vs 0.5*h-style derivations) must
        # build the same C+γG and share one FACTORIZATION_CACHE entry.
        self.gamma = canonical_shift(float(gamma))
        super().__init__(C, G)

    def _factor(self) -> None:
        shifted = (self.C + self.gamma * self.G).tocsc()
        self._lu = FACTORIZATION_CACHE.factor(
            shifted, label=f"C+{self.gamma:g}*G", key_extra=("gamma", self.gamma)
        )
        self._x2 = self.C

    def exponent_from_inverse(self, inv: np.ndarray) -> np.ndarray:
        # Arnoldi ran on (I-γA)⁻¹ ⇒ A ≈ (I - H̃⁻¹)/γ on the subspace.
        return (_eye(inv.shape[-1]) - inv) / self.gamma

def make_krylov_operator(
    method: str,
    C: sp.spmatrix,
    G: sp.spmatrix,
    gamma: float = 1e-10,
) -> KrylovExpmOperator:
    """Factory accepting paper aliases (``mexp``/``imatex``/``rmatex``).

    Parameters
    ----------
    method:
        One of :data:`METHOD_NAMES` (case-insensitive).
    C, G:
        The MNA descriptor matrices.
    gamma:
        Shift for the rational method; ignored otherwise.
    """
    canonical = METHOD_NAMES.get(method.lower())
    if canonical is None:
        raise ValueError(
            f"unknown Krylov method {method!r}; "
            f"choose from {sorted(set(METHOD_NAMES))}"
        )
    if canonical == "standard":
        return StandardKrylov(C, G)
    if canonical == "inverted":
        return InvertedKrylov(C, G)
    return RationalKrylov(C, G, gamma=gamma)
