"""Arnoldi process (paper Alg. 1, lines 1-13).

The Arnoldi iteration builds an orthonormal basis ``V_m`` of the Krylov
subspace ``K_m(Op, v)`` together with the small upper-Hessenberg matrix
``H_m`` satisfying ``Op V_m = V_m H_m + h_{m+1,m} v_{m+1} e_m^T``.

MATEX instantiates the abstract operator ``Op`` three ways (standard,
inverted, rational — see :mod:`repro.linalg.krylov`); each application is
one pair of forward/backward substitutions (Alg. 1 line 3).  This module
is deliberately generic: ``apply`` is just a callable.

Orthogonalisation is modified Gram-Schmidt exactly as written in Alg. 1
(the projection coefficients are computed against the *updated* ``w``),
with one optional reorthogonalisation pass for robustness on ill-scaled
PDN matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ArnoldiResult", "ArnoldiBreakdown", "arnoldi"]

#: Convergence test signature: (j, H[(j+1)×j], V[:, :j+1], beta) -> bool.
ConvergenceTest = Callable[[int, np.ndarray, np.ndarray, float], bool]

#: Initial column capacity of the basis workspace.  I-/R-MATEX bases
#: stay around m ≈ 10, so allocating the full ``m_max`` (often 300)
#: up front would zero ~2.5 MB per basis for nothing; instead the
#: workspace starts small and doubles on demand.
_INITIAL_CAPACITY = 32

#: Default relative tolerance (vs. the pre-orthogonalisation norm of the
#: new vector) declaring a happy breakdown.
BREAKDOWN_TOL = 1e-14

#: Convergence-test throttle.  Each posterior test costs an m×m expm;
#: once the basis is deeper than ``TEST_THROTTLE_DIM`` (only MEXP on
#: stiff circuits gets there) testing every iteration would dominate,
#: so only every ``TEST_THROTTLE_EVERY``-th dimension is tested.  The
#: scalar and lockstep builds share these so their stopping decisions
#: coincide.
TEST_THROTTLE_DIM = 60
TEST_THROTTLE_EVERY = 5


def _initial_capacity(m_cap: int) -> int:
    """Starting workspace capacity for a basis capped at ``m_cap``."""
    return min(_INITIAL_CAPACITY, m_cap)


def _ensure_capacity(
    V: np.ndarray, H: np.ndarray, cap: int, needed: int, m_cap: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Grow the ``(V, H)`` workspace geometrically to hold ``needed`` columns.

    The capacity schedule (and therefore the arrays' leading dimension
    at every iteration) is deterministic — shared between the scalar
    Arnoldi below and the lockstep block Arnoldi, because BLAS level-2
    kernels are only bit-reproducible for identical memory layouts.
    """
    while needed > cap:
        cap = min(2 * cap, m_cap)
    if V.shape[1] < cap + 1:
        grown_v = np.empty((V.shape[0], cap + 1))
        grown_v[:, : V.shape[1]] = V
        grown_h = np.zeros((cap + 1, cap))
        grown_h[: H.shape[0], : H.shape[1]] = H
        return grown_v, grown_h, cap
    return V, H, cap


class ArnoldiBreakdown(RuntimeError):
    """Raised only for *unexpected* breakdowns (NaN/Inf in the recursion)."""


@dataclass
class ArnoldiResult:
    """Output of the Arnoldi process.

    Attributes
    ----------
    V:
        ``n × (m+1)`` orthonormal basis (the extra column is ``v_{m+1}``,
        needed by the posterior error estimates, Eqs. (7)/(8)/(10)).
        On happy breakdown the extra column is zero.
    H:
        ``(m+1) × m`` upper-Hessenberg matrix including the subdiagonal
        entry ``h_{m+1,m}``.
    m:
        Number of basis vectors actually built.
    beta:
        ``‖v‖`` of the starting vector (the paper's ``‖v‖`` scaling).
    converged:
        True when the supplied convergence test fired (or a happy
        breakdown made the subspace exact).
    happy_breakdown:
        True when ``h_{m+1,m} ≈ 0`` — the subspace is invariant and the
        Krylov approximation is exact.
    """

    V: np.ndarray
    H: np.ndarray
    m: int
    beta: float
    converged: bool
    happy_breakdown: bool

    @property
    def Hm(self) -> np.ndarray:
        """The square ``m × m`` Hessenberg block."""
        return self.H[: self.m, : self.m]

    @property
    def h_next(self) -> float:
        """The subdiagonal entry ``h_{m+1,m}`` (0 on happy breakdown)."""
        return float(self.H[self.m, self.m - 1]) if self.m > 0 else 0.0

    @property
    def Vm(self) -> np.ndarray:
        """The ``n × m`` basis block."""
        return self.V[:, : self.m]


def arnoldi(
    apply: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    m_max: int,
    convergence: ConvergenceTest | None = None,
    min_dim: int = 1,
    breakdown_tol: float = BREAKDOWN_TOL,
    reorthogonalize: bool = True,
) -> ArnoldiResult:
    """Run the Arnoldi process on operator ``apply`` from vector ``v``.

    Parameters
    ----------
    apply:
        The operator application ``w = Op(v)``; in MATEX each call is one
        forward/backward substitution pair.
    v:
        Starting vector; its norm becomes ``beta``.
    m_max:
        Hard cap on the subspace dimension.
    convergence:
        Optional posterior test evaluated after each iteration ``j >=
        min_dim`` (paper Alg. 1 lines 10-12).  Receives the current
        ``(j+1) × j`` Hessenberg block, the basis and ``beta``.
    min_dim:
        Do not test convergence before this many vectors (the inverted and
        rational estimates are unreliable for the first couple of
        iterations, paper Sec. 3.3.3).
    breakdown_tol:
        Relative tolerance (vs. the pre-orthogonalisation norm of the new
        vector) declaring a happy breakdown.
    reorthogonalize:
        Run one extra Gram-Schmidt sweep per vector (CGS2).  Costs one
        extra BLAS-2 pair, buys orthogonality on badly scaled PDN
        systems and on the deep bases MEXP builds.

    Returns
    -------
    ArnoldiResult
        Basis, Hessenberg matrix and convergence flags.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    m_cap = min(m_max, n)

    beta = float(np.linalg.norm(v))
    if beta == 0.0:  # repro: allow[RPL005] exact Krylov-breakdown sentinel (norm of the zero vector)
        # Zero start vector: exp(hA)·0 = 0 exactly; report a trivially
        # converged empty subspace.
        return ArnoldiResult(
            V=np.zeros((n, 1)), H=np.zeros((1, 0)), m=0, beta=0.0,
            converged=True, happy_breakdown=True,
        )

    cap = _initial_capacity(m_cap)
    V = np.empty((n, cap + 1))
    H = np.zeros((cap + 1, cap))

    V[:, 0] = v / beta
    m = 0
    converged = False
    happy = False

    for j in range(m_cap):
        V, H, cap = _ensure_capacity(V, H, cap, j + 1, m_cap)
        w = np.asarray(apply(V[:, j]), dtype=float)
        if not np.all(np.isfinite(w)):
            raise ArnoldiBreakdown(
                f"operator returned non-finite values at iteration {j + 1}"
            )
        # Breakdown must be judged against the *local* operator scale:
        # e.g. the inverted operator G⁻¹C has tiny norm on fast circuits,
        # so comparing h_{j+1,j} with beta would fire spuriously.
        w_scale = float(np.linalg.norm(w))
        # Classical Gram-Schmidt in BLAS-2 form; the second pass below
        # (CGS2) restores the numerical robustness of the modified
        # variant written in the paper's Alg. 1, at vectorised speed —
        # essential when MEXP pushes m into the hundreds.
        basis_block = V[:, : j + 1]
        coeffs = basis_block.T @ w
        w = w - basis_block @ coeffs
        H[: j + 1, j] += coeffs
        if reorthogonalize:
            corr = basis_block.T @ w
            w = w - basis_block @ corr
            H[: j + 1, j] += corr
        h_next = float(np.linalg.norm(w))
        H[j + 1, j] = h_next
        m = j + 1

        if h_next <= breakdown_tol * max(w_scale, np.finfo(float).tiny):
            # Invariant subspace: the projection is exact.  The unused
            # extra basis column is zeroed explicitly (the workspace is
            # allocated with np.empty).
            V[:, j + 1] = 0.0
            happy = True
            converged = True
            break

        V[:, j + 1] = w / h_next

        if convergence is not None and m >= min_dim:
            if convergence(m, H[: m + 1, : m], V[:, : m + 1], beta):
                converged = True
                break

    if convergence is None:
        converged = True

    return ArnoldiResult(
        V=V[:, : m + 1].copy(),
        H=H[: m + 1, : m].copy(),
        m=m,
        beta=beta,
        converged=converged,
        happy_breakdown=happy,
    )
