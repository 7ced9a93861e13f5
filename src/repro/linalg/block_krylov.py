"""Lockstep block-Arnoldi: one basis build per column group.

The distributed decomposition (paper Sec. 3.4) gives every node task the
*same* MNA pencil, so all their Krylov bases are built against the same
sparse LU factors.  :func:`build_bases_block` marches the Arnoldi
iterations of many start vectors **in lockstep**: at iteration ``j`` the
operator is applied to all still-active columns with one sparse mat-mat
product and one multi-RHS substitution (``SparseLU.solve_many``) instead
of one scalar solve per column.  Gram-Schmidt and breakdown handling run
per column with exactly the arithmetic of :func:`repro.linalg.arnoldi`
(sharing its constants), and the Hessenberg-side work — effective
exponent, posterior estimate, error row, basis packaging — calls the
very operator hooks :meth:`~repro.linalg.krylov.KrylovExpmOperator.build_basis`
calls.  The one lockstep-only step is the batched convergence test: the
columns testing at one dimension exponentiate their blocks in a single
:func:`~repro.linalg.expm.fast_expm_stack` call, slice for slice bitwise
the scalar kernel.  So every returned
:class:`~repro.linalg.krylov.KrylovBasis` is **bit-for-bit identical**
to a scalar build of the same column.  That parity is a hard contract
(it is what lets the block-batched distributed fast path claim the
per-node path's validation), enforced by ``tests/test_block_krylov.py``
and the frozen corpus of ``tests/test_hessenberg_corpus.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.arnoldi import (
    BREAKDOWN_TOL,
    TEST_THROTTLE_DIM,
    TEST_THROTTLE_EVERY,
    ArnoldiBreakdown,
    _ensure_capacity,
    _initial_capacity,
)
from repro.linalg.expm import fast_expm_stack
from repro.linalg.krylov import (
    HessenbergFactors,
    InvertedHessenbergKrylov,
    KrylovBasis,
    KrylovExpmOperator,
    _eye,
)

__all__ = ["build_bases_block", "prime_eig_payloads"]


def prime_eig_payloads(bases: list[KrylovBasis]) -> None:
    """Batch-precompute the evaluation eigendecompositions of many bases.

    Every :class:`~repro.linalg.krylov.KrylovBasis` lazily diagonalises
    its ``Hm`` on first evaluation (``eig`` + a condition estimate + one
    small solve — the dominant per-basis setup cost).  Bases built in a
    lockstep round share their dimension, so the whole round primes
    through three stacked gufunc calls whose per-slice results are
    bit-for-bit the single-matrix ones.  Bases that cannot be primed
    (LAPACK non-convergence anywhere in a stack) are simply left lazy —
    the scalar fallback computes the identical payload per basis.
    """
    groups: dict[int, list[KrylovBasis]] = {}
    for b in bases:
        if b.m > 0 and b._eig is None:
            groups.setdefault(b.m, []).append(b)
    for m, group in groups.items():
        stack = np.stack([b.Hm for b in group])
        try:
            d, s = np.linalg.eig(stack)
            e1 = np.zeros(m)
            e1[0] = 1.0
            s_inv_e1 = np.linalg.solve(s, np.tile(e1, (len(group), 1))[..., None])[..., 0]
            conds = np.linalg.cond(s)
        except np.linalg.LinAlgError:
            continue
        for i, b in enumerate(group):
            usable = bool(np.isfinite(conds[i]) and conds[i] < 1e10)
            object.__setattr__(
                b, "_eig", (usable, (d[i], s[i], s_inv_e1[i]))
            )


# -- lockstep block Arnoldi ---------------------------------------------------------


@dataclass
class _Column:
    """Mutable lockstep state of one Arnoldi column."""

    idx: int
    v: np.ndarray
    h: float
    tol: float
    beta: float
    V: np.ndarray | None = None
    H: np.ndarray | None = None
    cap: int = 0
    m: int = 0
    active: bool = False
    happy: bool = False
    #: Estimate/factors of the most recent convergence test, reused by
    #: the packaging when it happened at the final dimension (the
    #: scalar path recomputes the identical value there).
    last_est: float | None = None
    last_est_m: int = -1
    last_factors: HessenbergFactors | None = None


def _batched_test_estimates(
    op: KrylovExpmOperator, testing: list[_Column], m: int
) -> dict[int, float]:
    """Posterior error estimates for all columns testing at dimension ``m``.

    For the flavours that invert the Hessenberg block, the per-column
    factorisations stay scalar (raw getrf / getrs are a few µs), but the
    small matrix exponentials — the bulk of each estimate — are fused
    into one :func:`fast_expm_stack` call.  Any anomaly (singular or
    non-finite block, non-finite scaling) routes the affected columns
    through the operator's scalar estimate, so every value is
    bit-for-bit what the per-node path would have computed.
    """
    ests: dict[int, float] = {}
    if len(testing) == 1 or not isinstance(op, InvertedHessenbergKrylov):
        for c in testing:
            ests[c.idx] = op.error_estimate(c.h, c.H[: m + 1, : m], c.beta)
            c.last_est, c.last_est_m, c.last_factors = ests[c.idx], m, None
        return ests

    stacked: list[tuple[_Column, HessenbergFactors, np.ndarray, float]] = []
    h_squares = np.empty((len(testing), m, m))
    e_m = np.zeros(m)
    e_m[m - 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for c in testing:
            h_square = c.H[:m, :m]
            try:
                factors = HessenbergFactors(h_square)
            except ValueError:  # non-finite block
                factors = None
            if factors is None or factors.singular:
                est = op.error_estimate(c.h, c.H[: m + 1, : m], c.beta)
                ests[c.idx] = est
                c.last_est, c.last_est_m, c.last_factors = est, m, None
                continue
            row = factors.solve_transposed(e_m)
            h_squares[len(stacked)] = h_square
            stacked.append((c, factors, row, float(c.H[m, m - 1])))
        if stacked:
            R = None
            try:
                # Stacked gesv is bitwise the getrf+getrs pair the
                # scalar inverse runs; the exponent map and scaled
                # exponentials then batch elementwise per slice.
                inv = np.linalg.solve(
                    h_squares[: len(stacked)],
                    np.broadcast_to(_eye(m), (len(stacked), m, m)),
                )
                heffs = op.exponent_from_inverse(inv)
                heffs *= np.array([c.h for c, _, _, _ in stacked])[
                    :, None, None
                ]
                R = fast_expm_stack(heffs)
            except (ValueError, np.linalg.LinAlgError):
                R = None
            for i, (c, factors, row, h_next) in enumerate(stacked):
                if R is None:
                    est = op.error_estimate(
                        c.h, c.H[: m + 1, : m], c.beta, factors=factors
                    )
                else:
                    col = np.ascontiguousarray(R[i, :, 0])
                    est = c.beta * abs(h_next * float(row @ col))
                    if not np.isfinite(est):
                        est = np.inf
                ests[c.idx] = est
                c.last_est, c.last_est_m, c.last_factors = est, m, factors
    return ests


def build_bases_block(
    op: KrylovExpmOperator,
    vs: list,
    hs: list,
    tols: list,
    m_max: int = 100,
    min_dim: int = 2,
) -> list[KrylovBasis]:
    """Build one Krylov basis per column, marching all columns in lockstep.

    Parameters
    ----------
    op:
        The shared Krylov operator (one sparse LU for every column —
        the paper's shared-pencil property).
    vs, hs, tols:
        Per-column start vectors, convergence-test step sizes and error
        budgets (exactly the arguments the scalar
        :meth:`~repro.linalg.krylov.KrylovExpmOperator.build_basis`
        takes one at a time).
    m_max, min_dim:
        Basis-dimension cap and first-test iteration, shared.

    Returns
    -------
    list[KrylovBasis]
        One basis per input column, each bit-for-bit equal to
        ``op.build_basis(vs[k], hs[k], tols[k], m_max, min_dim)``.

    Notes
    -----
    The solve accounting matches the scalar path: ``op.n_solves`` grows
    by one per column per lockstep iteration the column is active —
    i.e. by ``basis.m`` per column over the whole build.
    """
    n_cols = len(vs)
    if not (len(hs) == len(tols) == n_cols):
        raise ValueError("vs, hs and tols must have equal lengths")
    if n_cols == 0:
        return []
    if m_max < 1:
        raise ValueError("m_max must be at least 1")

    cols: list[_Column] = []
    n = None
    for k in range(n_cols):
        v = np.asarray(vs[k], dtype=float)
        if n is None:
            n = v.shape[0]
        elif v.shape[0] != n:
            raise ValueError("all start vectors must share one dimension")
        beta = float(np.linalg.norm(v))
        cols.append(
            _Column(idx=k, v=v, h=float(hs[k]), tol=float(tols[k]), beta=beta)
        )

    m_cap = min(m_max, n)
    tiny = np.finfo(float).tiny

    for c in cols:
        if c.beta == 0.0:  # repro: allow[RPL005] exact Krylov-breakdown sentinel, like arnoldi()
            # Trivially converged empty subspace, shaped like arnoldi()'s.
            c.V, c.H = np.zeros((n, 1)), np.zeros((1, 0))
            continue
        c.cap = _initial_capacity(m_cap)
        c.V = np.empty((n, c.cap + 1))
        c.H = np.zeros((c.cap + 1, c.cap))
        c.V[:, 0] = c.v / c.beta
        c.active = True

    for j in range(m_cap):
        active = [c for c in cols if c.active]
        if not active:
            break
        for c in active:
            c.V, c.H, c.cap = _ensure_capacity(c.V, c.H, c.cap, j + 1, m_cap)

        # One batched operator application for every active column: a
        # single sparse mat-mat product + multi-RHS substitution, with
        # columns bit-identical to per-column scalar applies.
        if len(active) == 1:
            W = op.apply(active[0].V[:, j])[:, None]
        else:
            block = np.empty((n, len(active)))
            for i, c in enumerate(active):
                block[:, i] = c.V[:, j]
            W = op.apply_block(block)

        if not np.all(np.isfinite(W)):
            bad = [
                c.idx for i, c in enumerate(active)
                if not np.all(np.isfinite(W[:, i]))
            ]
            raise ArnoldiBreakdown(
                f"operator returned non-finite values at iteration "
                f"{j + 1} (columns {bad})"
            )

        testing: list[_Column] = []
        for i, c in enumerate(active):
            w = np.ascontiguousarray(W[:, i])
            # float(sqrt(w·w)) is numpy's exact norm formula for 1-d
            # real vectors, minus the wrapper dispatch.
            w_scale = float(np.sqrt(w.dot(w)))
            basis_block = c.V[:, : j + 1]
            coeffs = basis_block.T @ w
            w = w - basis_block @ coeffs
            c.H[: j + 1, j] += coeffs
            corr = basis_block.T @ w
            w = w - basis_block @ corr
            c.H[: j + 1, j] += corr
            h_next = float(np.sqrt(w.dot(w)))
            c.H[j + 1, j] = h_next
            c.m = j + 1

            if h_next <= BREAKDOWN_TOL * max(w_scale, tiny):
                c.V[:, j + 1] = 0.0
                c.happy = True
                c.active = False
                continue

            c.V[:, j + 1] = w / h_next

            if c.m >= min_dim:
                if c.m > TEST_THROTTLE_DIM and c.m % TEST_THROTTLE_EVERY:
                    continue
                testing.append(c)

        if testing:
            # All lockstep columns test at the same dimension, so their
            # posterior estimates batch into one stacked expm.
            ests = _batched_test_estimates(op, testing, j + 1)
            for c in testing:
                if ests[c.idx] < c.tol:
                    c.active = False

    bases = []
    for c in cols:
        tested_last = c.last_est_m == c.m
        bases.append(op._package_basis(
            c.V, c.H, c.m, c.beta, c.h, c.happy,
            factors=c.last_factors if tested_last else None,
            err=c.last_est if tested_last else None,
        ))
    return bases
