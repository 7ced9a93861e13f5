"""Dense exact-ETD reference solver (test oracle).

For *small* systems with invertible ``C`` the exponential-time-differencing
step (paper Eq. 4/5) can be evaluated exactly — to machine precision — with
one dense matrix exponential of the augmented matrix::

        M = [ A  s  b0 ]          z(0) = [ x0 ]
            [ 0  0  1  ]                 [ 0  ]        x(h) = (exp(hM) z)[:n]
            [ 0  0  0  ]                 [ 1  ]

where the input is linear over the step, ``b(τ) = b0 + s·τ``.  This is the
standard phi-function augmentation (Al-Mohy & Higham) and shares *no code
path* with the Krylov machinery, which makes it an independent oracle for
the whole MATEX solver stack: unit tests compare every integrator against
it on small RC/RLC circuits.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro.circuit.mna import MNASystem
from repro.circuit.waveforms import merge_transition_spots
from repro.linalg.expm import expm

__all__ = ["dense_a_matrix", "etd_exact_step", "exact_transient"]


def dense_a_matrix(C: sp.spmatrix, G: sp.spmatrix) -> np.ndarray:
    """Form ``A = -C⁻¹G`` densely (small systems only).

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``C`` is singular — in that case the oracle does not exist and
        tests fall back to a tiny-step implicit-Euler reference.
    """
    c = np.asarray(C.todense() if sp.issparse(C) else C, dtype=float)
    g = np.asarray(G.todense() if sp.issparse(G) else G, dtype=float)
    return -np.linalg.solve(c, g)


def etd_exact_step(
    A: np.ndarray, x: np.ndarray, b0: np.ndarray, s: np.ndarray, h: float
) -> np.ndarray:
    """Exact solution of ``x' = A x + b0 + s·τ`` after time ``h``.

    Parameters
    ----------
    A:
        Dense state matrix.
    x:
        State at the beginning of the step.
    b0:
        Input vector at the beginning of the step (``C⁻¹ B u(t)``).
    s:
        Input slope vector over the step (``C⁻¹ B du/dt``).
    h:
        Step length.
    """
    n = A.shape[0]
    M = np.zeros((n + 2, n + 2))
    M[:n, :n] = A
    M[:n, n] = np.asarray(s, dtype=float)
    M[:n, n + 1] = np.asarray(b0, dtype=float)
    M[n, n + 1] = 1.0
    z = np.zeros(n + 2)
    z[:n] = x
    z[n + 1] = 1.0
    # Not scipy.linalg.expm: the input columns of h·M are ~1e10 against
    # ~1e4 for h·A on stiff RC grids, and SciPy's degree selection loses
    # ~1e-6 relative accuracy there, enough to break superposition.
    return (expm(h * M) @ z)[:n]


def exact_transient(
    system: MNASystem,
    x0: np.ndarray,
    t_end: float,
    active: list[int] | None = None,
    extra_times: list[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """March the exact ETD step across all input segments.

    Evaluation points are the Global Transition Spots (where the inputs
    change slope) plus any ``extra_times``; between consecutive points the
    inputs are linear, so each step is exact.

    Parameters
    ----------
    system:
        Assembled MNA system (must have invertible ``C``).
    x0:
        Initial condition (typically the DC operating point).
    t_end:
        Simulation horizon.
    active:
        Optional subset of input columns to drive (others held at zero),
        mirroring the distributed decomposition.
    extra_times:
        Additional evaluation times to merge into the schedule.

    Returns
    -------
    times, X:
        ``times`` of shape ``(k,)`` and states ``X`` of shape ``(k, dim)``,
        including the initial point.
    """
    c = np.asarray(system.C.todense(), dtype=float)
    A = dense_a_matrix(system.C, system.G)
    # Factor C once for the whole schedule: every step needs two C⁻¹
    # solves (b0 and s), and LAPACK's gesv is exactly getrf + getrs, so
    # reusing the factors is bit-identical to per-step np.linalg.solve.
    c_lu = scipy.linalg.lu_factor(c)

    schedule = list(system.global_transition_spots(t_end, active=active))
    if extra_times:
        # Tolerance-aware union (the GTS merge operator): a plain set
        # union keeps transition spots that differ by one ulp as two
        # points, which would desynchronise the output grid from runs
        # built over other input subsets.
        extra = sorted(float(t) for t in extra_times if 0.0 <= t <= t_end)
        schedule = merge_transition_spots([schedule, extra])
    if schedule[0] > 0.0:
        schedule.insert(0, 0.0)

    times = [schedule[0]]
    states = [np.asarray(x0, dtype=float).copy()]
    x = states[0]
    for t0, t1 in zip(schedule, schedule[1:]):
        h = t1 - t0
        if h <= 0.0:
            continue
        bu = system.bu(t0, active=active)
        su = system.b_slope_fd(t0, t1, active=active)
        b0 = scipy.linalg.lu_solve(c_lu, bu)
        s = scipy.linalg.lu_solve(c_lu, su)
        x = etd_exact_step(A, x, b0, s, h)
        times.append(t1)
        states.append(x.copy())
    return np.asarray(times), np.asarray(states)
