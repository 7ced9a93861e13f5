"""Block-batched node execution: one lockstep march for all node tasks.

Every task of a decomposed run shares the full system's MNA pencil and
the same global-transition-spot grid (paper Sec. 3.4) — only the *input
columns* differ.  The per-node path (:class:`~repro.dist.worker.NodeWorker`)
therefore runs N nearly identical Python marches back to back.
:class:`BlockNodeRunner` fuses them into block linear algebra without
changing a single bit of the results:

* **Round lockstep.**  Node ``k``'s march is a chain over its *own*
  local transition spots; between two consecutive LTS every snapshot
  state depends only on the segment's Krylov basis, never on the
  previous snapshot.  So the runner iterates over *segment rounds*:
  in round ``r`` every task builds its ``r``-th ETD segment and Krylov
  basis together — three multi-RHS ``G`` substitutions
  (:meth:`~repro.linalg.lu.SparseLU.solve_many`) and one lockstep
  block-Arnoldi (:func:`~repro.linalg.block_krylov.build_bases_block`)
  instead of ``width`` scalar sequences.
* **Span-batched snapshots.**  The snapshot states of a whole segment
  are evaluated in one :meth:`~repro.linalg.krylov.KrylovBasis.evaluate_many`
  call; its loop-ordered kernel makes each column bit-identical to the
  scalar ``evaluate_with_error`` the per-node path performs, including
  the posterior-error rebuild decisions.

Bit-for-bit parity with :class:`~repro.dist.worker.NodeWorker` on both
executors is enforced by ``tests/test_block_runner.py``; it is what lets
Table-3 numbers stay untouched while the wall time drops by the batching
factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuit.mna import MNASystem
from repro.core.options import SolverOptions
from repro.core.solver import MatexSolver, REUSE_SAFETY
from repro.core.stats import SolverStats
from repro.core.transition import TransitionSchedule, build_schedule
from repro.dist.messages import NodeResult, SimulationTask
from repro.dist.worker import run_task
from repro.linalg.block_krylov import build_bases_block, prime_eig_payloads

__all__ = ["BlockNodeRunner"]


@dataclass
class _TaskState:
    """Per-task marching state across lockstep rounds.

    ``rows``/``bu_comp`` hold the task's input grid in compact form:
    only the MNA rows its ``B`` columns actually touch (a handful per
    source group), with values bit-identical to the corresponding rows
    of the dense ``MNASystem.bu_series`` grid — all other rows of that
    grid are exactly ``+0.0`` and never materialised.
    """

    task: SimulationTask
    schedule: TransitionSchedule
    rows: np.ndarray
    bu_comp: np.ndarray
    lts: list[int]
    states: np.ndarray
    stats: SolverStats
    x: np.ndarray
    eps_segment: float = 0.0
    basis: object = None
    v_alts: np.ndarray | None = None
    F: np.ndarray | None = None
    w2: np.ndarray | None = None
    i0: int = 0
    i1: int = 0
    krylov_dims: list[int] = field(default_factory=list)


class BlockNodeRunner:
    """Advances many :class:`SimulationTask` messages in lockstep.

    Construction mirrors :class:`~repro.dist.worker.NodeWorker`: one
    :class:`~repro.core.solver.MatexSolver` in deviation mode owns the
    factorisations (usually served by the process-wide
    :data:`~repro.linalg.lu.FACTORIZATION_CACHE`), and the construction
    cache traffic is attributed to the first task result of the first
    :meth:`run` call.

    Parameters
    ----------
    system:
        The full assembled MNA system.
    options:
        Solver options shared across the batch.
    """

    def __init__(self, system: MNASystem, options: SolverOptions | None = None):
        self.system = system
        self.options = options if options is not None else SolverOptions()
        self.solver = MatexSolver(system, self.options, deviation_mode=True)
        self._pending_cache_hits = self.solver.construction_cache_hits
        self._pending_cache_misses = self.solver.construction_cache_misses
        # Reusable (dim, 2·width) RHS buffer for the segment rounds and
        # the entries written into it last round (see _build_segments).
        self._busu: np.ndarray | None = None
        self._busu_dirty: list[tuple[np.ndarray, int]] = []

    # -- public API ---------------------------------------------------------------

    def run(self, tasks: Sequence[SimulationTask]) -> list[NodeResult]:
        """Simulate every task; results in input order.

        Tasks sharing one ``(global_points, t_end)`` grid march
        together; mixed batches are grouped by grid and each group
        marches in lockstep.  That grouping is also what stacks a
        *scenario sweep* (:mod:`repro.plan`) into one march: every
        scenario of a compiled plan reuses the plan's frozen grid, so
        its RHS columns join the same lockstep rounds as every other
        scenario's — N scenarios × K groups advance as one N·K-wide
        block instead of N separate batches.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        groups: dict[tuple, list[int]] = {}
        for pos, task in enumerate(tasks):
            groups.setdefault((task.global_points, task.t_end), []).append(pos)
        results: dict[int, NodeResult] = {}
        for positions in groups.values():
            batch = self._run_grid_batch([tasks[p] for p in positions])
            for p, res in zip(positions, batch):
                results[p] = res
        ordered = [results[p] for p in range(len(tasks))]
        if ordered:
            first = ordered[0]
            first.stats.n_factor_cache_hits += self._pending_cache_hits
            first.stats.n_factor_cache_misses += self._pending_cache_misses
            self._pending_cache_hits = 0
            self._pending_cache_misses = 0
        return ordered

    # -- lockstep march ---------------------------------------------------------

    def _prepare(self, task: SimulationTask) -> _TaskState:
        """Schedule, input grid and marching state of one task.

        Identical pre-march arithmetic to ``MatexSolver.simulate``: the
        inputs are evaluated once over the whole grid (vectorised across
        the task's column set) and deviation-shifted by the t=0 column.
        """
        overrides = task.group.overrides_dict() or None
        schedule = task.schedule
        if schedule is None:
            schedule = build_schedule(
                self.system,
                task.t_end,
                local_inputs=task.group.input_columns,
                global_points=task.global_points,
                waveform_overrides=overrides,
            )
        input_system = self.system
        if overrides:
            input_system = self.system.with_waveforms(overrides)
        pts = np.asarray(schedule.points)

        # Compact input grid: the same scatter accumulation as
        # MNASystem.bu_series (shared through bu_scatter_terms, which
        # owns the accumulation order), restricted to the rows the
        # task's B columns touch — bit-identical values; untouched rows
        # of the dense grid are exactly +0.0.
        B = input_system.B
        indptr, indices = B.indptr, B.indices
        cols = task.group.input_columns
        col_rows = [indices[indptr[c]:indptr[c + 1]] for c in cols]
        rows = (
            np.unique(np.concatenate(col_rows))
            if col_rows else np.empty(0, dtype=indices.dtype)
        )
        bu_comp = np.zeros((len(rows), len(pts)))
        for term_rows, vals, u_row in input_system.bu_scatter_terms(pts, cols):
            local = np.searchsorted(rows, term_rows)
            bu_comp[local] += vals[:, None] * u_row[None, :]
        bu0 = bu_comp[:, 0].copy()
        bu_comp -= bu0[:, None]

        n_pts = len(pts)
        dim = self.system.dim
        states = np.empty((n_pts, dim))
        x = np.zeros(dim)
        states[0] = x
        lts = [i for i in range(n_pts - 1) if schedule.is_lts[i]]
        return _TaskState(
            task=task,
            schedule=schedule,
            rows=rows,
            bu_comp=bu_comp,
            lts=lts,
            states=states,
            stats=SolverStats(factor_seconds=self.solver.factor_seconds),
            x=x,
        )

    def _run_grid_batch(self, tasks: list[SimulationTask]) -> list[NodeResult]:
        tstates = [self._prepare(t) for t in tasks]

        # The lockstep march assumes a strictly increasing shared grid
        # (guaranteed for scheduler-built grids, whose transition spots
        # are tolerance-deduplicated).  Anything else falls back to the
        # reference per-node march, task by task.
        pts_ref = np.asarray(tstates[0].schedule.points)
        degenerate = not np.all(np.diff(pts_ref) > 0.0)
        aligned = all(
            len(t.schedule.points) == len(pts_ref)
            and np.array_equal(np.asarray(t.schedule.points), pts_ref)
            for t in tstates
        )
        if degenerate or not aligned:
            return [self._run_single(t) for t in tasks]

        t_march = time.perf_counter()
        round_idx = 0
        while True:
            builders = [t for t in tstates if round_idx < len(t.lts)]
            if not builders:
                break
            self._build_segments(builders, pts_ref, round_idx)
            self._build_bases(builders, pts_ref)
            for t in builders:
                self._evaluate_span(t, pts_ref)
            round_idx += 1
        march_seconds = time.perf_counter() - t_march

        # The paper's per-node "pure transient computing" has no direct
        # analogue inside a fused march; apportion the measured wall
        # time by each task's substitution-pair share (the quantity
        # node effort scales with) so tr_matex stays meaningful.
        total_solves = sum(t.stats.n_solves_transient for t in tstates)
        for t in tstates:
            if total_solves > 0:
                share = t.stats.n_solves_transient / total_solves
            else:
                share = 1.0 / len(tstates)
            t.stats.transient_seconds = march_seconds * share
            t.stats.krylov_dims = t.krylov_dims

        return [
            NodeResult(
                task_id=t.task.task_id,
                group_id=t.task.group.group_id,
                label=t.task.group.label,
                times=pts_ref.copy(),
                states=t.states,
                stats=t.stats,
            )
            for t in tstates
        ]

    def _build_segments(
        self, builders: list[_TaskState], pts: np.ndarray, round_idx: int
    ) -> None:
        """Batched ETD vectors: three multi-RHS ``G`` solves per round."""
        lu_g = self.solver.workspace.lu_g
        C = self.system.C
        width = len(builders)
        for t in builders:
            t.i0 = t.lts[round_idx]
            t.i1 = (
                t.lts[round_idx + 1]
                if round_idx + 1 < len(t.lts)
                else len(pts) - 1
            )
        n = self.system.dim
        if width == 1:
            t = builders[0]
            h = pts[t.i0 + 1] - pts[t.i0]
            bu = np.zeros(n)
            su = np.zeros(n)
            bu[t.rows] = t.bu_comp[:, t.i0]
            su[t.rows] = (t.bu_comp[:, t.i0 + 1] - t.bu_comp[:, t.i0]) / h
            w1 = lu_g.solve(bu)
            w2 = lu_g.solve(su)
            w3 = lu_g.solve(C @ w2)
            t.F = -w1 + w3
            t.w2 = w2
            t.stats.n_solves_etd += 3
            return
        # One fused multi-RHS substitution serves both the value (BU)
        # and slope (SU) vectors — each column is an independent pair,
        # so fusing changes call count, not numbers.  The RHS block is
        # scattered into one runner-held buffer reused across rounds:
        # only the entries written last round are re-zeroed (``= 0.0``
        # stores the same ``+0.0`` a fresh allocation holds), so reuse
        # is bit-identical to allocating a (dim, 2·width) block per
        # round while eliminating that hot-path allocation.
        need = 2 * width
        if self._busu is None or self._busu.shape[1] < need:
            self._busu = np.zeros((n, need))
            self._busu_dirty = []
        for rows, col in self._busu_dirty:
            self._busu[rows, col] = 0.0
        dirty = []
        BUSU = self._busu[:, :need]
        for c, t in enumerate(builders):
            h = pts[t.i0 + 1] - pts[t.i0]
            BUSU[t.rows, c] = t.bu_comp[:, t.i0]
            BUSU[t.rows, width + c] = (
                t.bu_comp[:, t.i0 + 1] - t.bu_comp[:, t.i0]
            ) / h
            dirty.append((t.rows, c))
            dirty.append((t.rows, width + c))
        self._busu_dirty = dirty
        W12 = lu_g.solve_many(BUSU)
        W1, W2 = W12[:, :width], W12[:, width:]
        W3 = lu_g.solve_many(C @ W2)
        for c, t in enumerate(builders):
            t.F = -W1[:, c] + W3[:, c]
            t.w2 = np.ascontiguousarray(W2[:, c])
            t.stats.n_solves_etd += 3

    def _build_bases(self, builders: list[_TaskState], pts: np.ndarray) -> None:
        """One lockstep block-Arnoldi for every task's new segment."""
        opts = self.options
        vs, hs, tols = [], [], []
        for t in builders:
            v = t.x + t.F
            t.v_alts = v
            t.eps_segment = (
                opts.eps_rel * float(np.linalg.norm(v)) + opts.eps_abs
            )
            vs.append(v)
            hs.append(pts[t.i0 + 1] - pts[t.i0])
            tols.append(t.eps_segment)
        bases = build_bases_block(
            self.solver.op, vs, hs, tols,
            m_max=opts.m_max, min_dim=opts.m_min,
        )
        prime_eig_payloads(bases)
        for t, basis in zip(builders, bases):
            t.basis = basis
            t.stats.n_krylov_bases += 1
            t.stats.n_solves_krylov += basis.m
            t.krylov_dims.append(basis.m)

    def _rebuild_basis(self, t: _TaskState, ha: float) -> None:
        """Snapshot-triggered basis regeneration (rare; width-1 build)."""
        (basis,) = build_bases_block(
            self.solver.op, [t.v_alts], [ha], [t.eps_segment],
            m_max=self.options.m_max, min_dim=self.options.m_min,
        )
        t.basis = basis
        t.stats.n_krylov_bases += 1
        t.stats.n_solves_krylov += basis.m
        t.krylov_dims.append(basis.m)

    def _evaluate_span(self, t: _TaskState, pts: np.ndarray) -> None:
        """States of one segment: LTS step plus error-checked snapshots.

        ``span_hs[0]`` is the fresh segment's own step (plain evaluate,
        as Alg. 2's LTS branch); every later entry is a snapshot whose
        posterior error is re-checked against the generation budget,
        regenerating the basis exactly where the per-node path would.
        """
        span_hs = pts[t.i0 + 1: t.i1 + 1] - pts[t.i0]
        n_span = len(span_hs)
        t.stats.n_steps += n_span
        if t.basis.m == 0 and not t.F.any() and not t.w2.any():
            # Quiescent segment (node idle before its delay): the empty
            # basis evaluates to zero and P(h) ≡ ±0, so every marching
            # step lands exactly on +0.0 — skip the span evaluation.
            t.states[t.i0 + 1: t.i1 + 1] = 0.0
            t.stats.n_reuses += n_span - 1
            t.x = t.states[t.i1]
            return
        Y, errs = t.basis.evaluate_many(span_hs)
        threshold = REUSE_SAFETY * t.eps_segment
        if not np.any(errs[1:] > threshold):
            # No rebuilds anywhere in the segment (the overwhelmingly
            # common case — Fig. 5 says reuse error shrinks with h):
            # evaluate P(h) and commit the states straight into the
            # task's trajectory block, allocation-free.
            dst = t.states[t.i0 + 1: t.i1 + 1]
            np.multiply(span_hs[:, None], t.w2[None, :], out=dst)
            np.subtract(t.F[None, :], dst, out=dst)
            np.subtract(Y, dst, out=dst)
            t.stats.n_reuses += n_span - 1
            t.x = t.states[t.i1]
            return
        P_span = t.F[None, :] - span_hs[:, None] * t.w2[None, :]
        X_span = Y - P_span
        t.states[t.i0 + 1] = X_span[0]
        k = 1
        offset = 0  # span index where the current Y/errs/X_span start
        while k < n_span:
            if errs[k - offset] > threshold:
                ha = float(span_hs[k])
                self._rebuild_basis(t, ha)
                Yk, _ = t.basis.evaluate_many([ha], with_errors=False)
                t.states[t.i0 + 1 + k] = Yk[0] - (t.F - ha * t.w2)
                k += 1
                if k < n_span:
                    # Re-evaluate only the remaining tail against the
                    # fresh basis; committed steps stay committed.
                    offset = k
                    Y, errs = t.basis.evaluate_many(span_hs[offset:])
                    X_span = Y - P_span[offset:]
                continue
            t.stats.n_reuses += 1
            t.states[t.i0 + 1 + k] = X_span[k - offset]
            k += 1
        t.x = t.states[t.i1]

    # -- reference fallback -------------------------------------------------------

    def _run_single(self, task: SimulationTask) -> NodeResult:
        """Reference per-node march (degenerate grids): the same
        :func:`repro.dist.worker.run_task` the per-node path runs."""
        return run_task(self.solver, task)
