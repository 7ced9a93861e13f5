"""Frozen corpus of the Hessenberg-side kernel and the marches built on it.

MATEX reduces every ``exp(hA)v`` to small dense work on the Arnoldi
Hessenberg block: a Padé matrix exponential, the per-flavour effective
exponent (``-H``, ``-H⁻¹`` or ``(I - H̃⁻¹)/γ``) and the posterior
residual of paper Eqs. (7)/(8)/(10).  This module records what that
kernel computes on seeded inputs, so refactors of the kernel are checked
against stored numbers rather than against a second copy of the code:

* seeded upper-Hessenberg blocks with m ∈ {0, 1, 2, 4, 9, 13, 30} in
  three kinds — well conditioned, exactly singular, and scaled so the
  1-norm exceeds θ₁₃ (the scaling-and-squaring branch) — with their
  ``expm``, ``expm_e1`` and stacked ``fast_expm_stack`` slices, and per
  Krylov flavour the effective exponent, the error row and the
  posterior estimate at three steps;
* per-column Krylov bases on a small dense pencil (the scalar
  ``build_basis`` and lockstep ``build_bases_block`` agree, so one
  record serves both);
* per-node trajectories on the six-by-six multi-source mesh for the
  standard, inverted and rational flavours (the per-node and lockstep
  marches agree, so one record serves both).

A case that raises records the exception class name instead of a value.
The corpus also stores a fingerprint of the numeric stack (numpy/scipy
versions, the runtime OpenBLAS configuration, the CPU model);
``tests/test_hessenberg_corpus.py`` compares bitwise when the
fingerprint matches and within ``rtol=1e-12`` otherwise.

Regenerate only when a change is *meant* to move these numbers::

    PYTHONPATH=src python tests/hessenberg_corpus.py
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

CORPUS_PATH = Path(__file__).parent / "data" / "hessenberg_corpus.npz"

METHODS = ("standard", "inverted", "rational")
GAMMA = 1e-10
BLOCK_DIMS = (0, 1, 2, 4, 9, 13, 30)
BLOCK_KINDS = ("rand", "singular", "big")
ESTIMATE_STEPS = (1e-12, 1e-10, 1e-9)
ESTIMATE_BETA = 2.7
#: Scale of the "big" kind: pushes ‖a‖₁ past θ₁₃ ≈ 5.37 at every m ≥ 1.
BIG_SCALE = 40.0

PENCIL_N = 30
PENCIL_COLUMNS = 7
PENCIL_M_MAX = 20
PENCIL_TOL = 1e-8

MESH_T_END = 1e-9
MESH_EPS_REL = 1e-8


# -- fingerprint of the numeric stack --------------------------------------------------


def _openblas_configs() -> list[str]:
    """Runtime configuration strings of the OpenBLAS copies numpy and
    scipy bundle (core type included), or their build-time strings."""
    configs = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        found = None
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                         "openblas_get_config64_", "openblas_get_config"):
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_char_p
                    found = fn().decode()
                    break
            if found is not None:
                break
        if found is None:
            blas = pkg.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
            found = f"build: {blas.get('name')} {blas.get('version')}"
        configs.append(found)
    return configs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """What must match for the corpus to be reproducible bit for bit."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_configs(),
        "cpu": _cpu_model(),
    }


# -- inputs -----------------------------------------------------------------------------


def hessenberg_block(m: int, kind: str) -> np.ndarray:
    """Seeded ``(m+1) × m`` upper-Hessenberg block of the given kind."""
    rng = np.random.default_rng(1400 + m)
    H = np.triu(rng.standard_normal((m + 1, m)), k=-1)
    if m:
        H[:m, :m] += 2.0 * np.eye(m)
        H[m, m - 1] = abs(H[m, m - 1]) + 0.1
    if kind == "singular" and m:
        H[m - 1, :] = 0.0  # zero last row of the square block
    elif kind == "big":
        H *= BIG_SCALE
    return H


def pencil() -> tuple[sp.csc_matrix, sp.csc_matrix, list, list, list]:
    """A small well-conditioned RC-like pencil and its start columns."""
    rng = np.random.default_rng(3)
    n = PENCIL_N
    g = rng.standard_normal((n, n)) * 0.3
    G = sp.csc_matrix(g @ g.T + n * np.eye(n))
    C = sp.csc_matrix(np.diag(rng.uniform(0.5, 2.0, n)) * 1e-12)
    vs = [rng.standard_normal(n) for _ in range(PENCIL_COLUMNS - 1)]
    vs.append(np.zeros(n))  # trivially converged empty column
    hs = [1e-10 * (k + 1) for k in range(PENCIL_COLUMNS)]
    tols = [PENCIL_TOL] * PENCIL_COLUMNS
    return C, G, vs, hs, tols


def mesh_options(method: str):
    from repro.core import SolverOptions

    return SolverOptions(method=method, gamma=GAMMA, eps_rel=MESH_EPS_REL)


def mesh_system():
    """The six-by-six multi-source mesh of the shared test fixtures."""
    spec = importlib.util.spec_from_file_location(
        "_corpus_fixtures", Path(__file__).parent / "conftest.py"
    )
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)

    from repro.circuit import assemble

    return assemble(fixtures.build_multi_source_mesh())


def mesh_tasks(system):
    """The per-source-group tasks of the mesh ``system``."""
    from repro.dist import MatexScheduler, SimulationTask

    sched = MatexScheduler(system, mesh_options("rational"), decomposition="bump")
    gts = tuple(system.global_transition_spots(MESH_T_END))
    return [
        SimulationTask(task_id=g.group_id, group=g, t_end=MESH_T_END, global_points=gts)
        for g in sched.groups(t_end=MESH_T_END)
    ]


# -- recording --------------------------------------------------------------------------


def _outcome(fn):
    """``fn()`` as an array, or the raised exception's class name."""
    try:
        return np.asarray(fn(), dtype=float)
    except (IndexError, ValueError) as exc:  # LinAlgError is a ValueError
        return np.asarray(type(exc).__name__)


def record_blocks(out: dict) -> None:
    from repro.linalg.expm import expm, expm_e1, fast_expm_stack
    from repro.linalg.krylov import make_krylov_operator

    C, G, _, _, _ = pencil()
    ops = {m: make_krylov_operator(m, C, G, gamma=GAMMA) for m in METHODS}
    for m in BLOCK_DIMS:
        squares = []
        for kind in BLOCK_KINDS:
            H = hessenberg_block(m, kind)
            sq = np.ascontiguousarray(H[:m, :m])
            squares.append(sq)
            key = f"block/m{m}/{kind}"
            out[f"{key}/H"] = H
            out[f"{key}/expm"] = _outcome(lambda sq=sq: expm(sq))
            out[f"{key}/expm_e1"] = _outcome(lambda sq=sq: expm_e1(sq))
            for name, op in ops.items():
                out[f"{key}/{name}/effective_hm"] = _outcome(
                    lambda op=op, sq=sq: op.effective_hm(sq)
                )
                out[f"{key}/{name}/error_row"] = _outcome(
                    lambda op=op, sq=sq: op._error_row(sq)
                )
                for i, h in enumerate(ESTIMATE_STEPS):
                    out[f"{key}/{name}/error_estimate/{i}"] = _outcome(
                        lambda op=op, h=h, H=H: op.error_estimate(h, H, ESTIMATE_BETA)
                    )
        out[f"stack/m{m}"] = _outcome(lambda s=np.stack(squares): fast_expm_stack(s))


def record_pencil(out: dict) -> None:
    from repro.linalg.krylov import make_krylov_operator

    C, G, vs, hs, tols = pencil()
    for name in METHODS:
        op = make_krylov_operator(name, C, G, gamma=GAMMA)
        for k, (v, h, tol) in enumerate(zip(vs, hs, tols)):
            b = op.build_basis(v, h, tol, m_max=PENCIL_M_MAX, min_dim=2)
            key = f"pencil/{name}/{k}"
            out[f"{key}/scalars"] = np.array(
                [b.m, b.beta, b.h_built, b.h_next, b.error_estimate]
            )
            out[f"{key}/Vm"] = b.Vm
            out[f"{key}/Hm"] = b.Hm
            out[f"{key}/err_row"] = (
                np.asarray("None") if b.err_row is None else b.err_row
            )


def record_mesh(out: dict) -> None:
    from repro.dist import NodeWorker

    system = mesh_system()
    tasks = mesh_tasks(system)
    for name in METHODS:
        worker = NodeWorker(system, mesh_options(name))
        for res in (worker.run(t) for t in tasks):
            key = f"mesh/{name}/{res.task_id}"
            out[f"{key}/times"] = res.times
            out[f"{key}/states"] = res.states


def build_corpus() -> dict:
    out: dict = {"fingerprint": np.asarray(json.dumps(fingerprint(), sort_keys=True))}
    record_blocks(out)
    record_pencil(out)
    record_mesh(out)
    return out


def main() -> int:
    out = build_corpus()
    os.makedirs(CORPUS_PATH.parent, exist_ok=True)
    np.savez_compressed(CORPUS_PATH, **out)
    print(f"wrote {len(out)} records to {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
