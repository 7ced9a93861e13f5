"""The Hessenberg kernel and both marches against the frozen corpus.

``tests/data/hessenberg_corpus.npz`` was recorded by
``tests/hessenberg_corpus.py`` and is never regenerated to make a
refactor pass.  On a machine whose numeric stack matches the recorded
fingerprint every value must agree bit for bit; elsewhere (other BLAS
kernels, other CPUs) within ``rtol=1e-12``.  A recorded exception class
must be raised again.
"""

import json

import numpy as np
import pytest

import hessenberg_corpus as hc
from repro.dist import BlockNodeRunner, NodeWorker
from repro.linalg.block_krylov import build_bases_block
from repro.linalg.expm import expm, expm_e1
from repro.linalg.krylov import make_krylov_operator

try:
    from repro.linalg.expm import fast_expm_stack
except ImportError:  # where the corpus was recorded it lived beside the lockstep march
    from repro.linalg.block_krylov import fast_expm_stack

CORPUS = dict(np.load(hc.CORPUS_PATH))
RECORDED = json.loads(str(CORPUS["fingerprint"]))
BITWISE = hc.fingerprint() == RECORDED
RTOL = 1e-12


@pytest.fixture(scope="module", autouse=True)
def report_mode():
    mode = "bitwise" if BITWISE else f"rtol={RTOL:g} (fingerprint differs)"
    print(f"hessenberg corpus: {mode} comparison")


def assert_matches(actual, expected, what):
    expected = np.asarray(expected)
    actual = np.asarray(actual, dtype=float)
    assert actual.shape == expected.shape, what
    if BITWISE:
        assert actual.tobytes() == expected.tobytes(), f"{what}: not bitwise"
    else:
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0, err_msg=what)


def check(key, fn):
    expected = CORPUS[key]
    if expected.dtype.kind == "U":
        with pytest.raises((IndexError, ValueError)) as info:  # LinAlgError is a ValueError
            fn()
        assert type(info.value).__name__ == str(expected), key
    else:
        assert_matches(fn(), expected, key)


@pytest.mark.parametrize("m", hc.BLOCK_DIMS)
def test_block_kernels(m):
    C, G, _, _, _ = hc.pencil()
    ops = {name: make_krylov_operator(name, C, G, gamma=hc.GAMMA) for name in hc.METHODS}
    squares = []
    for kind in hc.BLOCK_KINDS:
        key = f"block/m{m}/{kind}"
        H = CORPUS[f"{key}/H"]
        np.testing.assert_array_equal(H, hc.hessenberg_block(m, kind))
        sq = np.ascontiguousarray(H[:m, :m])
        squares.append(sq)
        check(f"{key}/expm", lambda sq=sq: expm(sq))
        check(f"{key}/expm_e1", lambda sq=sq: expm_e1(sq))
        for name, op in ops.items():
            check(f"{key}/{name}/effective_hm", lambda op=op, sq=sq: op.effective_hm(sq))
            check(f"{key}/{name}/error_row", lambda op=op, sq=sq: op._error_row(sq))
            for i, h in enumerate(hc.ESTIMATE_STEPS):
                check(
                    f"{key}/{name}/error_estimate/{i}",
                    lambda op=op, h=h, H=H: op.error_estimate(h, H, hc.ESTIMATE_BETA),
                )
    check(f"stack/m{m}", lambda: fast_expm_stack(np.stack(squares)))


def assert_basis_matches(basis, key):
    assert_matches(
        [basis.m, basis.beta, basis.h_built, basis.h_next, basis.error_estimate],
        CORPUS[f"{key}/scalars"], f"{key}/scalars",
    )
    assert_matches(basis.Vm, CORPUS[f"{key}/Vm"], f"{key}/Vm")
    assert_matches(basis.Hm, CORPUS[f"{key}/Hm"], f"{key}/Hm")
    row = CORPUS[f"{key}/err_row"]
    if row.dtype.kind == "U":
        assert basis.err_row is None, key
    else:
        assert_matches(basis.err_row, row, f"{key}/err_row")


@pytest.mark.parametrize("method", hc.METHODS)
def test_pencil_bases_scalar_and_lockstep(method):
    C, G, vs, hs, tols = hc.pencil()
    op = make_krylov_operator(method, C, G, gamma=hc.GAMMA)
    for k, (v, h, tol) in enumerate(zip(vs, hs, tols)):
        basis = op.build_basis(v, h, tol, m_max=hc.PENCIL_M_MAX, min_dim=2)
        assert_basis_matches(basis, f"pencil/{method}/{k}")
    op = make_krylov_operator(method, C, G, gamma=hc.GAMMA)
    blocks = build_bases_block(op, vs, hs, tols, m_max=hc.PENCIL_M_MAX, min_dim=2)
    for k, basis in enumerate(blocks):
        assert_basis_matches(basis, f"pencil/{method}/{k}")


@pytest.mark.parametrize("method", hc.METHODS)
def test_mesh_per_node_and_lockstep(method, mesh_system):
    system, tasks = mesh_system, hc.mesh_tasks(mesh_system)
    opts = hc.mesh_options(method)
    worker = NodeWorker(system, opts)
    per_node = [worker.run(t) for t in tasks]
    lockstep = BlockNodeRunner(system, opts).run(tasks)
    for results in (per_node, lockstep):
        assert len(results) == len(tasks)
        for res in results:
            key = f"mesh/{method}/{res.task_id}"
            assert_matches(res.times, CORPUS[f"{key}/times"], f"{key}/times")
            assert_matches(res.states, CORPUS[f"{key}/states"], f"{key}/states")
