"""The small-dense Hessenberg kernel and the lockstep block-Arnoldi.

The block-batched distributed fast path is only allowed to exist because
every number it produces is identical to the scalar reference path.
There is one copy of the small-dense arithmetic, checked here against
independent oracles (``scipy.linalg.expm``, ``numpy.linalg``, SciPy's
LU wrappers around the same LAPACK routines):

* ``TestFastExpm`` — the raw-LAPACK Padé kernel (``expm`` and the
  stacked ``fast_expm_stack``, whose slices must equal it bitwise);
* ``TestFastHessenberg`` — ``HessenbergFactors`` (inverse, transposed
  row solve, singularity and non-finite handling);
* ``TestFastEstimator`` — the per-flavour effective exponent, error row
  and posterior estimates, and the lockstep batched estimates that must
  equal the scalar ones bitwise;
* ``TestBlockBases`` — ``build_bases_block`` == one ``op.build_basis``
  per column.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro.linalg.block_krylov import _batched_test_estimates, _Column, build_bases_block
from repro.linalg.expm import expm, fast_expm_stack
from repro.linalg.krylov import (
    HessenbergFactors,
    InvertedKrylov,
    RationalKrylov,
    StandardKrylov,
    make_krylov_operator,
)

METHODS = ["standard", "inverted", "rational"]


def small_system(n=24, seed=0):
    """A well-conditioned dense-ish RC-like pencil."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) * 0.3
    G = sp.csc_matrix(g @ g.T + n * np.eye(n))
    C = sp.csc_matrix(np.diag(rng.uniform(0.5, 2.0, n)) * 1e-12)
    return C, G


def make_op(method, C, G):
    return make_krylov_operator(method, C, G, gamma=1e-10)


def hessenberg(rng, m, shift=0.0):
    """Random ``(m+1) × m`` upper-Hessenberg block with a positive
    subdiagonal tail."""
    H = np.triu(rng.standard_normal((m + 1, m)), k=-1)
    H[:m, :m] += shift * np.eye(m)
    H[m, m - 1] = abs(H[m, m - 1]) + 0.1
    return H


def e_last(m):
    e_m = np.zeros(m)
    e_m[m - 1] = 1.0
    return e_m


def oracle_estimate(op, h, H, beta):
    """The per-flavour posterior estimate from numpy/scipy primitives."""
    m = H.shape[1]
    sq = H[:m, :m]
    if op.method == "standard":
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = -h * sq
        aug[0, m] = h
        return beta * abs(H[m, m - 1]) * abs(sla.expm(aug)[m - 1, m])
    inv = np.linalg.inv(sq)
    heff = -inv if op.method == "inverted" else (np.eye(m) - inv) / op.gamma
    row = np.linalg.solve(sq.T, e_last(m))
    return beta * abs(H[m, m - 1] * (row @ sla.expm(h * heff)[:, 0]))


class TestFastExpm:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 1e3])
    def test_bitwise_vs_reference(self, scale):
        """Against scipy where finite; stacked slices bitwise equal to
        the scalar kernel (the lockstep/per-node contract)."""
        rng = np.random.default_rng(7)
        for m in [1, 2, 5, 13]:
            stack = rng.standard_normal((3, m, m)) * scale
            got = fast_expm_stack(stack.copy())
            for k in range(3):
                ours = expm(stack[k])
                assert got[k].tobytes() == ours.tobytes()
                with np.errstate(over="ignore", invalid="ignore"):
                    ref = sla.expm(stack[k])
                if np.all(np.isfinite(ref)) and np.abs(ref).max() < 1e300:
                    np.testing.assert_allclose(
                        ours, ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max()
                    )

    def test_upper_hessenberg_shapes(self):
        rng = np.random.default_rng(8)
        a = np.triu(rng.standard_normal((9, 9)), k=-1)
        np.testing.assert_allclose(expm(a), sla.expm(a), rtol=1e-12, atol=1e-13)

    def test_empty(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)
        assert fast_expm_stack(np.zeros((2, 0, 0))).shape == (2, 0, 0)

    def test_nonfinite_raises(self):
        a = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            expm(a)
        with pytest.raises(ValueError):
            fast_expm_stack(np.stack([np.eye(2), a]))


class TestFastHessenberg:
    def test_inverse_and_row_bitwise(self):
        """The inverse is bitwise numpy's gesv inverse; the row solve is
        bitwise SciPy's lu_solve(trans=1) on the same getrf factors."""
        rng = np.random.default_rng(9)
        for m in [1, 3, 8, 15]:
            h = np.triu(rng.standard_normal((m, m)), k=-1) + 2 * np.eye(m)
            f = HessenbergFactors(h)
            assert not f.singular
            assert f.inverse().tobytes() == np.linalg.inv(h).tobytes()
            rhs = e_last(m)
            row = f.solve_transposed(rhs.copy())
            ref = sla.lu_solve(sla.lu_factor(h), rhs, trans=1)
            assert row.tobytes() == ref.tobytes()
            np.testing.assert_allclose(row, np.linalg.solve(h.T, rhs), rtol=1e-10, atol=1e-13)

    def test_singular_block(self):
        """An exactly singular block: the inverse comes from the
        identity-shifted factors, the row solve refuses."""
        h = np.array([[1.0, 1.0], [0.0, 0.0]])
        f = HessenbergFactors(h)
        assert f.singular
        delta = 1e-30 * (1.0 + np.abs(h).max())
        shifted = np.linalg.inv(h + delta * np.eye(2))
        assert f.inverse().tobytes() == shifted.tobytes()
        with pytest.raises(np.linalg.LinAlgError):
            f.solve_transposed(np.array([0.0, 1.0]))

    def test_nonfinite_block_rejected(self):
        """Raw getrf does not reject non-finite input (an inf entry can
        even give a finite "inverse"); the factors refuse it up front,
        as SciPy's lu_factor does."""
        for bad in (np.nan, np.inf):
            h = np.array([[bad, 1.0], [1.0, 2.0]])
            with pytest.raises(ValueError):
                sla.lu_factor(h)
            with pytest.raises(ValueError, match="non-finite"):
                HessenbergFactors(h)


class TestFastEstimator:
    @pytest.mark.parametrize("method", METHODS)
    def test_estimates_bitwise(self, method):
        """Scalar estimates match the numpy/scipy oracle, and the lockstep
        batched estimates equal the scalar ones bitwise."""
        C, G = small_system()
        op = make_op(method, C, G)
        rng = np.random.default_rng(11)
        beta = 2.7
        for m in [2, 4, 9]:
            Hs = [hessenberg(rng, m, shift=2.0) for _ in range(3)]
            for h in [1e-12, 1e-10, 1e-9]:
                scalar = [op.error_estimate(h, H, beta) for H in Hs]
                for H, est in zip(Hs, scalar):
                    np.testing.assert_allclose(
                        est, oracle_estimate(op, h, H, beta), rtol=1e-6, atol=1e-20
                    )
                cols = []
                for k, H in enumerate(Hs):
                    c = _Column(idx=k, v=np.zeros(1), h=h, tol=0.0, beta=beta)
                    c.H = H
                    cols.append(c)
                batched = _batched_test_estimates(op, cols, m)
                assert [batched[k] for k in range(3)] == scalar

    @pytest.mark.parametrize("method", ["inverted", "rational"])
    def test_effective_hm_and_row_bitwise(self, method):
        C, G = small_system()
        op = make_op(method, C, G)
        rng = np.random.default_rng(12)
        for m in [1, 5, 10]:
            h_square = np.triu(rng.standard_normal((m, m)), k=-1) + np.eye(m)
            inv = np.linalg.inv(h_square)
            want = -inv if method == "inverted" else (np.eye(m) - inv) / op.gamma
            assert op.effective_hm(h_square).tobytes() == want.tobytes()
            row = sla.lu_solve(sla.lu_factor(h_square), e_last(m), trans=1)
            assert op._error_row(h_square).tobytes() == row.tobytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_nonfinite_block_estimates_inf(self, method):
        C, G = small_system()
        op = make_op(method, C, G)
        H = hessenberg(np.random.default_rng(15), 4, shift=2.0)
        for bad in (np.nan, np.inf):
            H_bad = H.copy()
            H_bad[1, 1] = bad
            assert op.error_estimate(1e-10, H_bad, 1.0) == np.inf
            c = _Column(idx=0, v=np.zeros(1), h=1e-10, tol=0.0, beta=1.0)
            c.H = H_bad
            twin = _Column(idx=1, v=np.zeros(1), h=1e-10, tol=0.0, beta=1.0)
            twin.H = H
            batched = _batched_test_estimates(op, [c, twin], 4)
            assert batched[0] == np.inf
            assert batched[1] == op.error_estimate(1e-10, H, 1.0)

    @pytest.mark.parametrize("method", ["inverted", "rational"])
    def test_singular_block_estimates_inf(self, method):
        """No ``e_m^T H⁻¹`` row exists: "not converged", and the error
        row raises."""
        C, G = small_system()
        op = make_op(method, C, G)
        H = hessenberg(np.random.default_rng(16), 4, shift=2.0)
        regular = H.copy()
        H[3, :] = 0.0
        assert op.error_estimate(1e-10, H, 1.0) == np.inf
        with pytest.raises(np.linalg.LinAlgError):
            op._error_row(H[:4, :4])
        cols = []
        for k, block in enumerate((H, regular)):
            c = _Column(idx=k, v=np.zeros(1), h=1e-10, tol=0.0, beta=1.0)
            c.H = block
            cols.append(c)
        batched = _batched_test_estimates(op, cols, 4)
        assert batched == {0: np.inf, 1: op.error_estimate(1e-10, regular, 1.0)}

    def test_singular_block_standard_estimate_is_finite(self):
        """MEXP never inverts ``H``: its estimate on a singular block is
        the ordinary (here exactly zero) residual."""
        C, G = small_system()
        op = make_op("standard", C, G)
        H = hessenberg(np.random.default_rng(16), 4, shift=2.0)
        H[3, :] = 0.0
        assert op.error_estimate(1e-10, H, 1.0) == 0.0
        assert op._hess_factors(H[:4, :4]) is None


def assert_bases_equal(ref, blk):
    assert ref.m == blk.m
    assert ref.beta == blk.beta
    assert ref.method == blk.method
    assert ref.h_built == blk.h_built
    assert ref.h_next == blk.h_next
    assert ref.error_estimate == blk.error_estimate or (
        np.isinf(ref.error_estimate) and np.isinf(blk.error_estimate)
    )
    np.testing.assert_array_equal(ref.Vm, blk.Vm)
    np.testing.assert_array_equal(ref.Hm, blk.Hm)
    if ref.err_row is None:
        assert blk.err_row is None
    else:
        np.testing.assert_array_equal(ref.err_row, blk.err_row)


class TestBlockBases:
    @pytest.mark.parametrize("method", METHODS)
    def test_block_matches_scalar_builds(self, method):
        C, G = small_system(n=30, seed=3)
        rng = np.random.default_rng(13)
        n = 30
        vs = [rng.standard_normal(n) for _ in range(6)]
        vs.append(np.zeros(n))  # trivially-converged empty column
        hs = [1e-10 * (k + 1) for k in range(7)]
        tols = [1e-8] * 7

        op_ref = make_op(method, C, G)
        refs = [
            op_ref.build_basis(v, h, tol, m_max=20, min_dim=2)
            for v, h, tol in zip(vs, hs, tols)
        ]
        op_blk = make_op(method, C, G)
        blks = build_bases_block(op_blk, vs, hs, tols, m_max=20, min_dim=2)

        assert len(blks) == len(refs)
        for ref, blk in zip(refs, blks):
            assert_bases_equal(ref, blk)
        # Solve accounting: one pair per column per active iteration.
        assert op_blk.n_solves == op_ref.n_solves == sum(b.m for b in blks)

    @pytest.mark.parametrize("method", METHODS)
    def test_width_one_matches_scalar(self, method):
        C, G = small_system(n=18, seed=5)
        v = np.random.default_rng(6).standard_normal(18)
        op_ref = make_op(method, C, G)
        ref = op_ref.build_basis(v, 2e-10, 1e-9, m_max=15, min_dim=2)
        op_blk = make_op(method, C, G)
        (blk,) = build_bases_block(
            op_blk, [v], [2e-10], [1e-9], m_max=15, min_dim=2
        )
        assert_bases_equal(ref, blk)

    def test_evaluations_match(self):
        """End-to-end: bases evaluated at many steps agree bitwise."""
        C, G = small_system(n=26, seed=8)
        rng = np.random.default_rng(14)
        vs = [rng.standard_normal(26) for _ in range(4)]
        op_ref = RationalKrylov(C, G, gamma=1e-10)
        op_blk = RationalKrylov(C, G, gamma=1e-10)
        refs = [op_ref.build_basis(v, 1e-10, 1e-9) for v in vs]
        blks = build_bases_block(op_blk, vs, [1e-10] * 4, [1e-9] * 4)
        hs = np.linspace(1e-11, 5e-10, 17)
        for ref, blk in zip(refs, blks):
            Yr, er = ref.evaluate_many(hs)
            Yb, eb = blk.evaluate_many(hs)
            np.testing.assert_array_equal(Yr, Yb)
            np.testing.assert_array_equal(er, eb)
            for k, h in enumerate(hs):
                y, err = ref.evaluate_with_error(float(h))
                np.testing.assert_array_equal(y, Yb[k])
                assert err == eb[k]

    def test_input_validation(self):
        C, G = small_system(n=10)
        op = InvertedKrylov(C, G)
        with pytest.raises(ValueError, match="equal lengths"):
            build_bases_block(op, [np.ones(10)], [1e-10], [])
        assert build_bases_block(op, [], [], []) == []
        with pytest.raises(ValueError, match="share one dimension"):
            build_bases_block(
                op, [np.ones(10), np.ones(9)], [1e-10] * 2, [1e-9] * 2
            )

    def test_standard_operator_supported(self):
        """MEXP builds in lockstep: no Hessenberg factors, exponent -H."""
        C, G = small_system(n=12, seed=2)
        op = StandardKrylov(C, G)
        assert op._hess_factors(np.eye(3)) is None
        np.testing.assert_array_equal(op.effective_hm(np.eye(3)), -np.eye(3))
        v = np.random.default_rng(17).standard_normal(12)
        (basis,) = build_bases_block(op, [v], [1e-10], [1e-9], m_max=12)
        assert basis.method == "standard" and basis.m > 0
