"""Unit tests for the dense Padé matrix exponential."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.linalg import expm, expm_e1


class TestExpmAccuracy:
    @pytest.mark.parametrize("n", [2, 5, 13, 40])
    def test_matches_scipy_random(self, n, rng):
        a = rng.normal(size=(n, n))
        assert np.allclose(expm(a), sla.expm(a), rtol=1e-12, atol=1e-13)

    def test_matches_scipy_large_norm(self, rng):
        a = 50.0 * rng.normal(size=(8, 8))  # forces scaling-and-squaring
        assert np.allclose(expm(a), sla.expm(a), rtol=1e-9, atol=1e-9)

    def test_stiff_negative_spectrum(self):
        a = np.diag([-1e3, -1.0, -1e-3])
        assert np.allclose(expm(a), np.diag(np.exp([-1e3, -1.0, -1e-3])))

    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent_exact(self):
        # exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly.
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(a), [[1.0, 1.0], [0.0, 1.0]])

    def test_1x1_and_0x0(self):
        assert expm(np.array([[2.0]]))[0, 0] == pytest.approx(np.exp(2.0))
        assert expm(np.zeros((0, 0))).shape == (0, 0)


class TestExpmValidation:
    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        a = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            expm(a)


class TestHelpers:
    def test_expm_e1_is_first_column(self, rng):
        a = rng.normal(size=(6, 6))
        assert np.allclose(expm_e1(a), expm(a)[:, 0])
