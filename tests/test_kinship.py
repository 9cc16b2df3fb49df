from __future__ import annotations

import numpy as np
import pytest

from trialalloc import (BlockCompoundSymmetry, CompoundSymmetry, DenseKinship,
                        Identity, ValidationError, asv, load_kinship_csv,
                        materialize, sigma2_alpha_for_unit_asv, validate_pd)


class TestMaterialize:
    def test_identity(self):
        np.testing.assert_allclose(materialize(Identity(K=4)), np.eye(4))

    def test_compound_symmetry(self):
        spec = CompoundSymmetry(K=3, sigma2_alpha=2.0, r=0.25)
        expected = spec.a1 * np.eye(3) + spec.a * np.ones((3, 3))
        np.testing.assert_allclose(materialize(spec), expected)
        assert spec.a == pytest.approx(0.5)
        assert spec.a1 == pytest.approx(1.5)

    def test_family_blocks(self):
        spec = BlockCompoundSymmetry(f=2, m=3, sigma2_alpha=1.0, r=0.5)
        n = materialize(spec)
        assert spec.K == 6
        block = spec.b1 * np.eye(3) + spec.b * np.ones((3, 3))
        np.testing.assert_allclose(n, np.kron(np.eye(2), block))
        # independence across families
        assert np.abs(n[:3, 3:]).max() == 0.0

    def test_dense_passthrough(self):
        mat = np.array([[2.0, 0.3], [0.3, 1.5]])
        np.testing.assert_allclose(materialize(DenseKinship(matrix=mat)), mat)

    def test_jitter_adds_to_diagonal(self):
        base = materialize(CompoundSymmetry(K=4, sigma2_alpha=1.0, r=0.3))
        jittered = materialize(CompoundSymmetry(K=4, sigma2_alpha=1.0, r=0.3,
                                                jitter=1e-4))
        np.testing.assert_allclose(jittered, base + 1e-4 * np.eye(4))


class TestValidation:
    def test_correlation_bounds(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\)"):
            CompoundSymmetry(K=3, sigma2_alpha=1.0, r=1.0)
        with pytest.raises(ValidationError):
            BlockCompoundSymmetry(f=2, m=2, sigma2_alpha=1.0, r=-0.1)

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            Identity(K=1)
        with pytest.raises(ValidationError):
            BlockCompoundSymmetry(f=1, m=1, sigma2_alpha=1.0, r=0.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValidationError, match="jitter"):
            Identity(K=3, jitter=-1e-9)

    @pytest.mark.parametrize("mat, message", [
        (np.ones((2, 3)), "matrix must be square"),
        (np.ones((1, 1)), "matrix must be at least 2x2"),
        ([[1.0, np.inf], [np.inf, 1.0]], "matrix must be finite"),
    ])
    def test_malformed_dense_is_named(self, mat, message):
        with pytest.raises(ValidationError, match=message):
            DenseKinship(matrix=mat)

    def test_asymmetric_dense_rejected(self):
        mat = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            DenseKinship(matrix=mat)


class TestAverageSemivariance:
    def test_identity_is_one(self):
        assert asv(np.eye(7)) == pytest.approx(1.0)

    def test_invariant_to_constant_shift(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(5, 9))
        n = g @ g.T
        shifted = n + 3.7 * np.ones((5, 5))
        assert asv(shifted) == pytest.approx(asv(n))

    def test_exchangeable_value(self):
        spec = CompoundSymmetry(K=6, sigma2_alpha=2.0, r=0.4)
        assert asv(materialize(spec)) == pytest.approx(spec.a1)

    def test_unit_asv_calibration(self):
        for K, m, r in [(30, 5, 0.5), (90, 15, 1 / 3), (900, 15, 0.25)]:
            s2a = sigma2_alpha_for_unit_asv(K, m, r)
            f = K // m
            n = materialize(BlockCompoundSymmetry(f=f, m=m, sigma2_alpha=s2a, r=r))
            assert asv(n) == pytest.approx(1.0)

    def test_no_family_structure_means_unit_scale(self):
        assert sigma2_alpha_for_unit_asv(20, 1, 0.7) == pytest.approx(1.0)

    def test_single_family_calibration_blows_up(self):
        # K = m is one big family: the scale needed for unit average
        # semivariance grows like 1/(1-r) as the correlation approaches one
        assert sigma2_alpha_for_unit_asv(2, 2, 0.999999999) == pytest.approx(
            1e9, rel=1e-6)
        assert sigma2_alpha_for_unit_asv(6, 6, 0.5) == pytest.approx(2.0)


class TestPdDiagnostics:
    def test_pd_matrix_passes(self):
        diag = validate_pd(np.diag([2.0, 1.0, 0.5]))
        assert diag.is_pd
        assert bool(diag)
        assert diag.condition_number == pytest.approx(4.0)
        assert diag.suggested_jitter == 0.0

    def test_singular_matrix_gets_a_working_suggestion(self):
        n = np.ones((5, 5))
        diag = validate_pd(n)
        assert not diag.is_pd
        fixed = validate_pd(n + diag.suggested_jitter * np.eye(5))
        assert fixed.is_pd


class TestCsvLoading:
    def test_plain_matrix(self, tmp_path):
        mat = np.array([[1.0, 0.2], [0.2, 1.5]])
        path = tmp_path / "kin.csv"
        np.savetxt(path, mat, delimiter=",")
        spec = load_kinship_csv(path)
        np.testing.assert_allclose(spec.matrix, mat)

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "kin.csv"
        path.write_text("g1,g2\n1.0,0.2\n0.2,1.5\n")
        spec = load_kinship_csv(path, jitter=1e-8)
        assert spec.K == 2
        assert spec.jitter == 1e-8

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "kin.csv"
        path.write_text("1.0,0.2\n0.2\n")
        with pytest.raises(ValidationError, match="ragged"):
            load_kinship_csv(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "kin.csv"
        path.write_text("1.0,0.2,0.1\n0.2,1.5,0.3\n")
        with pytest.raises(ValidationError, match="square"):
            load_kinship_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "kin.csv"
        path.write_text("\n\n")
        with pytest.raises(ValidationError, match="empty"):
            load_kinship_csv(path)
