from __future__ import annotations

import numpy as np
import pytest

import helpers
from trialalloc import (CompoundSymmetry, Design, Identity, ModelVariant,
                        SubRegionProfile, ValidationError, VarianceComponents,
                        centering_matrix, effective_error_constant,
                        moment_matrix, scaled_genetic_covariances,
                        scaled_year_matrix)
from trialalloc.kinship import DenseKinship
from trialalloc.model import DENSE_KP_LIMIT


class TestVarianceComponents:
    def test_composite_from_separate(self):
        vc = VarianceComponents.from_separate(
            sigma2_omega=31.0, sigma2_tau=18.0, sigma2_gamma=160.0,
            sigma2_phi=300.0, sigma2_err=99.0, L=3, H=3)
        assert vc.sigma2_phi_plus_err_over_L == pytest.approx(333.0)
        assert vc.L == 3

    def test_variant_coercion_from_string(self):
        vc = helpers.maize_vc("nested")
        assert vc.model_variant is ModelVariant.NESTED

    def test_zero_tau_rejected(self):
        with pytest.raises(ValidationError, match="sigma2_tau"):
            VarianceComponents(sigma2_omega=0.0, sigma2_tau=0.0,
                               sigma2_gamma=1.0,
                               sigma2_phi_plus_err_over_L=1.0, H=1)

    def test_negative_component_rejected(self):
        with pytest.raises(ValidationError):
            VarianceComponents(sigma2_omega=-1.0, sigma2_tau=1.0,
                               sigma2_gamma=1.0,
                               sigma2_phi_plus_err_over_L=1.0, H=1)

    @pytest.mark.parametrize("variant, gamma, field", [
        ("cross_classified", 0.0, "sigma2_gamma or sigma2_phi_plus_err_over_L"),
        ("nested", 160.0, "sigma2_phi_plus_err_over_L"),
    ], ids=["cross_classified", "nested"])
    def test_degenerate_error_constant_rejected(self, variant, gamma, field):
        # a zero composite leaves no error variance unless sigma2_gamma enters
        with pytest.raises(ValidationError, match=f"degenerate: {field} must be positive"):
            VarianceComponents(sigma2_omega=31.0, sigma2_tau=18.0, sigma2_gamma=gamma,
                               sigma2_phi_plus_err_over_L=0.0, H=3, model_variant=variant)
        with pytest.raises(ValidationError, match=f"degenerate: {field} must be positive"):
            VarianceComponents.from_separate(
                sigma2_omega=31.0, sigma2_tau=18.0, sigma2_gamma=gamma, sigma2_phi=0.0,
                sigma2_err=0.0, L=3, H=3, model_variant=variant)

    def test_bad_h_rejected(self):
        with pytest.raises(ValidationError, match="H"):
            VarianceComponents(sigma2_omega=1.0, sigma2_tau=1.0,
                               sigma2_gamma=1.0,
                               sigma2_phi_plus_err_over_L=1.0, H=0)


class TestEffectiveErrorConstant:
    def test_cross_classified(self, vc5):
        # sigma2_gamma + composite / H
        assert effective_error_constant(vc5) == pytest.approx(271.0)

    def test_nested_drops_location_interaction(self, vc5_nested):
        assert effective_error_constant(vc5_nested) == pytest.approx(493.0 / 3.0)

    def test_nested_composite_only_in_zero_gamma_limit(self):
        vc = VarianceComponents(sigma2_omega=5.0, sigma2_tau=2.0,
                                sigma2_gamma=0.0,
                                sigma2_phi_plus_err_over_L=300.0, H=4,
                                model_variant="nested")
        assert effective_error_constant(vc) == pytest.approx(75.0)


class TestSubRegionProfile:
    def test_maize_profile(self, profile5):
        assert profile5.P == 5
        assert profile5.ell is not None

    @pytest.mark.parametrize("v, message", [
        (np.ones((2, 3)), "V must be square"),
        (np.ones((1, 1)), "V must be at least 2x2"),
        ([[1.0, np.nan], [np.nan, 1.0]], "V must be finite"),
    ])
    def test_malformed_v_is_named(self, v, message):
        with pytest.raises(ValidationError, match=message):
            SubRegionProfile(V=v)

    def test_asymmetric_v_rejected(self):
        v = np.array([[2.0, 0.5], [0.1, 2.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            SubRegionProfile(V=v)

    def test_indefinite_v_rejected(self):
        with pytest.raises(ValidationError, match="positive definite"):
            SubRegionProfile(V=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_ell_length_mismatch(self):
        with pytest.raises(ValidationError, match="ell"):
            SubRegionProfile(V=np.eye(3), ell=[1.0, 2.0])

    def test_nonpositive_ell_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            SubRegionProfile(V=np.eye(2), ell=[1.0, 0.0])


class TestDesign:
    def test_exact_induces_weights(self):
        d = Design.exact([3, 1, 4])
        assert d.J == 8
        assert d.kind == "exact"
        np.testing.assert_allclose(d.weights, [3 / 8, 1 / 8, 4 / 8])

    def test_approximate(self):
        d = Design.approximate([0.25, 0.75], J=12)
        assert d.kind == "approximate"
        assert d.counts is None

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            Design.approximate([0.2, 0.2], J=10)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            Design(weights=np.array([1.2, -0.2]), J=5)

    def test_counts_must_match_j(self):
        with pytest.raises(ValidationError, match="sum"):
            Design(weights=np.array([0.5, 0.5]), J=10,
                   counts=np.array([4, 4]))

    def test_float_counts_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            Design(weights=np.array([0.5, 0.5]), J=8,
                   counts=np.array([4.0, 4.0]))


def test_moment_matrix_is_weight_diagonal():
    d = Design.approximate([0.1, 0.6, 0.3], J=10)
    np.testing.assert_allclose(moment_matrix(d), np.diag([0.1, 0.6, 0.3]))


def test_centering_matrix_projects_out_the_mean():
    t = centering_matrix(6)
    np.testing.assert_allclose(t @ t, t, atol=1e-14)
    np.testing.assert_allclose(t, t.T)
    np.testing.assert_allclose(t @ np.ones(6), np.zeros(6), atol=1e-14)


class TestScaledYearMatrix:
    def test_maize_values(self, vc5):
        rt = scaled_year_matrix(vc5, J=40, P=5)
        factor = 40.0 / (271.0 * 3.0)
        assert rt[0, 0] == pytest.approx(factor * 49.0)   # ≈ 2.4108
        assert rt[0, 1] == pytest.approx(factor * 31.0)   # ≈ 1.5252

    def test_eigenvalue_structure(self, vc5):
        J, P = 24, 4
        rt = scaled_year_matrix(vc5, J=J, P=P)
        factor = J / (271.0 * vc5.H)
        eigs = np.sort(np.linalg.eigvalsh(rt))
        np.testing.assert_allclose(eigs[:-1], factor * 18.0 * np.ones(P - 1))
        assert eigs[-1] == pytest.approx(factor * (18.0 + P * 31.0))

    def test_vanishes_in_the_zero_variance_limit(self):
        vc = VarianceComponents(sigma2_omega=0.0, sigma2_tau=1e-12,
                                sigma2_gamma=160.0,
                                sigma2_phi_plus_err_over_L=333.0, H=3)
        rt = scaled_year_matrix(vc, J=40, P=5)
        assert np.abs(rt).max() < 1e-10


class TestScaledGeneticCovariances:
    def test_vt_scaling(self, vc5, profile5):
        sg = scaled_genetic_covariances(vc5, 40, profile5, Identity(K=4))
        np.testing.assert_allclose(sg.Vt, (40.0 / 271.0) * profile5.V)

    def test_dense_matches_kron(self, vc5, profile5):
        rng = np.random.default_rng(5)
        kin = helpers.random_kinship(rng, "dense", K=4)
        sg = scaled_genetic_covariances(vc5, 12, profile5, kin)
        np.testing.assert_allclose(sg.dense(), np.kron(sg.N, sg.Vt))

    def test_non_pd_kinship_rejected_with_jitter_hint(self, vc5, profile5):
        n = np.ones((4, 4))  # rank one
        with pytest.raises(ValidationError, match="jitter"):
            scaled_genetic_covariances(vc5, 10, profile5,
                                       DenseKinship(matrix=n))

    def test_jitter_recovers_singular_kinship(self, vc5, profile5):
        n = np.ones((4, 4))
        sg = scaled_genetic_covariances(vc5, 10, profile5,
                                        DenseKinship(matrix=n, jitter=1e-6))
        assert sg.K == 4

    def test_dense_guard(self, vc5, profile5):
        sg = scaled_genetic_covariances(vc5, 10, profile5,
                                        Identity(K=DENSE_KP_LIMIT // 5 + 1))
        with pytest.raises(ValidationError, match="limit"):
            sg.dense()


def _with_nan(matrix):
    out = np.array(matrix, dtype=float)
    out[0, 1] = out[1, 0] = np.nan
    return out


class TestNonFiniteAndFractionalInputs:
    """Every constructor rejects NaN, infinities and fractional counts by name."""

    @pytest.mark.parametrize("build, field", [
        (lambda: Design.approximate([np.nan, 0.5, 0.5], 10), "weights"),
        (lambda: SubRegionProfile(V=_with_nan(helpers.V5)), "V"),
        (lambda: SubRegionProfile(V=np.eye(2), ell=[1.0, np.inf]), "ell"),
        (lambda: CompoundSymmetry(K=4, sigma2_alpha=np.inf, r=0.3), "sigma2_alpha"),
        (lambda: DenseKinship(matrix=_with_nan(np.eye(3))), "matrix"),
        (lambda: Identity(K=2.5), "K"),
        (lambda: VarianceComponents(sigma2_omega=1.0, sigma2_tau=1.0, sigma2_gamma=1.0,
                                    sigma2_phi_plus_err_over_L=1.0, H=np.inf), "H"),
        (lambda: Design.exact([2.5, 1.5]), "counts"),
        (lambda: VarianceComponents.from_separate(
            sigma2_omega=1.0, sigma2_tau=1.0, sigma2_gamma=1.0, sigma2_phi=1.0,
            sigma2_err=np.nan, L=2, H=1), "sigma2_err"),
    ], ids=["design-weights", "profile-V", "profile-ell", "cs-sigma2_alpha",
            "dense-matrix", "identity-K", "variance-H", "exact-counts",
            "separate-sigma2_err"])
    def test_rejected_naming_the_field(self, build, field):
        with pytest.raises(ValidationError, match=field):
            build()
