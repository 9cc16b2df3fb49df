from __future__ import annotations

import numpy as np
import pytest

import helpers
from trialalloc import Design, DesignProblem, NumericalError, _linalg
from trialalloc._linalg import inverse_factor, spd_factor, spd_inverse, sym


def _spd_stack(rng, shape, p=5):
    a = rng.normal(size=(*shape, p, p))
    return a @ np.swapaxes(a, -1, -2) + p * np.eye(p)


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3)])
def test_inverse_factor_inverts_each_factor_of_a_stack(shape):
    a = _spd_stack(np.random.default_rng(len(shape) + sum(shape)), shape)
    l_inv = inverse_factor(a)
    assert l_inv.shape == a.shape
    np.testing.assert_allclose(l_inv, np.linalg.inv(np.linalg.cholesky(a)),
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(spd_inverse(a), np.linalg.inv(a), rtol=1e-10, atol=1e-14)


def test_a_non_positive_definite_system_is_named():
    a = _spd_stack(np.random.default_rng(7), (3,))
    a[1] = -a[1]
    with pytest.raises(NumericalError, match="^kinship is not positive definite"):
        spd_inverse(a, "kinship")


def test_one_patch_sees_every_factorization(monkeypatch, vc5, profile5):
    whats = []

    def recording(a, what="matrix"):
        whats.append(what)
        return spd_factor(a, what)

    monkeypatch.setattr(_linalg, "spd_factor", recording)
    kin = helpers.random_kinship(np.random.default_rng(5), "dense", K=4)
    problem = DesignProblem(vc5, profile5, kin)
    value = problem.value(Design.exact(np.array([13, 6, 8, 12, 1])))
    assert whats == ["criterion inner matrix", "criterion system"]
    assert np.isfinite(value.phi)


def test_sym_stays_finite_at_the_largest_floats():
    a = np.array([[1e308, 1e308], [1e308, -1e308]])
    np.testing.assert_array_equal(sym(a), a)
