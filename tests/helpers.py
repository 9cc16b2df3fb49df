"""Shared test data and instance factories.

The maize trialing network (five sub-regions, two model variants) is the
recurring concrete setting; GOLDEN_ROWS pins the published reference optima
for the family-block kinship sweep at J=40.
"""
from __future__ import annotations

import numpy as np

from trialalloc import (BlockCompoundSymmetry, CompoundSymmetry, DenseKinship,
                        Identity, SubRegionProfile, VarianceComponents, materialize,
                        sigma2_alpha_for_unit_asv)

V5 = np.array([
    [567.0, 254.0, 239.0, 485.0, 328.0],
    [254.0, 155.0, 118.0, 240.0, 162.0],
    [239.0, 118.0, 155.0, 226.0, 153.0],
    [485.0, 240.0, 226.0, 488.0, 310.0],
    [328.0, 162.0, 153.0, 310.0, 215.0],
])

ELL5 = np.array([813685.0, 432716.0, 477365.0, 995298.0, 1174818.0])


# The first four maize sub-regions at J=22 with floors of 1, two regions of
# equal cost and the budget at the cheapest fill's spend, 2.6e7.  Above 2**23
# an ulp of the spend exceeds the 1e-9 allowance, and designs that differ only
# between the tied regions can spend floats an ulp apart when summed in region
# order.
TIED_COSTS = [1094066.9566520222, 1549873.183324853, 2107917.219306369, 1094066.9566520222]
TIED_BUDGET = 25539129.535671663


def maize_vc(variant: str = "cross_classified") -> VarianceComponents:
    composite = 333.0 if variant == "cross_classified" else 493.0
    return VarianceComponents(sigma2_omega=31.0, sigma2_tau=18.0,
                              sigma2_gamma=160.0,
                              sigma2_phi_plus_err_over_L=composite,
                              H=3, model_variant=variant)


def maize_profile(with_ell: bool = True) -> SubRegionProfile:
    return SubRegionProfile(V=V5, ell=ELL5 if with_ell else None)


def family_block_kinship(r: float, f: int, m: int) -> BlockCompoundSymmetry:
    """Family-block kinship calibrated to unit average semivariance."""
    s2a = sigma2_alpha_for_unit_asv(f * m, m, r)
    return BlockCompoundSymmetry(f=f, m=m, sigma2_alpha=s2a, r=r)


# Reference optima for the family-block maize network at J=40, standard
# effects criterion, cross-classified variant, unit-asv calibration.  Each
# row: (r, f, m, approximate weights (2 dp), MSE_Tr at the approximate
# optimum, exact counts, MSE_Tr at the exact design, weights_reliable).
# Two rows carry weights inconsistent with their own MSE values
# (transcription artifacts in the source tables); for those only the MSE
# columns are meaningful and weights_reliable is False.
GOLDEN_ROWS = [
    (1 / 2, 6, 5,    (0.33, 0.14, 0.18, 0.31, 0.04), 8751,  (13, 6, 7, 13, 1), 8752,  True),
    (1 / 2, 15, 2,   (0.33, 0.14, 0.19, 0.31, 0.03), 6265,  (13, 6, 8, 12, 1), 6266,  True),
    (1 / 3, 6, 5,    (0.33, 0.14, 0.19, 0.32, 0.02), 7708,  (13, 6, 7, 13, 1), 7709,  True),
    (1 / 3, 15, 2,   (0.33, 0.14, 0.19, 0.31, 0.03), 6070,  (13, 6, 8, 12, 1), 6071,  True),
    (1 / 4, 6, 5,    (0.33, 0.14, 0.19, 0.32, 0.02), 7181,  (13, 6, 7, 13, 1), 7183,  True),
    (1 / 4, 15, 2,   (0.33, 0.14, 0.19, 0.31, 0.03), 5958,  (13, 6, 8, 12, 1), 5960,  True),
    (1 / 2, 6, 15,   (0.34, 0.12, 0.16, 0.32, 0.06), 24359, (14, 5, 6, 13, 2), 24361, True),
    (1 / 2, 18, 5,   (0.33, 0.14, 0.18, 0.31, 0.04), 16040, (13, 6, 7, 13, 1), 16044, True),
    (1 / 3, 6, 15,   (0.33, 0.13, 0.18, 0.32, 0.04), 20897, (13, 5, 7, 13, 2), 20903, True),
    (1 / 3, 18, 5,   (0.33, 0.14, 0.19, 0.31, 0.03), 15513, (13, 6, 7, 13, 1), 15516, True),
    (1 / 4, 6, 15,   (0.33, 0.14, 0.19, 0.32, 0.02), 19155, (13, 6, 7, 13, 1), 19159, True),
    (1 / 4, 18, 5,   (0.33, 0.14, 0.19, 0.32, 0.02), 15173, (13, 6, 7, 13, 1), 15178, True),
    (1 / 2, 6, 50,   (0.36, 0.10, 0.15, 0.34, 0.05), 78247, (14, 4, 6, 14, 2), 78253, True),
    (1 / 2, 15, 20,  (0.35, 0.12, 0.15, 0.32, 0.06), 52068, (14, 5, 6, 13, 2), 52082, True),
    (1 / 2, 60, 5,   (0.33, 0.14, 0.18, 0.31, 0.04), 42327, (13, 6, 7, 13, 1), 42343, True),
    (1 / 3, 6, 50,   (0.34, 0.12, 0.17, 0.33, 0.04), 66473, (13, 5, 7, 13, 2), 66490, True),
    (1 / 3, 15, 20,  (0.34, 0.13, 0.17, 0.32, 0.04), 49776, (13, 5, 7, 13, 2), 49787, True),
    (1 / 3, 60, 5,   (0.33, 0.14, 0.19, 0.31, 0.03), 43215, (13, 6, 7, 13, 1), 43229, True),
    (1 / 4, 6, 50,   (0.34, 0.12, 0.18, 0.32, 0.04), 60588, (14, 5, 7, 13, 1), 60607, True),
    (1 / 4, 15, 20,  (0.33, 0.14, 0.18, 0.32, 0.03), 48349, (14, 5, 7, 13, 1), 48366, True),
    (1 / 4, 60, 5,   (0.33, 0.14, 0.19, 0.31, 0.03), 43344, (13, 6, 8, 12, 1), 43408, True),
    (1 / 2, 6, 150,  (0.38, 0.08, 0.14, 0.36, 0.04), 231418, (14, 4, 6, 15, 1), 231627, True),
    (1 / 2, 15, 60,  (0.37, 0.10, 0.14, 0.34, 0.05), 151087, (15, 4, 6, 13, 2), 151125, True),
    (1 / 2, 60, 15,  (0.35, 0.12, 0.15, 0.32, 0.06), 118676, (14, 5, 6, 13, 2), 118707, True),
    (1 / 3, 6, 150,  (0.35, 0.09, 0.17, 0.35, 0.04), 195903, (14, 4, 7, 14, 1), 196062, False),
    (1 / 3, 15, 60,  (0.35, 0.11, 0.16, 0.33, 0.05), 144757, (14, 4, 7, 13, 2), 144805, True),
    (1 / 3, 60, 15,  (0.34, 0.13, 0.17, 0.32, 0.04), 123656, (13, 5, 7, 13, 2), 123715, True),
    (1 / 4, 6, 150,  (0.34, 0.12, 0.18, 0.33, 0.03), 178305, (14, 5, 7, 13, 1), 178343, True),
    (1 / 4, 15, 60,  (0.35, 0.12, 0.15, 0.32, 0.06), 140810, (14, 5, 7, 12, 2), 140899, False),
    (1 / 4, 60, 15,  (0.33, 0.14, 0.18, 0.32, 0.03), 125205, (13, 6, 7, 13, 1), 125245, True),
]

# Enumerated optima for the identity-kinship maize network (K=31), minimum
# one location per sub-region.
IDENTITY_OPTIMA = {
    ("standard", 20): (8, 1, 3, 7, 1),
    ("weighted", 20): (8, 1, 2, 8, 1),
    ("standard", 40): (13, 6, 8, 12, 1),
    ("weighted", 40): (14, 3, 6, 15, 2),
    ("standard", 100): (28, 17, 21, 27, 7),
    ("weighted", 100): (29, 12, 16, 32, 11),
}


def random_profile(rng: np.random.Generator, P: int,
                   with_ell: bool = True) -> SubRegionProfile:
    a = rng.normal(size=(P, P))
    v = a @ a.T + P * np.eye(P)
    ell = rng.uniform(0.5, 4.0, size=P) if with_ell else None
    return SubRegionProfile(V=v, ell=ell)


def random_vc(rng: np.random.Generator, variant: str = "cross_classified",
              ) -> VarianceComponents:
    return VarianceComponents(
        sigma2_omega=rng.uniform(2.0, 60.0),
        sigma2_tau=rng.uniform(2.0, 60.0),
        sigma2_gamma=rng.uniform(20.0, 250.0),
        sigma2_phi_plus_err_over_L=rng.uniform(80.0, 500.0),
        H=int(rng.integers(1, 5)),
        model_variant=variant,
    )


def random_kinship(rng: np.random.Generator, kind: str, K: int = 6):
    if kind == "identity":
        return Identity(K=K)
    if kind == "cs":
        return CompoundSymmetry(K=K, sigma2_alpha=rng.uniform(0.4, 2.5),
                                r=rng.uniform(0.05, 0.85))
    if kind == "block":
        f = int(rng.integers(2, 4))
        m = max(2, K // f)
        return BlockCompoundSymmetry(f=f, m=m, sigma2_alpha=rng.uniform(0.4, 2.5),
                                     r=rng.uniform(0.05, 0.85))
    if kind == "dense":
        g = rng.normal(size=(K, 3 * K))
        n = g @ g.T / (3 * K) + 0.3 * np.eye(K)
        return DenseKinship(matrix=n)
    raise ValueError(kind)


def dense(kin) -> DenseKinship:
    """``kin`` as an explicit matrix, which a problem evaluates on the full
    eigen path: the reference for the closed forms."""
    return DenseKinship(materialize(kin))


def random_counts(rng: np.random.Generator, P: int, J: int) -> np.ndarray:
    """A random integer allocation with at least one trial per sub-region."""
    counts = np.ones(P, dtype=int)
    extra = rng.multinomial(J - P, np.full(P, 1.0 / P))
    return counts + extra
