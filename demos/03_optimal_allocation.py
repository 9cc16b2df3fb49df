"""
Finding an optimal allocation
=============================

Runs the continuous solver, rounds its weights, and certifies the best
integer design with the exact solver — then repeats the exercise across network sizes and for a
family-structured genotype panel.
"""

import numpy as np

from trialalloc import (BlockCompoundSymmetry, ConstraintSet, DesignProblem,
                        Identity, SubRegionProfile, VarianceComponents,
                        round_to_exact, sigma2_alpha_for_unit_asv,
                        solve_approximate, solve_exact)

V = np.array([
    [567.0, 254.0, 239.0, 485.0, 328.0],
    [254.0, 155.0, 118.0, 240.0, 162.0],
    [239.0, 118.0, 155.0, 226.0, 153.0],
    [485.0, 240.0, 226.0, 488.0, 310.0],
    [328.0, 162.0, 153.0, 310.0, 215.0],
])

vc = VarianceComponents(sigma2_omega=31.0, sigma2_tau=18.0, sigma2_gamma=160.0,
                        sigma2_phi_plus_err_over_L=333.0, H=3)
profile = SubRegionProfile(V=V)


def show(tag, counts, mse):
    print(f"{tag:>24}: {tuple(int(c) for c in counts)}  mse_trace {mse:10.1f}")


def main():
    problem = DesignProblem(vc, profile, Identity(K=31))
    constraints = ConstraintSet(J=40, P=5)   # at least one location per zone

    # Stage 1: continuous weights with a certified optimality gap.
    approx = solve_approximate(problem, constraints, tol=1e-9)
    print("approximate weights:",
          np.round(approx.design.weights, 4).tolist())
    print(f"criterion {approx.phi:.6f}, gap {approx.optimality_gap:.2e}, "
          f"{approx.iterations} iterations")

    # Stage 2: apportion the weights to integers...
    rounded = round_to_exact(approx.design.weights, constraints)
    show("rounded", rounded.counts, problem.mse_trace(rounded))

    # ...and let the exact solver confirm (or beat) the rounding.  It takes
    # the same rounding as its first incumbent and searches count boxes by
    # branch-and-bound until its lower bound certifies the optimum.
    exact = solve_exact(problem, constraints)
    show("exact optimum", exact.design.counts, exact.mse_trace)
    print(f"certified {exact.certified} after {exact.nodes} relaxations, "
          f"gap {exact.optimality_gap:.2e}")
    print(f"integrality cost: {exact.phi - approx.phi:.2e}")

    # How the optimal allocation scales with the size of the network: the
    # proportions stay put while the precision improves.
    print("\nnetwork-size sweep")
    for J in (20, 40, 100):
        report = solve_exact(problem, ConstraintSet(J=J, P=5))
        show(f"J={J}", report.design.counts, report.mse_trace)

    # Same exercise for six families of five sibs (within-family correlation
    # one half, scaled to unit average semivariance): relatedness lowers the
    # effective number of independent genotypes, so the per-genotype error
    # grows, but the optimal shape of the allocation barely moves.
    print("\nfamily-structured panel, J=40")
    s2a = sigma2_alpha_for_unit_asv(30, 5, 0.5)
    kin = BlockCompoundSymmetry(f=6, m=5, sigma2_alpha=s2a, r=0.5)
    fam = DesignProblem(vc, profile, kin)
    report = solve_exact(fam, ConstraintSet(J=40, P=5))
    show("30 related genotypes", report.design.counts, report.mse_trace)


if __name__ == "__main__":
    main()
