"""Optimal allocation of multi-environment crop trials to sub-regions.

A genotype's performance across a heterogeneous target region is predicted
from a multi-environment trial network via a linear mixed model with
year, location and genotype-by-environment effects, and genotype effects
correlated through a kinship structure.  This package computes allocations
of a fixed number of trial locations to sub-regions that minimize the
average prediction error — the trace of the mean squared error matrix of
the genotype-effect predictors (or of all pairwise genotype contrasts),
optionally weighted by sub-regional importance.

The pieces:

- :mod:`trialalloc.model` — variance components, sub-region structure,
  designs, the effective error constant and the scaled year covariance;
- :mod:`trialalloc.kinship` — identity, exchangeable, family-block and
  dense genotype relationship structures, with the average-semivariance
  calibration;
- :mod:`trialalloc.criteria` — the design criteria, their gradients and the
  MSE trace, one :class:`DesignProblem` per criterion, evaluated per
  eigen-group of the centred kinship, in closed form for structured kinship;
- :mod:`trialalloc.optimizer` — approximate (weight) optimization over a
  constraint polytope, rounding, exact (integer) search, and design
  efficiency comparison;
- :mod:`trialalloc.oracle` — small brute-force reference implementations
  used by the test-suite;
- :mod:`trialalloc.cli` — the ``trialalloc`` command.
"""
from __future__ import annotations

from .criteria import (CriterionSpec, CriterionValue, DesignProblem, Path,
                       Target, Weighting)
from .errors import InfeasibleError, NumericalError, ValidationError
from .kinship import (BlockCompoundSymmetry, CompoundSymmetry, DenseKinship,
                      Identity, KinshipSpec, PdDiagnostic, asv,
                      load_kinship_csv, materialize,
                      sigma2_alpha_for_unit_asv, validate_pd)
from .model import (Design, ModelVariant, SubRegionProfile,
                    VarianceComponents, effective_error_constant,
                    scaled_year_matrix)
from .optimizer import (ConstraintSet, OptimizerReport, efficiency,
                        round_to_exact, solve_approximate, solve_exact)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ValidationError", "InfeasibleError", "NumericalError",
    # model
    "ModelVariant", "VarianceComponents", "SubRegionProfile", "Design",
    "effective_error_constant", "scaled_year_matrix",
    # kinship
    "Identity", "CompoundSymmetry", "BlockCompoundSymmetry", "DenseKinship",
    "KinshipSpec", "PdDiagnostic", "materialize", "asv",
    "sigma2_alpha_for_unit_asv", "validate_pd", "load_kinship_csv",
    # criteria
    "Target", "Weighting", "Path", "CriterionSpec", "CriterionValue",
    "DesignProblem",
    # optimizer
    "ConstraintSet", "OptimizerReport", "solve_approximate", "solve_exact",
    "round_to_exact", "efficiency",
]
