"""Centralized tolerance and budget defaults.

Two tolerance tiers, from strict to loose:

  STRUCTURAL  -- symmetry / shape checks on inputs (Hermitian residual, etc.)
  FEASIBILITY -- every certificate: solver residuals, generator certificates
"""

STRUCTURAL_TOL = 1e-12
FEASIBILITY_TOL = 1e-8

# Condition number above which a matrix counts as numerically singular.
SINGULAR_COND = 1e13

# Iteration budgets (cone projections) and the multi-start count.
SOLVE_MAX_ITER = 200_000     # one extension solve
VALIDATE_MAX_ITER = 50_000   # each feasibility check of a validation
DEFAULT_STARTS = 8           # randomized starts of the multi-start commands
