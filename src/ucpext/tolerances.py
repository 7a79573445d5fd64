"""Centralized tolerance and budget defaults.

Three tolerance tiers, from strict to loose:

  STRUCTURAL  -- symmetry / shape checks on inputs (Hermitian residual, etc.)
  NUMERIC     -- residuals of well-conditioned dense linear algebra
  FEASIBILITY -- user-facing convergence targets of the feasibility solver
"""

STRUCTURAL_TOL = 1e-12
NUMERIC_TOL = 1e-10
FEASIBILITY_TOL = 1e-8

# Condition number above which a matrix counts as numerically singular.
SINGULAR_COND = 1e13

# Iteration budgets (cone projections) and the multi-start count.
SOLVE_MAX_ITER = 200_000     # one extension solve
VALIDATE_MAX_ITER = 50_000   # each feasibility check of a validation
DEFAULT_STARTS = 8           # randomized starts of the multi-start commands
