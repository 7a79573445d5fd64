"""Centralized tolerance and budget defaults.

Two tolerance tiers, from strict to loose:

  STRUCTURAL  -- symmetry / shape checks on inputs (Hermitian residual, etc.)
  FEASIBILITY -- every certificate: solver residuals, generator certificates
"""

STRUCTURAL_TOL = 1e-12
FEASIBILITY_TOL = 1e-8

# Condition number above which a matrix counts as numerically singular.
SINGULAR_COND = 1e13

# Iteration budgets: evaluations of the dual, one cone projection (one eigh)
# each; the CG steps of a Newton step are not counted.  They are ceilings, not
# expected costs: a feasible problem with a positive-definite feasible point
# takes tens of evaluations, and infeasible or degenerate runs stop on the
# plateau rule after about a hundred Newton steps.
SOLVE_MAX_ITER = 200_000     # one extension solve
VALIDATE_MAX_ITER = 50_000   # each feasibility check of a validation
# demo-rebit's start count (its dissipative non-uniqueness check and the
# cross-check of its rotation group) and the default of its ``--starts`` flag.
# rigidity_probe (no solve) and extend_group (one solve, of +A) decide by
# certificate and run no randomized start unless asked.
DEFAULT_STARTS = 8
