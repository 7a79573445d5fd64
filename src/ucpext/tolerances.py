"""Centralized tolerance and budget defaults.

Two tolerance tiers, from strict to loose:

  STRUCTURAL  -- symmetry / shape checks on inputs (Hermitian residual, etc.)
  FEASIBILITY -- every certificate: solver residuals, generator certificates
"""

STRUCTURAL_TOL = 1e-12
FEASIBILITY_TOL = 1e-8

# The Hermiticity residual that an image of a map on V may carry
# (``extension.ExtensionProblem.for_map``).
IMAGE_HERMITIAN_TOL = 1e-10
# The least tolerance of the UCP check on the input of
# ``extension.rescale_resolvent``: max(tol, RESCALE_UCP_TOL_FLOOR).
RESCALE_UCP_TOL_FLOOR = 1e-6
# ``extension.rigidity_probe``'s largest distance from a converged start to the
# identity on a rigid V: max(IDENTITY_THRESHOLD_SLACK tol, IDENTITY_THRESHOLD_FLOOR).
IDENTITY_THRESHOLD_SLACK = 50.0
IDENTITY_THRESHOLD_FLOOR = 1e-6

# Condition number above which a matrix counts as numerically singular.
SINGULAR_COND = 1e13
# ``systems.MatricialSystem.from_basis``: a basis whose smallest Gram
# eigenvalue is at most this is numerically dependent.
GRAM_INDEPENDENCE_TOL = 1e-10
# The norm bisections of ``systems`` (``matrix_norm``, ``order_norm_h``)
# accept a PSD test whose smallest eigenvalue is at least
# -BISECTION_SLACK (1 + ||m||_F).
BISECTION_SLACK = 1e-13

# The CLI's ``identities`` command: the default bound on the Hilbert
# identity residuals, and the bound on the Laplace quadrature errors.
IDENTITIES_TOL = 1e-9
LAPLACE_TOL = 1e-6
# The CLI's ``demo-rebit`` checks: the largest distance of the rotation's
# extension from the commutator generator, the least spread on Y that shows
# the dissipation's extensions differ, and the bound on the restriction
# errors and Pauli coefficients of g1 and g2, which hold exactly.
DEMO_UNIQUE_DISTANCE_TOL = 1e-6
DEMO_NONUNIQUE_SPREAD = 1e-3
DEMO_EXACT_TOL = 1e-12

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
