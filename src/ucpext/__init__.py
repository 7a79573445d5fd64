"""ucpext: matricial operator systems, UCP semigroups, and their extensions.

The toolkit represents unital self-adjoint subspaces V of d x d matrices,
linear maps on M_d in Choi form, and semigroup generators with conditional
complete positivity certificates.  Its core operations extend UCP maps,
generators, and one-parameter groups from V to the full matrix algebra by
convex feasibility (the projection onto the feasible set, computed through
its dual), including the resolvent-family
construction and uniqueness / non-uniqueness diagnostics.
"""

from .catalog import (EnvelopeInfo, PauliBasis, four_case_catalog, g1, g2,
                      pauli_basis, qubit_system, real_symmetric_system,
                      rebit_dissipative, rebit_rotation, rebit_system,
                      rotation_extension_generator)
from .dynamics import (Generator, GeneratorCertificates, SubsystemGenerator,
                       certify, certify_each, evolve, gksl_generator,
                       has_group_certificate,
                       hilbert_identity_residual,
                       is_conditionally_completely_positive, laplace_resolvent,
                       resolvent, spectral_bound, validate_subsystem_semigroup)
from .errors import (ExtensionInfeasible, Failure, GroupExtensionError,
                     InputError, NumericalError, ResolventFamilyError, Undecided)
from .extension import (ExtensionOptions, ExtensionProblem, ExtensionReport,
                        ResolventFamily, RigidityReport, extend_discrete,
                        extend_generator, extend_group, extend_ucp_map,
                        extend_via_resolvent_family, multi_start,
                        rescale_resolvent, rigidity_probe, rigidity_witness,
                        ucp_extension_feasible)
from .maps import (CPReport, SuperOp, amplification_apply, conjugation_map,
                   from_action, from_kraus, identity_map, is_completely_positive,
                   is_hermiticity_preserving, is_ucp, is_unital, transpose_map,
                   zero_map)
from .systems import (Commutant, LevelElement, MatricialSystem, commutant,
                      contains, is_positive_element, matrix_norm, order_norm_h,
                      project_onto)

__version__ = "0.1.0"
