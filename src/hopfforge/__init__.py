"""Exact-arithmetic toolkit for finite-dimensional Hopf algebras.

Everything is structure constants over Q (``int`` when whole, else
``fractions.Fraction``): Hopf algebras and their axiom checkers,
Yetter-Drinfeld modules and their braiding, Radford's braided Hopf
algebra on the kernel of a split projection with its bosonisation,
truncated simplicial Hopf algebras, the level-2 kernel tower, the
Peiffer pairing, braided Hopf crossed module extraction, and a
group-level Moore-complex oracle.  The ``hopfforge`` command line
exposes the same operations on JSON inputs.
"""

__version__ = "0.1.0"

from .errors import (ClosureFailure, CompatibilityFailed, DimensionCapExceeded,
                     DimensionMismatch, HopfForgeError, HypothesisFailed,
                     InvalidCrossedModule, InvalidGroup, IsoFailure,
                     NestingError, NonInvertibleAntipode,
                     NonInvertibleBraiding, NotAProjection, ParseError,
                     SchemaError, UsageError)
from .linalg import (LinMap, SCALAR, Space, Subspace, composite_map, flip,
                     full_subspace, iso_map, kernel_basis, left_unitor, rank,
                     right_unitor, solve, tensor_space,
                     tensor_subspace, try_inverse)
from .report import Check, Report
from .hopf import (GroupTable, HopfAlgebra, HopfMorphism, HopfProjection,
                   adjoint_action, check_cocommutative, check_group_hom,
                   check_hopf, check_morphism, conjugation_action,
                   cyclic_group, group_algebra, linearize_group_hom, max_dim, semidirect_product,
                   sweedler_algebra, symmetric_group_3, s3_sign_indices,
                   trivial_group, zero_morphism)
from .yd import (BraidedHopfAlgebra, BraidedMap, YDModule, check_braided_hopf,
                 check_braided_map, check_yd, projection_yd,
                 pushforward_braided, self_yd_module, smash_product,
                 trivial_yd, yd_braiding, yd_pushforward, yd_tensor)
from .radford import (KernelGenerators, RKerResult, bosonisation,
                      induced_braided_hopf, kernel_generators,
                      kernel_sides_agree, radford_iso, rker)
from .simplicial import (BraidedXMod, GroupCrossedModule, NestedKernel,
                         PeifferPairing, PipelineResult,
                         TruncatedSimplicialGroup, TruncatedSimplicialHopf,
                         check_fg_commutation, check_restriction,
                         check_twisted, constant_simplicial_hopf,
                         dim2_pipeline, extract_xmod, identity_crossed_module,
                         level3_restriction_probe, level_rker, linearize,
                         moore_group_oracle, nerve_of_crossed_module,
                         peiffer_pairing, verify_simplicial)
