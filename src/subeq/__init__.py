"""Constraint-set calculus for fully nonlinear degenerate-elliptic operators.

The library models a second-order operator as the closed set of 2-jets it
declares admissible, and everything else — duality, monotonicity cones,
eigenvalue branches, boundary convexity, the grid solver — is set algebra
on those jets.
"""

from .errors import (SubeqError, DimensionMismatch, SamplerExhausted,
                     NotHyperbolicError, BracketError, GeometryError,
                     ConfigError)
from .linalg import ComplexStructure, eigvalsh_batch
from .core import (Jet, jet_norm, JetBox, Subequation, Membership,
                   dual, shift, member, classify,
                   sample_jet_batch, sample_members, axiom_check,
                   monotonicity_check, strict_member,
                   asymptotic_interior_member, validate_registration,
                   ViolationReport, MonotonicityReport)
from .catalog import (make_branch, make_pcone, make_pbranch,
                      make_uniformly_elliptic, make_delta_branch,
                      make_monotonicity_cone, parse_name,
                      dual_name, GrassmannSet, grassmann_sample,
                      DirectionalCone, circular_cone)
from .garding import (HyperbolicPolynomial, named_polynomial,
                      garding_eigenvalues, hyperbolicity_check,
                      branch_subequation, garding_cone, eigenvalues_batch)
from .jetmaps import (AffineJetMap, apply, apply_batch, compose, invert,
                      transform_subequation, inhom_branch, calabi_yau_map,
                      complex_calabi_yau, linear_part, negate_translation)
from .riesz import (RieszResult, riesz_characteristic, pcone_inclusion_check,
                    directional_thresholds)
from .boundary import (DomainSpec, ball_domain, annulus_domain,
                       ellipsoid_domain, star_domain,
                       second_fundamental_form, sample_boundary_points,
                       strict_convexity_test, tangent_trace_test)
from .expressions import parse_expression, expression_domain, Expression
from .grid import (Grid, GridProblem, SolverParams, JetAssembler,
                   discrete_jet, stencil_offsets)
from .solver import (SolveReport, BracketResult, ComparisonReport,
                     perron_solve, obstacle_solve, dual_bracket_solve,
                     comparison_check, membership_scan)

__version__ = "0.1.0"
