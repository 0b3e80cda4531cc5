"""Exact Coxeter/Dunkl calculus with statistical Gaussian-integral checks."""

from .coxeter import (CoxeterDiagram, DegreeData, GroupElement, Rank2Parabolic,
                      RootSystem, build_root_system, chevalley_q_identity,
                      compute_degrees, enumerate_group, poincare_polynomial,
                      psi_invariant, rank2_parabolics, standard_diagram,
                      verify_psi_identities)
from .dunkl import (BPolyResult, DunklDirection, b_poly, beta_form,
                    dunkl_apply, dunkl_apply_omega, dunkl_apply_root,
                    dunkl_laplacian, gamma_form, verify_algebra_relations)
from .errors import (BudgetError, ConfigError, ExactDivisionError,
                     FactorizationError, FieldMismatchError,
                     PrecisionExhaustedError)
from .mmintegral import (EULER_GAMMA, McEstimate, cross_check_plan,
                         functional_equation_plan, gamma_product_rhs,
                         log_moments_plan, mm_exact, mm_monte_carlo,
                         run_plans)
from .polynomials import (MultiPoly, apply_reflection, build_discriminant,
                          divided_difference, root_linear_form)
from .scalars import (FieldElement, FieldSpec, KPoly, cos_field,
                      minimal_poly_2cos, rat)
from .suite import (CheckReport, SuiteConfig, group_context, group_info,
                    parse_config, render_report, run_suite)

__version__ = "0.1.0"
