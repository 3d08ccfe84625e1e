"""Moment-map gradient flows for compact group representations.

The package integrates the downward gradient flow of |mu|^2 and its
projectivization, lifts it to the complexified group, extracts the
asymptotic geodesic ray in the symmetric space of positive-definite
matrices, certifies the optimal degeneration direction against a
convex-geometry oracle, and numerically verifies the local model-space
symplectic data around zeros of the moment map.
"""

from .algebra import (GroupPresentation, direct_sum_presentation,
                      matrix_presentation, su2_presentation, su2_sym_presentation,
                      torus_presentation, un_presentation, validate_presentation)
from .degeneration import (DegenerationReport, hermitian_generator,
                           limit_direction, torus_oracle)
from .flow import (FlowOptions, FlowTrajectory, check_rates, cointegrate_group,
                   fit_lojasiewicz, integrate_kempf_ness, integrate_projective)
from .normal_form import (NormalFormModel, build_model, model_moment_map,
                          model_symplectic_form, verify_closedness,
                          verify_moment_identity)
from .representation import (energy_and_gradient, infinitesimal_action,
                             kempf_ness_value, moment_map,
                             projective_moment_map)
from .symmetric_space import (GeodesicRay, SymmetricSpacePoint, distance,
                              extract_asymptotic_ray, geodesic, geodesic_path)

__version__ = "0.1.0"
