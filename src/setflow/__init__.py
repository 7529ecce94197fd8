"""Flows of planar convex compacts through their support functions.

The package splits into four layers:

- :mod:`setflow.bodies` -- support-function calculus (Minkowski algebra,
  Hausdorff metric, areas and mixed areas, Hukuhara differences);
- :mod:`setflow.flow` -- the volume-coupled linear flow with Minkowski
  sources, its split-step integrator and Picard oracle;
- :mod:`setflow.comparison` -- comparison ODE systems on the nonnegative
  cone and sampled stability verdicts;
- :mod:`setflow.certificates` -- closed-form criteria: fixed points,
  linearization, growth exponents, Hausdorff-norm stability.

:mod:`setflow.scenarios` ties them together behind declarative JSON
experiment files, exposed on the shell as the ``setflow`` command.
"""

from .bodies import (MixedAreaReport, SupportFunction2D, area,
                     hausdorff_distance, hukuhara_difference, linear_image,
                     make_ball, make_polygon, make_segment, minkowski_add,
                     mixed_area, mixed_area_report, perimeter, scale,
                     steiner_fit, validate)
from .comparison import (ComparisonSystem, StabilityVerdict, bound_check,
                         check_practical, check_wazewski, check_xi0_stability,
                         cyclic_mixed_system, integrate,
                         lyapunov_quadratic_check, nilpotent_source_system,
                         sde_growth_system)
from .certificates import (LinearizationReport, ball_source_fixed_point,
                           ball_source_instability, cyclic3_ratio_threshold,
                           hausdorff_stability_report, linearize,
                           sde_growth_exponents, semigroup_envelope)
from .errors import BlowupError, ContractionError, GridMismatchError
from .flow import (ScalarFunction, SemiflowParams, SourceTerm, Trajectory,
                   ball_source, constant, constant_source, evolve,
                   linear_source, mixed_columns, mixed_functionals,
                   picard_solve, rational, reach_set, step, table,
                   volume_rate, zero_source)
from .scenarios import (Scenario, SchemaError, body_record, builtin_scenarios,
                        get_builtin, list_builtins, load_scenario,
                        parse_scenario, run_scenario)

__version__ = "0.1.0"
