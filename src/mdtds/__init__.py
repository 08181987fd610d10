"""Dynamical systems indexed by free-group time.

Reduced-word arithmetic and Cayley-ball enumeration, subgroup membership
oracles, orbit evaluation with bounded fixed/periodicity verification, ball
averages over growing radii, and two exactly solvable models (linear growth
rates and circle rotations).  The models' ball averages come from sphere-sum
recurrences; one pure-Python tree walk computes everything else and serves
as the brute-force oracle those recurrences are tested against.
"""

__version__ = "0.1.0"

from ._kernels import kernel_backend, traversal_sphere_counts
from .bank import (BankFamily, PeriodicityClass, Trichotomy, ball_sum_brute,
                   ball_sum_product_formula, cesaro_limit,
                   classify_periodicity, discrepancy_table, word_multiplier)
from .cesaro import (BoundParams, CesaroReport, CesaroRow, cesaro_bounds,
                     cesaro_scan, geometric_k_sum, sign_ball_sum,
                     sign_ball_sum_brute, sign_cesaro, sign_limits)
from .circle import (CircleFamily, DensityResult, FixedSetVerdict,
                     PeriodicSetVerdict, density_check, fixed_set, mod1,
                     periodic_set, rational_period_subgroup, rotation_of)
from .engine import (CallableMapFamily, Counterexample, Domain, MapFamily,
                     OmegaSample, OrbitBall, Ray, VerifiedUpTo,
                     affine_and_square_family, cluster_values, evaluate,
                     fixed_point_residual, identity_family, is_fixed,
                     is_h_fixed, is_h_periodic, omega_sample, orbit_ball,
                     stable_set_check)
from .errors import (DomainViolationError, EvaluationError, ExactnessError,
                     MdtdsError, ResourceLimitError, WordSyntaxError)
from .scalars import exact_sqrt, format_scalar, parse_rational, parse_scalar
from .subgroups import (Balanced, CyclicSubgroup, EvenCount, FullGroup,
                        IntersectionSubgroup, KernelSubgroup, SubgroupMeta,
                        SubgroupSpec, parse_subgroup, subgroup_ball)
from .words import (DEFAULT_NODE_CAP, BallComponent, BallNode, SignedLetter,
                    Word, alphabet, ball_decompose, ball_enumerate, ball_size,
                    parse_word, sphere_size, sphere_words)

__all__ = [name for name in dir() if not name.startswith("_")]
