"""Solvers, pruning and oracles for low-dimensional linear min-max problems.

The package solves min over x of max_i |a_i x + b_i| style problems via
point/line duality: the one-variable case with an exact pivoting solver
conjectured to run in linear time, the box-constrained two-variable case
with Seidel's randomized incremental LP in expected linear time.  A
provably safe constraint pruner and exhaustive oracles sit beside them
as tools and references.
"""

from .baseline import check2d, lower_hull, solve_baseline
from .bench import BenchResult, fit_loglog_slope, run_scaling
from .errors import (ContractViolation, EmptyProblem, MixedArity,
                     NonFiniteInput, ParseError)
from .geometry import (Line2, Plane3, Point2, Point3, Sign, dual_of_line,
                       dual_of_plane, dual_of_point, dual_of_point2,
                       exact_product_compare, orientation_exact)
from .instances import GenSpec, gen2d, gen3d
from .model import (Constraint2, Constraint3, Problem, Solution2, Solution3,
                    Status)
from .oracle import brute2d, brute3d_box
from .prune3d import (PruneReport, boundary_via_2d, check3d, find_pmin,
                      is_behind, is_too_steep, prune, solve3d)
from .solver2d import expand_absolute, solve, solve_boxed, to_dual_points

__version__ = "0.1.0"

__all__ = [
    "Sign", "Point2", "Point3", "Line2", "Plane3",
    "dual_of_plane", "dual_of_point", "dual_of_line", "dual_of_point2",
    "orientation_exact", "exact_product_compare",
    "Status", "Constraint2", "Constraint3", "Problem",
    "Solution2", "Solution3",
    "expand_absolute", "to_dual_points",
    "solve", "solve_boxed",
    "lower_hull", "solve_baseline", "check2d",
    "brute2d", "brute3d_box",
    "PruneReport", "find_pmin", "is_behind", "is_too_steep", "prune",
    "solve3d", "check3d", "boundary_via_2d",
    "GenSpec", "gen2d", "gen3d",
    "BenchResult", "run_scaling", "fit_loglog_slope",
    "EmptyProblem", "NonFiniteInput", "ParseError", "MixedArity",
    "ContractViolation",
]
