"""Convex multistage stochastic dynamic programming on finite scenario trees."""

from .bellman import (StageProblem, BellmanSolution, Policy, check_assumptions,
                      extract_policy, optimum_value, solve_be, tilt_by_p,
                      verify_optimality)
from .control import (ControlSystem, RiccatiData, independence_reduction,
                      q_factors, riccati, solve_oc)
from .convexfn import (ConvexFn, Polyhedral, Quadratic, Sampled1D,
                       cond_expect_fn, lineality_space, partial_min, recession)
from .extensive import FlatProgram, solve_extensive
from .hedging import (MarketModel, ae_estimate, exp_utility, na_check,
                      solve_alm)
from .lagrange import (LagrangeInstance, check_lagrange_bounds, lp_recursion,
                       solve_lagrange)
from .polyhedra import fm_project
from .stopping import (StoppingTime, enumerate_stopping_times, markov_check,
                       optimal_stop, ros_as_bellman, snell)
from .tree import (AdaptedProcess, PerpProcess, ScenarioTree,
                   cond_expect_scalar, is_markov, martingale_increments,
                   perp_check, validate_tree)

__version__ = "0.1.0"
