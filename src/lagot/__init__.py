"""Lagrangian reformulations of discrete optimal transport with
non-convex radial costs: exact solvers, explicit path constructions, and
seeded verification of the identities relating them."""

from .costs import (CostFunction, builtin, c_ell, check_a1, check_a2,
                    parse_cost, power_cost)
from .duality import GridFunction, inf_conv, verify_control_identity
from .ensembles import (BoundedCouplingTriple, EnsembleMember,
                        TransportEnsemble, build_opt_bounded, build_opt_tilde,
                        eval_bounded, eval_tilde, eval_tv, oracle_min_path,
                        solve_bounded)
from .harness import Report, VerifyConfig, emit_plot_data, verify
from .measures import (Coupling, DiscreteMeasure, make_coupling,
                       random_measure, validate_measure)
from .mk_solver import MKSolution, solve_mk, t_p
from .paths import (IntervalSet, PathBlock, SteppedPath, compress, cost_li,
                    cost_plain, detour_path, fast_path, l1_norm, linear_path,
                    n1, n2, stop_and_go, stretch, sup_norm)

__version__ = "0.1.0"
