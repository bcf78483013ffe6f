"""Dimer coverings with diagonal impurities on the dual square-octagon
lattice: exact counting through spanning trees and the dual Laplacian,
slit-curve geometry, local-move dynamics, and a uniform sampler."""

__version__ = "0.1.0"

from .covering import (DimerCovering, covering_from_obj, covering_to_obj,
                       expected_impurity_count, impurities,
                       validate_covering)
from .kirchhoff import (LaplacianSystem, Solution, build_system,
                        coverings_with_impurity, impurity_probability,
                        region_counts, solve_p, total_coverings,
                        tree_count)
from .lattice import (NormalGraph, Region, TemperleyTriple,
                      build_normal_graph, build_region, classify_vertex,
                      diagonal_edges, edge, ell_region, strip_region)
from .moves import (LocalMove, apply_move, find_moves, move_graph_connected,
                    proposal_sites, t_class, t_classes)
from .oracle import (enumerate_coverings, enumerate_spanning_trees,
                     impurity_histogram)
from .sampler import ChainConfig, SampleReport, run, step
from .slits import (ForestPair, SlitCurve, Tree, enclosed_dual_tree,
                    forests, impurity_curve, slit_curves)
from .temperley import (RootedTree, class_bijection, dual_tree,
                        impurity_support, initial_covering, phi, pi,
                        temperley_forward, tree_of_h)
