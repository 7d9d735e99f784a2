"""slidim: sliding dynamics of piecewise-smooth fields in R^3.

The package simulates Filippov systems, certifies sliding Shilnikov
connections, extracts the fold-section first return map with its
inverse-branch contraction family, and estimates Hausdorff-dimension
brackets, Lebesgue decay and Cantor structure for the local invariant set.
"""

from .bench import BenchConnection, make_bench
from .cifs import (CantorCertificate, ContractionMap, CoverSet,
                   DimensionReport, IfsSystem, ScaffoldSet, TailModel,
                   attractor_iterate, cantor_certify, check_conditions,
                   closure_scaffold, cover_tower, dimension_report,
                   dimension_sup, equal_ratio_system, make_geometric_model,
                   middle_thirds, moran_bounds, piecewise_expanding, pressure,
                   pressure_root, verify_forward_backward, word_intervals)
from .config import Tolerances
from .expressions import (ScalarExpr, SwitchingFunction, VectorFieldExpr,
                          parse_field)
from .filippov import (FilippovSystem, Mode, Region, TerminalEvent,
                       TrajectorySegment, classify_region, classify_tangency,
                       filippov_trajectory, find_pseudo_equilibrium,
                       lie_derivative, make_system, sliding_field)
from .oracle import (BoxCountFit, PointSample, box_counting, cover_length,
                     crosscheck, sample_word_images)
from .pipeline import (forward_backward_check, run_dimension_pipeline,
                       run_fixture_pipeline)
from .returnmap import (Branch, FoldSegment, ShilnikovCertificate,
                        branch_contractions, branch_width_lambda,
                        build_fold_segment, enumerate_branches,
                        first_return_batch, select_u, validate_inverse_maps,
                        verify_connection)

__version__ = "0.1.0"
