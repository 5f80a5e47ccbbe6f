"""Overlapping latent-feature graph models: deterministic fitting and link prediction.

Nodes carry binary community-membership vectors; a pair links with
probability sigma(z_i^T W z_j). Fitting minimizes the masked cross-entropy
plus a penalty per active community, by greedy coordinate sweeps over the
memberships, damped Newton on W (convex for fixed memberships), and
grow-by-one community proposals that are kept only when they lower the
objective. The community count is learned, not fixed in advance.
"""

from .errors import LaftrError, NumericalError, ParseError, UndefinedMetricError
from .evaluation import (
    SplitResult,
    auc_from_scores,
    class_counts,
    cross_validate_lambda,
    evaluate_split,
    heldout_scorer,
    predict_links,
    run_splits,
)
from .generator import (
    block_weights,
    planted_blocks,
    sample_edges,
    sample_ibp,
    sample_lfrm,
)
from .graph import (
    AdjacencyMatrix,
    ObservationMask,
    load_dense_matrix,
    load_edge_list,
    load_mask,
    load_pairs,
    split_observations,
    write_dense,
    write_mask,
    write_predictions,
)
from .model import (
    ModelState,
    distinct_link_probabilities,
    link_probability,
    negative_log_likelihood,
    objective,
    sigmoid,
    softplus,
)
from .optimizer import (
    FitConfig,
    FitReport,
    delta_objective_flip,
    fit,
    init_state,
    optimize_w,
    prune_empty_features,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "FitConfig",
    "FitReport",
    "LaftrError",
    "ModelState",
    "NumericalError",
    "ObservationMask",
    "ParseError",
    "SplitResult",
    "UndefinedMetricError",
    "auc_from_scores",
    "block_weights",
    "class_counts",
    "cross_validate_lambda",
    "delta_objective_flip",
    "distinct_link_probabilities",
    "evaluate_split",
    "fit",
    "heldout_scorer",
    "init_state",
    "link_probability",
    "load_dense_matrix",
    "load_edge_list",
    "load_mask",
    "load_pairs",
    "negative_log_likelihood",
    "objective",
    "optimize_w",
    "planted_blocks",
    "predict_links",
    "prune_empty_features",
    "run_splits",
    "sample_edges",
    "sample_ibp",
    "sample_lfrm",
    "sigmoid",
    "softplus",
    "split_observations",
    "write_dense",
    "write_mask",
    "write_predictions",
]
