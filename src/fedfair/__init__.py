"""Fairness-aware federated aggregation with an online-decision server.

The server's aggregation weights are treated as a sequential decision on the
probability simplex: client losses become bounded responses, the server
suffers a negative-log-growth decision loss, and mixing coefficients follow
either one-step multiplicative baselines, a second-order online learner for
small federations, or a closed-form entropic follow-the-regularized-leader
update built for sampled clients. A deterministic simulator and regret /
fairness instrumentation round out the package.
"""

from ._allocator import pin_mmap_threshold as _pin_mmap_threshold
from .aggregators import (
    BaselineMethod,
    BaselineParams,
    FtrlState,
    OnsState,
    baseline_response,
    eg_step,
    ftrl_eg_step,
    hindsight_best,
    ons_step,
)
from .datasets import SyntheticDataSpec, generate_federation
from .decision import (
    decision_gradient,
    decision_loss,
    dr_estimate,
    dr_round,
    full_round,
    linearized_gradient,
    lipschitz_dr,
    lipschitz_full,
)
from .federation import FederationConfig, RoundRecord, run_federation
from .metrics import accuracy_parity_gap, gini, regret, worst_best
from .simplex import normalize_subset, project_euclidean, project_mahalanobis
from .transform import CdfKind, CdfSpec, ResponseRange, Setting, cdf_eval, default_range, transform_responses

__version__ = "0.1.0"

_pin_mmap_threshold()

__all__ = [
    "BaselineMethod",
    "BaselineParams",
    "CdfKind",
    "CdfSpec",
    "FederationConfig",
    "FtrlState",
    "OnsState",
    "ResponseRange",
    "RoundRecord",
    "Setting",
    "SyntheticDataSpec",
    "accuracy_parity_gap",
    "baseline_response",
    "cdf_eval",
    "decision_gradient",
    "decision_loss",
    "default_range",
    "dr_estimate",
    "dr_round",
    "eg_step",
    "ftrl_eg_step",
    "full_round",
    "generate_federation",
    "gini",
    "hindsight_best",
    "linearized_gradient",
    "lipschitz_dr",
    "lipschitz_full",
    "normalize_subset",
    "ons_step",
    "project_euclidean",
    "project_mahalanobis",
    "regret",
    "run_federation",
    "transform_responses",
    "worst_best",
]
