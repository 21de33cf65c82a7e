"""Cluster-aware upcycling of dense FFN models into Mixture-of-Experts.

Converts a small pretrained dense model into an MoE model by clustering its
activations on the sphere, rebuilding each expert's first linear layer from a
whitened truncated SVD of its cluster, and initializing the router with the
cluster centroids. Ships the baseline strategies (sparse copies, channel
resampling, spectral replacement), an EMA-ensemble self-distillation loss,
and the specialization diagnostics used to compare them.
"""

from .analysis import (
    AnalysisReport,
    analyze_model,
    expert_weight_similarity,
    relative_compactness,
    routing_entropy,
)
from .clustering import ClusterModel, assign_cluster, normalize_rows, spherical_kmeans
from .config import PipelineConfig, config_from_dict, load_config
from .distill import EmaTeacher, eesd_loss, ema_update, make_teacher, teacher_forward
from .linalg import (
    SpectralProfile,
    SvdFactors,
    cholesky_lower,
    effective_rank,
    pca_fit_transform,
    pseudoinverse,
    svd_full,
)
from .moe import (
    DenseFfn,
    MoeLayer,
    RoutingRecord,
    dense_ensemble_forward,
    ffn_forward,
    load_balance_loss,
    moe_forward,
    router_probs,
    top_k_gates,
)
from .train import (
    LossReport,
    ModelTeacher,
    SyntheticDataset,
    ToyModel,
    evaluate,
    grad_check,
    make_dense_model,
    make_model_teacher,
    make_synthetic_dataset,
    run_training,
    total_loss,
    train_step,
)
from .upcycle import (
    ActivationBank,
    InitReport,
    WhiteningFactor,
    capture_activations,
    cluster_aware_init,
    drop_init,
    drop_svd_init,
    joint_objective_eval,
    sparse_init,
    upcycle_model,
    whitening_matrix,
)

__version__ = "0.1.0"
