"""Behavioural similarity toolkit for 6-DoF navigation over point clouds.

Computes an exact viewport-overlap ground truth between users, eight fast
proxy similarity metrics built from pose-level features, clique-based user
clusters per frame or time chunk, ROC threshold calibration, a regulator
ablation sweep, and evaluation against the ground truth; plus deterministic
synthetic scenarios and a CLI driving the whole pipeline.
"""

from .calibration import (
    AblationRecord,
    DEFAULT_GRID,
    FIGURES,
    RocPoint,
    roc_curve,
    select_parameter_sets,
    select_threshold,
)
from .clustering import (
    ChunkSpec,
    ClusteringResult,
    SimilarityGraph,
    build_adjacency,
    chunk_adjacency,
    clique_clustering,
    max_clique,
    mean_matrix,
    persistence_scores,
)
from .errors import ComputeError, DataError, ToolError, UsageError
from .evaluation import (
    AggregateStats,
    aggregate,
    evaluate_result,
    overlap_ratio,
    precision,
    relevant_population,
)
from .geometry import (
    FrustumParams,
    PointCloudFrame,
    SurfaceGraph,
    build_surface_graph,
    contains_points,
    frusta,
    frustum_planes,
    ray_cast_center,
    view_basis,
)
from .manifest import ContentManifest, ContentSettings, load_manifest
from .metrics import (
    MetricConfig,
    MetricId,
    PairFeatures,
    RegulatorSet,
    SimilarityMatrix,
    compute_pair_features,
    default_configs,
    overlap_matrix,
)
from .pipeline import (
    PreparedContent,
    calibrate_contents,
    cluster_content,
    evaluate_content,
    gaze_targets,
    metric_matrices,
    prepare,
    prepare_scenario,
    run_ablation,
)
from .synth import (
    GroupSpec,
    SplitMix64,
    SynthScenario,
    generate_cloud,
    generate_trajectories,
    planted_labels,
    three_orbit_groups,
)
from .trajectories import (
    SessionDataset,
    align_to_frames,
    derive_pr,
    load_trajectories,
)

__version__ = "0.1.0"
