"""Streaming sketches for network-flow monitoring.

The main structure clusters similar flows into per-cluster bucket
arrays and decodes by bucket averaging, making it resilient to hash
collisions; Count-Min and Count-Sketch baselines, a cuckoo membership
table, a disaggregated monitoring pipeline, and a benchmark harness
round out the package.
"""

from .baselines import CmSketch, CsSketch, DenseMapping, autoencoder_oracle, expected_noisy_fraction
from .bench import BenchmarkConfig, run_benchmark, run_sensitivity
from .clustering import (
    ClusterModel,
    InvalidInputError,
    allocate_buckets,
    cluster_stats,
    nearest_center,
    train_kmeans,
    train_model,
)
from .lss import BucketUnderflowError, KeyNotFoundError, LssSketch
from .membership import CuckooTable, TableFullError
from .metrics import f1_score, relative_error
from .pipeline import (
    FlowletBatch,
    IngestStage,
    SketchEnvelope,
    SketchingStage,
    SketchStore,
    WindowConfig,
    network_wide_query,
    run_pipeline,
)
from .bus import TopicBus, TopicClosed
from .traces import TracePacket

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "BucketUnderflowError",
    "ClusterModel",
    "CmSketch",
    "CsSketch",
    "CuckooTable",
    "DenseMapping",
    "FlowletBatch",
    "IngestStage",
    "InvalidInputError",
    "KeyNotFoundError",
    "LssSketch",
    "SketchEnvelope",
    "SketchStore",
    "SketchingStage",
    "TableFullError",
    "TopicBus",
    "TopicClosed",
    "TracePacket",
    "WindowConfig",
    "allocate_buckets",
    "autoencoder_oracle",
    "cluster_stats",
    "expected_noisy_fraction",
    "f1_score",
    "nearest_center",
    "network_wide_query",
    "relative_error",
    "run_benchmark",
    "run_pipeline",
    "run_sensitivity",
    "train_kmeans",
    "train_model",
]
