"""Train self-organizing maps and partition them into constant-value blocks
by minimizing a marginal-likelihood cost, with threshold and label-oracle
baselines, scoring, and parameter-stability sweeps."""

__version__ = "0.1.0"

from .data_model import AttributeSummary, Dataset, iris_path, load_csv, summarize
from .som import (PeStats, SomConfig, SomMap, initialize, load_map,
                  quantization_error, save_map, train)
from .bayes_cost import (BlockCosts, CostParams, block_cost, block_cost_for_pes, block_stat,
                         params_from_summary, partition_cost, sigma_estimate)
from .partition import (Partition, enumerate_connected_partitions, exhaustive_partition,
                        load_partition, merge_regions, partition_som, quadtree_split,
                        save_partition, validate_partition)
from .baselines import (BoundaryMap, oracle_partition, threshold_partition,
                        umatrix_boundaries)
from .evaluate import EvalReport, render_map, render_report, score
from .sensitivity import StabilityMap, SweepSpec, default_grid, stable_region, sweep

__all__ = [
    "AttributeSummary", "Dataset", "iris_path", "load_csv", "summarize",
    "PeStats", "SomConfig", "SomMap", "initialize", "load_map",
    "quantization_error", "save_map", "train",
    "BlockCosts", "CostParams", "block_cost", "block_cost_for_pes", "block_stat",
    "params_from_summary", "partition_cost", "sigma_estimate",
    "Partition", "enumerate_connected_partitions", "exhaustive_partition",
    "load_partition", "merge_regions", "partition_som", "quadtree_split",
    "save_partition", "validate_partition",
    "BoundaryMap", "oracle_partition", "threshold_partition", "umatrix_boundaries",
    "EvalReport", "render_map", "render_report", "score",
    "StabilityMap", "SweepSpec", "default_grid", "stable_region", "sweep",
]
