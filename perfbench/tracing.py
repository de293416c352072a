"""Spans around calls into the somblocks modules, recorded from outside.

While a Tracer is installed, every traced public function is replaced, in
every somblocks module namespace that holds it, by a wrapper that records a
span: name, start, end, parent span and job id, plus one number of
call-specific detail (block size, regions returned, ...).  Replacing the
function in the importing module's namespace is what lets calls made inside
the library be seen: `sensitivity` calls the `partition_som` it imported, so
that binding is the one swapped.  Nothing under src/ is edited, and once the
tracer is uninstalled the original functions are back, so untraced runs pay
nothing.

Spans live in memory as parallel arrays and are written out once, at the end
of the run.
"""

import gzip
import json
import statistics
import time
from array import array
from contextlib import contextmanager

# Public functions traced per layer (module).  The layer of a span is the
# part of its name before the dot.
TRACED = {
    "data_model": ("load_csv", "summarize"),
    "som": ("train", "save_map", "load_map"),
    "bayes_cost": ("params_from_summary", "block_cost_for_pes", "partition_cost"),
    "partition": ("partition_som", "quadtree_split", "merge_regions",
                  "exhaustive_partition", "validate_partition",
                  "save_partition", "load_partition"),
    "sensitivity": ("sweep", "stable_region"),
    "baselines": ("threshold_partition", "oracle_partition", "umatrix_boundaries"),
    "evaluate": ("score", "render_report"),
    "cli": ("main", "render_map"),
}
LAYERS = tuple(TRACED)
JOB = "perfbench.job"

# Known connected-partition counts of the small grids the oracle enumerates.
PARTITION_COUNTS = {(3, 3): 1434, (3, 4): 27780, (4, 3): 27780, (2, 6): 17316}


def _info(name, args, kwargs, result) -> float:
    """One number of call detail stored with the span (0 when none)."""
    if name == "bayes_cost.block_cost_for_pes":
        return len(args[0])
    if name == "som.train":
        config = args[1] if len(args) > 1 else kwargs["config"]
        return config.epochs * args[0].n_samples
    if name == "partition.quadtree_split":
        return len(result)
    if name == "partition.merge_regions":
        return len(args[0]) - result.n_blocks          # merges accepted
    if name == "partition.partition_som":
        return result.n_blocks
    if name == "partition.exhaustive_partition":
        return PARTITION_COUNTS.get(result.block_of.shape, 0)
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")       # job index, -1 for set-up
        self.info = array("d")
        self.current_job = -1
        self._stack: list[int] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        row = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self.info.append(0.0)
        self._stack.append(row)
        self.start.append(time.perf_counter())
        return row

    def _close(self, row: int, info: float = 0.0) -> None:
        self.end[row] = time.perf_counter()
        self.info[row] = info
        self._stack.pop()

    @contextmanager
    def job_span(self, job_index: int):
        self.current_job = job_index
        row = self._open(JOB)
        try:
            yield
        finally:
            self._close(row)
            self.current_job = -1

    def _wrap(self, name: str, func):
        def wrapper(*args, **kwargs):
            span = name if name != "cli.main" else "cli." + args[0][0]
            row = self._open(span)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                info = _info(span, args, kwargs, result) if result is not None else 0.0
                self._close(row, info)
        wrapper.__wrapped__ = func
        return wrapper

    @contextmanager
    def installed(self, package):
        """Swap every traced function for its wrapper in all package modules."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, names in TRACED.items():
            for fname in names:
                func = getattr(getattr(package, layer), fname)
                wrappers[id(func)] = self._wrap(f"{layer}.{fname}", func)
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, one per span, in start order."""
        with gzip.open(path, "wt") as f:
            for row in range(len(self.start)):
                f.write(json.dumps({
                    "id": row, "name": self.names[self.name_id[row]],
                    "start": self.start[row], "end": self.end[row],
                    "parent": self.parent[row], "job": self.job[row],
                    "info": self.info[row]}) + "\n")

    def layer_metrics(self, n_jobs: int) -> dict:
        """Per-layer metrics from the recorded spans, except trace.overhead_ratio.

        Times named *_s or *_ms are medians per call, unless the unit in
        BENCHMARK.json says per job.
        """
        n = len(self.start)
        names = [self.names[i] for i in self.name_id]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        own = [dur[i] - child[i] for i in range(n)]
        in_job = [self.job[i] >= 0 for i in range(n)]
        jobs = max(n_jobs, 1)

        by_name: dict[str, list[int]] = {}
        for i, name in enumerate(names):
            by_name.setdefault(name, []).append(i)

        def rows(name):
            return by_name.get(name, [])

        def median_of(name, scale=1.0):
            values = [dur[i] for i in rows(name)]
            return statistics.median(values) * scale if values else 0.0

        def mean_info(name):
            values = [self.info[i] for i in rows(name)]
            return sum(values) / len(values) if values else 0.0

        def per_job_count(name):
            return sum(1 for i in rows(name) if in_job[i]) / jobs

        def children_of(parent_name, name):
            parents = set(rows(parent_name))
            return [i for i in rows(name) if self.parent[i] in parents]

        out = {}
        train = rows("som.train")
        presentations = sum(self.info[i] for i in train)
        out["som.train_s"] = median_of("som.train")
        out["som.train_us_per_presentation"] = (
            sum(dur[i] for i in train) / presentations * 1e6 if presentations else 0.0)
        out["som.save_map_ms"] = median_of("som.save_map", 1e3)
        out["som.load_map_ms"] = median_of("som.load_map", 1e3)

        cost = rows("bayes_cost.block_cost_for_pes")
        out["bayes_cost.block_cost_calls"] = per_job_count("bayes_cost.block_cost_for_pes")
        out["bayes_cost.block_cost_self_s"] = sum(own[i] for i in cost if in_job[i]) / jobs
        out["bayes_cost.block_cells_mean"] = mean_info("bayes_cost.block_cost_for_pes")
        out["bayes_cost.params_from_summary_ms"] = median_of("bayes_cost.params_from_summary", 1e3)
        out["bayes_cost.partition_cost_ms"] = median_of("bayes_cost.partition_cost", 1e3)

        out["partition.quadtree_split_ms"] = median_of("partition.quadtree_split", 1e3)
        out["partition.quadtree_regions"] = mean_info("partition.quadtree_split")
        out["partition.merge_regions_ms"] = median_of("partition.merge_regions", 1e3)
        out["partition.blocks_final"] = mean_info("partition.partition_som")
        merges = sum(self.info[i] for i in rows("partition.merge_regions"))
        merge_calls = len(children_of("partition.merge_regions", "bayes_cost.block_cost_for_pes"))
        out["partition.cost_calls_per_merge"] = merge_calls / merges if merges else 0.0
        exhaustive = rows("partition.exhaustive_partition")
        walked = sum(self.info[i] for i in exhaustive)
        exhaustive_time = sum(dur[i] for i in exhaustive)
        out["partition.exhaustive_s"] = median_of("partition.exhaustive_partition")
        out["partition.partitions_per_s"] = walked / exhaustive_time if exhaustive_time else 0.0
        out["partition.validate_ms"] = median_of("partition.validate_partition", 1e3)

        sweeps = rows("sensitivity.sweep")
        out["sensitivity.sweep_s"] = median_of("sensitivity.sweep")
        out["sensitivity.partition_calls"] = (
            len(children_of("sensitivity.sweep", "partition.partition_som")) / len(sweeps)
            if sweeps else 0.0)
        out["sensitivity.stable_region_ms"] = median_of("sensitivity.stable_region", 1e3)

        out["data_model.load_csv_ms"] = median_of("data_model.load_csv", 1e3)
        out["data_model.load_csv_calls"] = per_job_count("data_model.load_csv")
        for command in ("train", "partition", "baseline", "evaluate", "sweep"):
            out[f"cli.{command}_s"] = median_of(f"cli.{command}")
        out["cli.self_ms"] = sum(own[i] for i in range(n)
                                 if in_job[i] and names[i].startswith("cli.")) / jobs * 1e3

        out["baselines.threshold_partition_ms"] = median_of("baselines.threshold_partition", 1e3)
        out["baselines.oracle_partition_ms"] = median_of("baselines.oracle_partition", 1e3)
        out["baselines.umatrix_boundaries_ms"] = median_of("baselines.umatrix_boundaries", 1e3)
        out["evaluate.score_ms"] = median_of("evaluate.score", 1e3)
        out["evaluate.render_report_ms"] = median_of("evaluate.render_report", 1e3)

        # Self time per job of every layer (cli.self_ms above for cli), and of
        # the benchmark's own job code (checks and harness) outside any
        # traced call.
        for layer in tuple(l for l in LAYERS if l != "cli") + ("perfbench",):
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(own[i] for i in range(n)
                                         if in_job[i] and names[i].startswith(prefix)) / jobs
        out["trace.spans_per_job"] = sum(in_job) / jobs
        return out
