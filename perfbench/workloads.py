"""The four workloads: their inputs, their jobs and the checks on each job.

Every workload is a closed loop: one process runs one job at a time.  Beside
the committed golden inputs, every input is generated from the workload seed;
the library sees nothing but the maps, parameters and files it is given.  A
job raises CheckFailed (or anything else) when its output is wrong, and the
runner counts it as failed.

Library functions are always looked up on their module at call time
(`partition.partition_som(...)`, never a from-import), so that the tracer's
wrappers see the benchmark's own calls as well as the library's internal ones.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from somblocks import (baselines, bayes_cost, cli, data_model, evaluate, partition,
                       sensitivity, som)

from tracing import PARTITION_COUNTS

FIXTURES = ("tests", "fixtures")
GOLDEN_SEEDS = (1, 2)
SEED2_SPANS = (17.78, 56.23)   # stable f_R and f_sigma spans of the seed-2 map
# 3x3 factors over +/-1.5 decades: the default sweep span, on a grid that
# keeps even a 16x16 per_pe job short enough for tens of jobs per run.
SWEEP_POINTS = 3
SYNTHETIC_SIDES = (12, 14, 16)   # in turn, so every run has the same size mix
SYNTHETIC_POOL = 30
ORACLE_PARAMS = dict(M=2, R=20.0, floor=0.05)
QUALITY_MAPS = 32              # fixed 3x3 family of the greedy-vs-exact audit
QUALITY_SEED = 20080206


class CheckFailed(AssertionError):
    """A job's output disagrees with what the program must produce."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Job(NamedTuple):
    """One unit of work: a label for reports and a callable that runs it."""

    label: str
    run: Callable[[], object]


def derived_seeds(seed: int, count: int) -> list[int]:
    """Training seeds from the workload seed, never the golden 1 or 2."""
    rng = np.random.default_rng([seed, 0x5EED])
    return [int(s) for s in rng.integers(3, 2**31, size=count)]


def _read(root, *parts, mode="r"):
    with open(os.path.join(root, *parts), mode) as f:
        return f.read()


def _make_map(rows, cols, cells, n_attr) -> som.SomMap:
    """Build a SomMap from row-major (n, mean, std) cells; n == 0 is empty."""
    pes, next_id = [], 0
    for k, (n, mean, std) in enumerate(cells):
        r, c = divmod(k, cols)
        if n == 0:
            pes.append(som.PeStats(r=r, c=c, weight=np.zeros(n_attr), member_ids=(),
                                   n=0, mean=None, std=None))
            continue
        pes.append(som.PeStats(r=r, c=c, weight=mean.copy(),
                               member_ids=tuple(range(next_id, next_id + n)),
                               n=n, mean=mean, std=std))
        next_id += n
    return som.SomMap(rows=rows, cols=cols, pes=tuple(pes),
                      config=som.SomConfig(rows=rows, cols=cols, seed=0))


def synthetic_map(rng, rows, cols, n_attr=4, empty_share=0.1):
    """Piecewise-constant map: 4 Voronoi blocks, ~10% empty cells.

    One block center falls in each quadrant, so every map has boundaries of
    similar length and a similar amount of partition work.

    Returns the map and an attribute summary spanning its cell means plus and
    minus one standard deviation, from which the cost parameters are built.
    """
    quadrants = np.array([(0, 0), (0, 1), (1, 0), (1, 1)]) * (rows / 2, cols / 2)
    centers = quadrants + rng.uniform((0, 0), (rows / 2, cols / 2), size=(4, 2))
    levels = rng.uniform(1.0, 9.0, size=(4, n_attr))
    cells, lo, hi = [], np.full(n_attr, np.inf), np.full(n_attr, -np.inf)
    for r in range(rows):
        for c in range(cols):
            if (r, c) != (0, 0) and rng.random() < empty_share:
                cells.append((0, None, None))
                continue
            block = int(np.argmin(((centers - (r + 0.5, c + 0.5)) ** 2).sum(axis=1)))
            n = int(rng.integers(1, 9))
            mean = levels[block] + rng.normal(0.0, 0.2, n_attr)
            std = rng.uniform(0.1, 0.5, n_attr) if n > 1 else np.zeros(n_attr)
            cells.append((n, mean, std))
            lo, hi = np.minimum(lo, mean - std), np.maximum(hi, mean + std)
    summary = data_model.AttributeSummary(mins=lo, maxs=hi)
    return _make_map(rows, cols, cells, n_attr), summary


def small_random_map(rng, rows, cols, n_attr=2, empty_share=0.1) -> som.SomMap:
    """Unstructured small map for the exact oracle: N(0, 2) means."""
    cells = []
    for k in range(rows * cols):
        if k and rng.random() < empty_share:
            cells.append((0, None, None))
        else:
            cells.append((3, rng.normal(0.0, 2.0, n_attr), rng.uniform(0.1, 0.8, n_attr)))
    return _make_map(rows, cols, cells, n_attr)


def oracle_params() -> bayes_cost.CostParams:
    m = ORACLE_PARAMS["M"]
    return bayes_cost.CostParams(R=np.full(m, ORACLE_PARAMS["R"]),
                                 sigma_floor=np.full(m, ORACLE_PARAMS["floor"]))


def check_partition(p) -> None:
    try:
        partition.validate_partition(p)
    except partition.PartitionError as e:
        raise CheckFailed(f"invalid partition: {e}") from None


def audit_map(m, params) -> float:
    """Exact oracle against the heuristic on one small map; returns the gap."""
    exact = partition.exhaustive_partition(m, params, cell_limit=12)
    greedy = partition.partition_som(m, params)
    check_partition(exact)
    check_partition(greedy)
    check(exact.cost <= greedy.cost + 1e-9,
          f"exact cost {exact.cost!r} above heuristic cost {greedy.cost!r}")
    return greedy.cost - exact.cost


def quality_metrics(root) -> dict:
    """Deterministic quality metrics on fixed inputs, the same in every run.

    kappa_mean, accuracy_mean and k_band_share score the default Bayesian
    partition of the golden Iris maps (seeds 1 and 2, which training
    reproduces byte for byte; iris-pipeline checks that).  greedy_gap_mean
    and greedy_exact_share compare the heuristic with the exact oracle over
    a fixed family of random 3x3 maps.
    """
    iris = data_model.load_csv(data_model.iris_path(), "class")
    params = bayes_cost.params_from_summary(data_model.summarize(iris))
    kappas, accuracies, in_band = [], [], []
    for seed in GOLDEN_SEEDS:
        m = som.load_map(os.path.join(root, *FIXTURES, f"iris_map_seed{seed}.json"))
        p = partition.partition_som(m, params)
        report = evaluate.score(p, m, iris.labels)
        kappas.append(report.kappa)
        accuracies.append(report.p_o)
        in_band.append(2 <= p.n_blocks <= 4)
    rng = np.random.default_rng(QUALITY_SEED)
    params = oracle_params()
    gaps = [audit_map(small_random_map(rng, 3, 3), params) for _ in range(QUALITY_MAPS)]
    return {
        "kappa_mean": float(np.mean(kappas)),
        "accuracy_mean": float(np.mean(accuracies)),
        "k_band_share": sum(in_band) / len(in_band),
        "greedy_gap_mean": float(np.mean(gaps)),
        "greedy_exact_share": sum(g <= 1e-9 for g in gaps) / len(gaps),
    }


class Workload:
    """Inputs built by setup(); passes(seconds) gives the run's job list.

    The job list is fixed by --seconds alone: PASS_S is the mean time of one
    pass on the reference machine (see speed.py), and a run has
    round(seconds / PASS_S) passes, at least one.  So a run measures the
    same jobs whatever the speed of the machine or of the program, and the
    tail percentile always falls on the same kind of job.
    """

    name = ""
    PASS_S = 1.0

    def __init__(self, root: str, seed: int, scratch: str):
        self.root = root
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def pass_count(self, seconds: float) -> int:
        return max(1, round(seconds / self.PASS_S))

    def passes(self, seconds: float) -> list[list[Job]]:
        raise NotImplementedError

    def failed_labels(self, labels: set[str]) -> dict[str, str]:
        """Checks made once after the timed jobs (and the memory reading), so
        their cost is in no metric; returns {job label: reason} for the
        labels whose jobs they fail."""
        return {}


class IrisPipeline(Workload):
    """The paper's worked example, run through the CLI as a user runs it.

    One job is one chain train -> partition --render -> baseline -> evaluate
    -> sweep on a fresh training seed: the golden seeds 1 and 2 first, then
    seeds derived from the workload seed.  The only workload whose jobs
    train a SOM.
    """

    name = "iris-pipeline"
    PASS_S = 3.2

    def setup(self):
        self.iris = data_model.load_csv(data_model.iris_path(), "class")
        self.golden_map = _read(self.root, *FIXTURES, "iris_map_seed1.json", mode="rb")
        self.golden_render = _read(self.root, *FIXTURES, "iris_render_seed2.txt")

    def passes(self, seconds):
        golden = [Job(f"chain-seed{s}", lambda s=s: self.chain(s)) for s in GOLDEN_SEEDS]
        derived = derived_seeds(self.seed, self.pass_count(seconds) - 1)
        return [golden] + [[Job("chain", lambda s=s: self.chain(s))] for s in derived]

    def chain(self, seed: int) -> None:
        d = tempfile.mkdtemp(prefix="chain-", dir=self.scratch)
        try:
            self._chain(seed, d)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _chain(self, seed, d):
        f = {k: os.path.join(d, v) for k, v in dict(
            map="map.json", part="partition.json", render="render.txt",
            base="baseline.json", bounds="boundaries.csv", report="report.txt",
            sweep="stability.csv").items()}
        run_cli("train", "--seed", str(seed), "--rows", "5", "--cols", "5",
                "--epochs", "300", "--out", f["map"])
        run_cli("partition", "--map", f["map"], "--out", f["part"], "--render", f["render"])
        run_cli("baseline", "--map", f["map"], "--out", f["base"],
                "--boundaries-out", f["bounds"])
        run_cli("evaluate", "--map", f["map"], "--partition", f["part"], "--out", f["report"])
        run_cli("sweep", "--map", f["map"], "--out", f["sweep"])

        if seed == 1:
            check(_read(d, "map.json", mode="rb") == self.golden_map,
                  "seed-1 map differs from tests/fixtures/iris_map_seed1.json")
        if seed == 2:
            check(_read(d, "render.txt") == self.golden_render,
                  "seed-2 render differs from tests/fixtures/iris_render_seed2.txt")
        bayes = partition.load_partition(f["part"])     # validates the partition
        partition.load_partition(f["base"])
        header, rows = _read_stability(f["sweep"])
        if seed == 2:
            spans = tuple(round(float(v.split()[-1]), 2) for v in header.split(",")[:2])
            check(spans == SEED2_SPANS, f"seed-2 stable spans {spans} != {SEED2_SPANS}")
        digest = hashlib.sha256(",".join(map(str, bayes.signature())).encode()).hexdigest()[:16]
        center = [r for r in rows if float(r[0]) == 1.0 and float(r[1]) == 1.0]
        check(len(center) == 1 and center[0][3] == digest,
              "sweep (1,1) signature differs from the partition's")
        footer = _read(d, "report.txt").rsplit("#json ", 1)[1]
        bayes_acc = json.loads(footer)["p_o"]

        m = som.load_map(f["map"])
        oracle = baselines.oracle_partition(m, self.iris.labels)
        check_partition(oracle)
        oracle_acc = evaluate.score(oracle, m, self.iris.labels).p_o
        check(oracle_acc >= bayes_acc - 1e-12,
              f"label oracle accuracy {oracle_acc} below the Bayesian partition's {bayes_acc}")


def run_cli(*argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    check(rc == 0, f"somblocks {argv[0]} exited {rc}: {err.getvalue().strip()}")


def _read_stability(path):
    lines = _read(path).splitlines()
    header = lines[1].split("stable spans: ", 1)[1]      # "f_R <x>, f_sigma <y>"
    return header, [line.split(",") for line in lines[3:]]


class _SweepBase(Workload):
    """Partition, sweep and stable region on prebuilt maps; no training in jobs.

    Each pass sweeps a 10x10 Iris map trained in set-up under every
    parameter variant; every synthetic_every-th pass also sweeps the golden
    5x5 Iris map under every variant, and the next synthetic map of the pool
    (12x12, 14x14 and 16x16 in turn) under the next variant in turn.

    The jobs sort into groups: 5x5, 10x10 and synthetic, from fast to slow.
    A median or tail that falls at the edge of a group is an extreme of
    that group and jumps with noise, so the mix keeps both inside the 10x10
    jobs, which are the same input in every pass and run: as many 5x5 jobs
    as synthetic ones put the median mid-group on sweep-default, and about
    six synthetic maps a run (their cost also varies from seed to seed by 10
    to 20%) put the tail percentile (ten jobs beyond it) in the upper part
    of the 10x10 jobs, under per_pe on sweep-variants.
    """

    variants: tuple = ()          # (name, params_from_summary options) pairs
    synthetic_every = 1           # passes per 5x5 and synthetic-map jobs

    def setup(self):
        iris = data_model.load_csv(data_model.iris_path(), "class")
        summary = data_model.summarize(iris)
        self.labels = iris.labels
        self.golden_render = _read(self.root, *FIXTURES, "iris_render_seed2.txt")
        golden = som.load_map(os.path.join(self.root, *FIXTURES, "iris_map_seed2.json"))
        iris10 = som.train(iris, som.SomConfig(rows=10, cols=10, seed=GOLDEN_SEEDS[1]))
        iris_params = self.params_for(summary)
        self.iris5 = ("iris5x5", golden, iris_params)
        self.iris10 = ("iris10x10", iris10, iris_params)
        rng = np.random.default_rng([self.seed, 12])
        self.pool = []
        for k in range(SYNTHETIC_POOL):
            side = SYNTHETIC_SIDES[k % len(SYNTHETIC_SIDES)]
            m, s = synthetic_map(rng, side, side)
            self.pool.append((f"syn{side}x{side}", m, self.params_for(s)))
        self.grid = sensitivity.default_grid(SWEEP_POINTS, 1.5)

    def params_for(self, summary) -> list:
        """(variant name, cost params) for every parameter variant."""
        return [(variant, bayes_cost.params_from_summary(summary, **options))
                for variant, options in self.variants]

    def passes(self, seconds):
        passes = []
        for k in range(self.pass_count(seconds)):
            fixed = [self.iris10]
            runs = []
            if k % self.synthetic_every == 0:
                i = k // self.synthetic_every
                syn_label, syn_map, syn_variants = self.pool[i % len(self.pool)]
                runs.append((syn_label, syn_map, syn_variants[i % len(syn_variants)]))
                fixed.insert(0, self.iris5)
            runs += [(label, m, v) for label, m, variants in fixed for v in variants]
            jobs = []
            for label, m, (variant, params) in runs:
                golden = label == "iris5x5" and variant == "default"
                jobs.append(Job(f"{label}/{variant}",
                                lambda m=m, p=params, g=golden: self.sweep_job(m, p, g)))
            passes.append(jobs)
        return passes

    def sweep_job(self, m, params, golden: bool) -> None:
        p = partition.partition_som(m, params)
        check_partition(p)
        st = sensitivity.sweep(m, sensitivity.SweepSpec(
            base=params, f_R_grid=self.grid, f_sigma_grid=self.grid))
        sensitivity.stable_region(st)
        check(st.reference == p.signature(), "sweep (1,1) signature differs from partition_som")
        for row in st.signatures:
            for sig in row:
                labels = np.array(sig).reshape(m.rows, m.cols)
                check_partition(partition.Partition(block_of=labels, n_blocks=max(sig) + 1))
        if golden:
            check(cli.render_map(m, p, self.labels) == self.golden_render,
                  "reference-map render differs from tests/fixtures/iris_render_seed2.txt")


class SweepDefault(_SweepBase):
    """Default unit width rule and per_block prior: the cost and merge hot path."""

    name = "sweep-default"
    PASS_S = 0.42
    variants = (("default", {}),)
    synthetic_every = 8


class SweepVariants(_SweepBase):
    """per_pe (nearly one block per cell) and sqrt width scaling: the generic
    cost path that a fast path for the default rule would bypass."""

    name = "sweep-variants"
    PASS_S = 1.6
    variants = (("per_pe", {"range_exponent": "per_pe"}),
                ("sqrt12", {"n_scale_rule": bayes_cost.N_SCALE_RULES["sqrt"],
                            "sigma_const": 12.0}))
    synthetic_every = 2


class OracleAudit(Workload):
    """Exact connected-partition oracle against the heuristic on small maps."""

    name = "oracle-audit"
    PASS_S = 1.15

    # One 2x6 and one 4x3 map open the run; every pass is one 3x4 map and
    # four 3x3 maps.  The 3x3 jobs are most of the jobs, so the median is a
    # 3x3 job, and the 3x4 jobs (data-independent enumeration) hold the tail
    # percentile that has ten jobs beyond it.
    FIRST = ((2, 6), (4, 3))
    PASS = ((3, 4), (3, 3), (3, 3), (3, 3), (3, 3))

    def setup(self):
        self.params = oracle_params()
        self.rng = np.random.default_rng([self.seed, 34])

    def passes(self, seconds):
        passes = []
        for shapes in [self.FIRST + self.PASS] + [self.PASS] * (self.pass_count(seconds) - 1):
            jobs = []
            for rows, cols in shapes:
                m = small_random_map(self.rng, rows, cols)
                jobs.append(Job(f"{rows}x{cols}", lambda m=m: audit_map(m, self.params)))
            passes.append(jobs)
        return passes

    def failed_labels(self, labels):
        """Fails the jobs of every shape whose enumerated connected-partition
        count is not the known one.  The count comes from
        enumerate_connected_partitions, which shares its walk with
        exhaustive_partition; it is made here, once per shape, because the
        enumerator holds every partition in memory."""
        failed = {}
        for label in labels:
            shape = tuple(int(side) for side in label.split("x"))
            count = sum(1 for _ in partition.enumerate_connected_partitions(*shape))
            if count != PARTITION_COUNTS[shape]:
                failed[label] = (f"the {label} grid has {count} connected partitions, "
                                 f"expected {PARTITION_COUNTS[shape]}")
        return failed


WORKLOADS = {w.name: w for w in (IrisPipeline, SweepDefault, SweepVariants, OracleAudit)}
