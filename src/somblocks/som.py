"""Kohonen map training with a conscience bias, plus per-cell statistics.

Training is plain online SOM: per sample, pick the winning cell by biased
squared distance, then pull every cell inside a rectangular neighborhood of
the current half-width toward the sample.  The conscience bias tracks each
cell's win frequency and handicaps frequent winners so that no cell ends up
representing too much of the data.  All randomness (weight init, per-epoch
presentation order) flows from one 64-bit seed through numpy's PCG64
generator, so a (dataset, config) pair fully determines the result.
"""

import json
from dataclasses import InitVar, dataclass, field

import numpy as np

from .data_model import Dataset, write_text_atomic

MAP_FORMAT_VERSION = 1


class SomError(ValueError):
    """Raised for invalid configs, divergent training, or bad map files."""


@dataclass(frozen=True)
class SomConfig:
    rows: int
    cols: int
    epochs: int = 300
    lr_start: float = 0.5
    lr_end: float = 0.01
    # (epoch fraction, half-width) pairs; half-width 1 = 3x3 neighborhood.
    # The wide first phase organizes the map globally before cells specialize.
    neighborhood_schedule: tuple = ((0.0, 2), (0.25, 1), (0.6, 0))
    conscience_beta: float = 1e-4
    conscience_gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise SomError("grid must have at least 2 cells")
        if self.epochs < 1:
            raise SomError("epochs must be positive")
        if not (1 >= self.lr_start >= self.lr_end > 0):
            raise SomError("need 1 >= lr_start >= lr_end > 0")
        if self.conscience_beta < 0 or self.conscience_gamma < 0:
            raise SomError("conscience constants must be non-negative")
        if not (0 <= int(self.seed) < 2**64):
            raise SomError("seed must fit in 64 unsigned bits")
        sched = tuple((float(f), int(h)) for f, h in self.neighborhood_schedule)
        if not sched or sched[0][0] != 0.0:
            raise SomError("neighborhood schedule must start at epoch fraction 0")
        fracs = [f for f, _ in sched]
        widths = [h for _, h in sched]
        if fracs != sorted(fracs) or any(h < 0 for h in widths):
            raise SomError("schedule fractions must ascend; half-widths non-negative")
        if widths != sorted(widths, reverse=True):
            raise SomError("half-widths must be non-increasing")
        object.__setattr__(self, "neighborhood_schedule", sched)

    def half_width_at(self, epoch: int) -> int:
        frac = epoch / self.epochs
        hw = self.neighborhood_schedule[0][1]
        for f, h in self.neighborhood_schedule:
            if f <= frac:
                hw = h
        return hw


@dataclass(frozen=True, eq=False)
class PeStats:
    """One grid cell: weight vector plus statistics of the samples it won.

    The record a SomMap is built from, one per cell in row-major order, and
    the one SomMap.pe derives from the map's arrays.
    """

    r: int
    c: int
    weight: np.ndarray
    member_ids: tuple[int, ...]
    n: int
    mean: np.ndarray | None   # absent when the cell is empty
    std: np.ndarray | None    # per-attribute sample std, 0 when n <= 1


@dataclass(frozen=True, eq=False)
class SomMap:
    """A map's per-cell tables, stacked once from the cells it is built from.

    Construction checks the PeStats records, one per cell in row-major order,
    against each other and the config, raising SomError naming the cell and
    field.  It then keeps only read-only arrays, with P cells, M attributes and
    n samples: weights, means and stds (P, M), where means and stds hold zero
    rows on empty cells; counts (P,); member_ids (n,), each cell's members in
    cell order; and assignment (n,), the cell of each sample id.
    """

    rows: int
    cols: int
    pes: InitVar[tuple[PeStats, ...]]   # row-major; dropped once stacked
    config: SomConfig
    weights: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    means: np.ndarray = field(init=False, repr=False)
    stds: np.ndarray = field(init=False, repr=False)
    member_ids: np.ndarray = field(init=False, repr=False)
    assignment: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, pes):
        if (self.rows, self.cols) != (self.config.rows, self.config.cols):
            raise SomError(f"grid {self.rows}x{self.cols} differs from the config's "
                           f"{self.config.rows}x{self.config.cols}")
        if len(pes) != self.rows * self.cols:
            raise SomError(f"{len(pes)} cells do not tile the "
                           f"{self.rows}x{self.cols} grid")
        shape = np.shape(pes[0].weight)
        for k, pe in enumerate(pes):
            if (pe.r, pe.c) != divmod(k, self.cols):
                raise SomError(f"cell {k}: r/c ({pe.r}, {pe.c}) do not match its "
                               f"position {divmod(k, self.cols)}")
            if np.ndim(pe.weight) != 1 or np.shape(pe.weight) != shape or not shape[0]:
                raise SomError(f"cell {k}: weight has shape {np.shape(pe.weight)}, "
                               f"expected {shape}")
            if not isinstance(pe.n, (int, np.integer)) or pe.n < 0:
                raise SomError(f"cell {k}: n must be a non-negative integer, got {pe.n!r}")
            if pe.n != len(pe.member_ids):
                raise SomError(f"cell {k}: n is {pe.n} but member_ids lists "
                               f"{len(pe.member_ids)}")
            for name in ("mean", "std"):
                value = getattr(pe, name)
                if pe.n == 0 and value is not None:
                    raise SomError(f"cell {k}: {name} must be null for an empty cell")
                if pe.n > 0 and (value is None or np.shape(value) != shape):
                    got = None if value is None else np.shape(value)
                    raise SomError(f"cell {k}: {name} has shape {got}, "
                                   f"expected the weight's {shape}")
        zeros = np.zeros(shape)
        weights = np.array([pe.weight for pe in pes], dtype=float)
        means = np.array([zeros if pe.n == 0 else pe.mean for pe in pes], dtype=float)
        stds = np.array([zeros if pe.n == 0 else pe.std for pe in pes], dtype=float)
        for name, table in (("weight", weights), ("mean", means), ("std", stds)):
            finite = np.isfinite(table).all(axis=1)
            if not finite.all():
                raise SomError(f"cell {int(np.argmin(finite))}: {name} has a non-finite value")
        counts = np.array([pe.n for pe in pes], dtype=np.intp)
        ids, owner = _member_owners(pes, counts)
        for name, table in (("weights", weights), ("means", means), ("stds", stds),
                            ("counts", counts), ("member_ids", ids), ("assignment", owner)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def pe(self, r: int, c: int) -> PeStats:
        """Cell (r, c) as a PeStats record derived from the arrays; mean and
        std are None on an empty cell."""
        k = r * self.cols + c
        n = int(self.counts[k])
        start = int(self.counts[:k].sum())
        return PeStats(r=r, c=c, weight=self.weights[k],
                       member_ids=tuple(self.member_ids[start:start + n].tolist()), n=n,
                       mean=self.means[k] if n else None, std=self.stds[k] if n else None)

    @property
    def n_attributes(self) -> int:
        return self.weights.shape[1]

    @property
    def n_samples(self) -> int:
        return len(self.assignment)

    def class_counts(self, label_ids: np.ndarray, n_classes: int) -> np.ndarray:
        """(P, n_classes) member count of each class in each cell; label_ids
        holds one class id per sample id."""
        flat = self.assignment * n_classes + label_ids
        return np.bincount(flat, minlength=len(self.counts) * n_classes).reshape(-1, n_classes)

    def __eq__(self, other):
        if not isinstance(other, SomMap):
            return NotImplemented
        return (
            (self.rows, self.cols, self.config) == (other.rows, other.cols, other.config)
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("weights", "counts", "means", "stds", "member_ids"))
        )


def _member_owners(pes, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells' member ids stacked in cell order, and the cell of each id.

    Raises SomError naming the first id, in cell order, that is not an
    integer in 0..n-1 or repeats an earlier one, and for a repeat the cell
    that holds it first.
    """
    flat = [i for pe in pes for i in pe.member_ids]
    n = len(flat)
    cell_of = np.repeat(np.arange(len(pes)), counts)
    ids = np.array(flat)
    if ids.dtype.kind in "iu":
        outside = (ids < 0) | (ids >= n)
        end = int(np.argmax(outside)) if outside.any() else n
        ids = ids[:end].astype(np.intp)
    else:   # an id that is no integer, or no id at all: look for it in Python
        end = next((pos for pos, i in enumerate(flat)
                    if not isinstance(i, (int, np.integer)) or not 0 <= i < n), n)
        ids = np.array(flat[:end], dtype=np.intp)
    # every id before end is in range, so a repeat among them comes first
    order = np.arange(end)
    first = np.full(n, end)
    np.minimum.at(first, ids, order)
    repeat = first[ids] != order
    if repeat.any():
        pos = int(np.argmax(repeat))
        raise SomError(f"cell {cell_of[pos]}: member id {flat[pos]} is also in cell "
                       f"{cell_of[first[ids[pos]]]}")
    if end < n:
        raise SomError(f"cell {cell_of[end]}: member id {flat[end]!r} is outside 0..{n - 1}")
    owner = np.empty(n, dtype=np.intp)
    owner[ids] = cell_of
    return ids, owner


def _initial_weights(rng: np.random.Generator, samples: np.ndarray, n_pes: int) -> np.ndarray:
    # Random data rows (with replacement) keep initial weights in data range.
    idx = rng.integers(0, samples.shape[0], size=n_pes)
    return samples[idx].astype(float).copy()


def _stats_from_weights(dataset: Dataset, config: SomConfig, weights: np.ndarray) -> SomMap:
    """Assign every sample to its unbiased nearest cell and build PeStats."""
    samples = dataset.samples
    d2 = ((samples[:, None, :] - weights[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)     # ties: lowest row-major cell index
    pes = []
    for p in range(config.rows * config.cols):
        ids = tuple(int(i) for i in np.nonzero(nearest == p)[0])
        member = samples[list(ids)]
        n = len(ids)
        if n == 0:
            mean, std = None, None
        else:
            mean = member.mean(axis=0)
            std = member.std(axis=0, ddof=1) if n > 1 else np.zeros(samples.shape[1])
        pes.append(PeStats(
            r=p // config.cols, c=p % config.cols,
            weight=weights[p], member_ids=ids, n=n, mean=mean, std=std,
        ))
    return SomMap(rows=config.rows, cols=config.cols, pes=tuple(pes), config=config)


def initialize(dataset: Dataset, config: SomConfig) -> SomMap:
    """Untrained map: seeded initial weights with samples assigned to them."""
    rng = np.random.default_rng(config.seed)
    weights = _initial_weights(rng, dataset.samples, config.rows * config.cols)
    return _stats_from_weights(dataset, config, weights)


def _neighborhoods(grid: np.ndarray, hw: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per winner (row-major): its neighborhood as a view of the (rows, cols, M)
    weight grid, the square of half-width hw clamped at the grid edges, and a
    same-shaped view of one step buffer shared by all winners."""
    rows, cols, m = grid.shape
    step = np.empty((min(rows, 2 * hw + 1), min(cols, 2 * hw + 1), m))
    hoods = []
    for r in range(rows):
        r0, r1 = max(r - hw, 0), min(r + hw + 1, rows)
        for c in range(cols):
            c0, c1 = max(c - hw, 0), min(c + hw + 1, cols)
            hoods.append((grid[r0:r1, c0:c1], step[:r1 - r0, :c1 - c0]))
    return hoods


def train(dataset: Dataset, config: SomConfig) -> SomMap:
    """Train the map on the dataset; deterministic in (dataset, config).

    Winner selection during training subtracts the conscience bias
    gamma * (1/n_cells - f_i) from each cell's squared distance, where f_i is
    the running win frequency, updated per presentation as
    f_i += beta * ((won ? 1 : 0) - f_i).  The learning rate decays linearly
    from lr_start to lr_end across epochs; presentation order is reshuffled
    from the seeded generator every epoch.  Final statistics come from an
    unbiased nearest-cell assignment pass.
    """
    samples = dataset.samples
    n, m = samples.shape
    rows, cols = config.rows, config.cols
    n_pes = rows * cols
    rng = np.random.default_rng(config.seed)

    weights = _initial_weights(rng, samples, n_pes)
    grid = weights.reshape(rows, cols, m)          # a view: slices update weights
    inv_pes = 1.0 / n_pes
    freq = np.full(n_pes, inv_pes)
    beta, gamma = config.conscience_beta, config.conscience_gamma
    xs = list(samples)
    # Every step writes into these buffers instead of allocating temporaries;
    # each ufunc is the one the plain expression in the comment beside it
    # calls, with the same operands in the same order, so the weights stay
    # bit-identical to that expression's.
    diff = np.empty((n_pes, m))
    d2 = np.empty(n_pes)
    bias = np.empty(n_pes)
    decay = np.empty(n_pes)
    hw, hoods = None, None

    for epoch in range(config.epochs):
        if config.epochs > 1:
            lr = config.lr_start + (config.lr_end - config.lr_start) * epoch / (config.epochs - 1)
        else:
            lr = config.lr_start
        if config.half_width_at(epoch) != hw:          # once per schedule phase
            hw = config.half_width_at(epoch)
            hoods = _neighborhoods(grid, hw)
        for idx in rng.permutation(n).tolist():
            x = xs[idx]
            np.subtract(weights, x, out=diff)           # d2 = ((weights - x) ** 2)
            np.square(diff, out=diff)                   #      .sum(axis=1)
            np.add.reduce(diff, axis=1, out=d2)
            np.subtract(inv_pes, freq, out=bias)        # d2 - gamma * (1/P - freq)
            np.multiply(gamma, bias, out=bias)
            np.subtract(d2, bias, out=d2)
            winner = int(d2.argmin())
            np.negative(freq, out=decay)                # freq += beta * (-freq)
            np.multiply(beta, decay, out=decay)
            np.add(freq, decay, out=freq)
            freq[winner] += beta
            box, step = hoods[winner]                   # box += lr * (x - box)
            np.subtract(x, box, out=step)
            np.multiply(lr, step, out=step)
            np.add(box, step, out=box)

    if not np.all(np.isfinite(weights)):
        raise SomError("non-finite weight encountered; learning rate diverged")
    return _stats_from_weights(dataset, config, weights)


def quantization_error(som_map: SomMap, dataset: Dataset) -> float:
    """Mean Euclidean distance from each sample to its own cell's weight."""
    if som_map.n_attributes != dataset.n_attributes:
        raise SomError("map and dataset attribute counts differ")
    if som_map.n_samples != dataset.n_samples:
        raise SomError("map was not built from a dataset of this size")
    d = dataset.samples - som_map.weights[som_map.assignment]
    return float(np.mean(np.sqrt(np.vecdot(d, d))))


def _config_to_dict(config: SomConfig) -> dict:
    return {
        "rows": config.rows,
        "cols": config.cols,
        "epochs": config.epochs,
        "lr_start": config.lr_start,
        "lr_end": config.lr_end,
        "neighborhood_schedule": [[f, h] for f, h in config.neighborhood_schedule],
        "conscience_beta": config.conscience_beta,
        "conscience_gamma": config.conscience_gamma,
        "seed": config.seed,
    }


def _config_from_dict(d: dict) -> SomConfig:
    return SomConfig(
        rows=d["rows"], cols=d["cols"], epochs=d["epochs"],
        lr_start=d["lr_start"], lr_end=d["lr_end"],
        neighborhood_schedule=tuple((f, h) for f, h in d["neighborhood_schedule"]),
        conscience_beta=d["conscience_beta"], conscience_gamma=d["conscience_gamma"],
        seed=d["seed"],
    )


def map_to_json(som_map: SomMap) -> str:
    """Deterministic JSON text for a map (exact float round-trip)."""
    doc = {
        "format_version": MAP_FORMAT_VERSION,
        "rows": som_map.rows,
        "cols": som_map.cols,
        "seed": som_map.config.seed,
        "config": _config_to_dict(som_map.config),
        "pes": [
            {
                "r": pe.r,
                "c": pe.c,
                "weight": pe.weight.tolist(),
                "member_ids": list(pe.member_ids),
                "n": pe.n,
                "mean": None if pe.mean is None else pe.mean.tolist(),
                "std": None if pe.std is None else pe.std.tolist(),
            }
            for pe in (som_map.pe(r, c)
                       for r in range(som_map.rows) for c in range(som_map.cols))
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_map(som_map: SomMap, path) -> None:
    write_text_atomic(path, map_to_json(som_map))


def load_map(path) -> SomMap:
    """Read a map file; every check is SomMap's, its messages prefixed with the path."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise SomError(f"{path}: malformed map file: {e}") from None
    if not isinstance(doc, dict) or doc.get("format_version") != MAP_FORMAT_VERSION:
        raise SomError(f"{path}: unsupported map format version")
    try:
        pes = tuple(
            PeStats(
                r=rec["r"], c=rec["c"],
                weight=np.array(rec["weight"], dtype=float),
                member_ids=tuple(rec["member_ids"]),
                n=rec["n"],
                mean=None if rec["mean"] is None else np.array(rec["mean"], dtype=float),
                std=None if rec["std"] is None else np.array(rec["std"], dtype=float),
            )
            for rec in doc["pes"]
        )
        return SomMap(rows=doc["rows"], cols=doc["cols"], pes=pes,
                      config=_config_from_dict(doc["config"]))
    except SomError as e:
        raise SomError(f"{path}: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        raise SomError(f"{path}: malformed map file: {e}") from None
