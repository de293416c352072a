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
import math
import reprlib
from dataclasses import InitVar, asdict, dataclass, field, fields

import numpy as np

from .data_model import (Dataset, encode_labels, float_array, from_record, is_integer,
                         is_number, read_json_file, record_keys, require, write_text_atomic)

MAP_FORMAT_VERSION = 1


class SomError(ValueError):
    """Raised for invalid configs, data training cannot represent, or bad map files."""


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
        require(SomError, is_integer, "an integer", rows=self.rows, cols=self.cols,
                epochs=self.epochs, seed=self.seed)
        require(SomError, is_number, "a number", lr_start=self.lr_start, lr_end=self.lr_end,
                conscience_beta=self.conscience_beta, conscience_gamma=self.conscience_gamma)
        for f in fields(self):      # numpy scalars become the int or float they hold
            if f.type in (int, float):
                object.__setattr__(self, f.name, f.type(getattr(self, f.name)))
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise SomError("grid must have at least 2 cells")
        if self.epochs < 1:
            raise SomError("epochs must be positive")
        if not (1 >= self.lr_start >= self.lr_end > 0):
            raise SomError("need 1 >= lr_start >= lr_end > 0")
        require(SomError, lambda v: math.isfinite(v) and v >= 0, "finite and non-negative",
                conscience_beta=self.conscience_beta, conscience_gamma=self.conscience_gamma)
        if not (0 <= self.seed < 2**64):
            raise SomError("seed must fit in 64 unsigned bits")
        schedule = self.neighborhood_schedule
        if not isinstance(schedule, (list, tuple)):
            raise SomError(f"neighborhood_schedule must be a sequence of pairs, got {schedule!r}")
        for pair in schedule:
            pair = tuple(pair) if isinstance(pair, (list, tuple)) else pair
            if not (type(pair) is tuple and len(pair) == 2
                    and is_number(pair[0]) and is_integer(pair[1])):
                raise SomError(f"neighborhood_schedule pairs are (fraction, integer half-width), "
                               f"got {pair!r}")
        sched = tuple((float(f), int(h)) for f, h in schedule)
        if not sched or sched[0][0] != 0.0:
            raise SomError("neighborhood schedule must start at epoch fraction 0")
        fracs = [f for f, _ in sched]
        widths = [h for _, h in sched]
        if not all(0.0 <= f <= 1.0 for f in fracs):     # false for nan and inf too
            raise SomError(f"neighborhood_schedule fractions must be finite and in [0, 1], "
                           f"got {fracs}")
        if fracs != sorted(fracs) or any(h < 0 for h in widths):
            raise SomError("schedule fractions must ascend; half-widths non-negative")
        if widths != sorted(widths, reverse=True):
            raise SomError("half-widths must be non-increasing")
        object.__setattr__(self, "neighborhood_schedule", sched)

    def half_width_at(self, epoch: int) -> int:
        """Half-width of the last pair whose fraction the epoch (0 or more) has reached."""
        frac = epoch / self.epochs
        return [h for f, h in self.neighborhood_schedule if f <= frac][-1]


@dataclass(frozen=True, eq=False)
class PeStats:
    """One grid cell: weight vector plus statistics of the samples it won.

    The record a SomMap is built from, one per cell in row-major order (its
    vectors may be lists), and the one SomMap.pe derives from the map's arrays.
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
        require(SomError, is_integer, "an integer", rows=self.rows, cols=self.cols)
        object.__setattr__(self, "rows", int(self.rows))
        object.__setattr__(self, "cols", int(self.cols))
        if (self.rows, self.cols) != (self.config.rows, self.config.cols):
            raise SomError(f"grid {self.rows}x{self.cols} differs from the config's "
                           f"{self.config.rows}x{self.config.cols}")
        if len(pes) != self.rows * self.cols:
            raise SomError(f"{len(pes)} cells do not tile the "
                           f"{self.rows}x{self.cols} grid")
        shape = _vector(pes[0].weight, "cell 0: weight").shape
        zeros = np.zeros(shape)
        weights, means, stds = [], [], []
        for k, pe in enumerate(pes):
            if not (is_integer(pe.r) and is_integer(pe.c)) or (pe.r, pe.c) != divmod(k, self.cols):
                raise SomError(f"cell {k}: r/c ({pe.r!r}, {pe.c!r}) do not match its "
                               f"position {divmod(k, self.cols)}")
            weight = _vector(pe.weight, f"cell {k}: weight")
            if weight.shape != shape:
                raise SomError(f"cell {k}: weight has shape {weight.shape}, expected {shape}")
            if not is_integer(pe.n) or pe.n < 0:
                raise SomError(f"cell {k}: n must be a non-negative integer, got {pe.n!r}")
            if not isinstance(pe.member_ids, (list, tuple)):
                raise SomError(f"cell {k}: member_ids must be a list, got {pe.member_ids!r}")
            if pe.n != len(pe.member_ids):
                raise SomError(f"cell {k}: n is {pe.n} but member_ids lists "
                               f"{len(pe.member_ids)}")
            weights.append(weight)
            for name, table in (("mean", means), ("std", stds)):
                value = getattr(pe, name)
                if pe.n == 0 and value is not None:
                    raise SomError(f"cell {k}: {name} must be null for an empty cell")
                if value is not None:
                    value = _vector(value, f"cell {k}: {name}")
                got = None if value is None else value.shape
                if pe.n > 0 and got != shape:
                    raise SomError(f"cell {k}: {name} has shape {got}, "
                                   f"expected the weight's {shape}")
                table.append(value if pe.n else zeros)
        weights, means, stds = (np.array(table, dtype=float) for table in (weights, means, stds))
        for name, table in (("weight", weights), ("mean", means), ("std", stds)):
            if not np.isfinite(table).all():
                cell = np.argmin(np.isfinite(table).all(axis=1))
                raise SomError(f"cell {cell}: {name} has a non-finite value")
        if stds.min() < 0:
            raise SomError(f"cell {np.argmax(stds.min(axis=1) < 0)}: std has a negative value")
        counts = np.array([pe.n for pe in pes], dtype=np.intp)
        n = int(counts.sum())
        ids, owner = _member_ids(pes, n)
        for name, table in (("weights", weights), ("means", means), ("stds", stds),
                            ("counts", counts), ("member_ids", ids), ("assignment", owner)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def pe(self, r: int, c: int) -> PeStats:
        """Cell (r, c) as a PeStats record derived from the arrays; mean and
        std are None on an empty cell."""
        require(SomError, is_integer, "an integer", r=r, c=c)
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise SomError(f"cell ({r}, {c}) is outside the {self.rows}x{self.cols} grid")
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

    def check_fits(self, dataset: Dataset) -> None:
        """A map fits only data shaped like the data it was trained on."""
        if self.n_attributes != dataset.n_attributes:
            raise SomError(f"map has {self.n_attributes} attributes, "
                           f"data has {dataset.n_attributes}")
        if self.n_samples != dataset.n_samples:
            raise SomError(f"map holds {self.n_samples} samples, data has {dataset.n_samples}")

    def class_counts(self, labels) -> tuple[list, np.ndarray]:
        """The sorted classes of labels, one per sample id, and the
        (P, classes) member count of each class in each cell."""
        classes, label_ids = encode_labels(labels)
        if len(label_ids) != self.n_samples:
            raise SomError("labels do not cover the map's samples")
        flat = self.assignment * len(classes) + label_ids
        counts = np.bincount(flat, minlength=len(self.counts) * len(classes))
        return classes, counts.reshape(-1, len(classes))

    def __eq__(self, other):
        if not isinstance(other, SomMap):
            return NotImplemented
        return (
            (self.rows, self.cols, self.config) == (other.rows, other.cols, other.config)
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("weights", "counts", "means", "stds", "member_ids"))
        )


def _vector(value, name: str):
    """A cell's vector for the stack, its one float copy: float_array's or, for
    a non-empty 1-D integer or float ndarray, the array itself."""
    if (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"
            and value.ndim == 1 and value.size):
        return value
    return float_array(SomError, name, value, 1)


def _member_ids(pes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n member ids of the cells, stacked in cell order, and the cell
    of each id, as np.intp arrays.

    Checks them in one pass and raises SomError naming the first id, in cell
    order, that is not an integer (a bool is none) in 0..n-1 or repeats an
    earlier one, and for a repeat the cell that holds it first.
    """
    ids, owner = [], [-1] * n
    for k, pe in enumerate(pes):
        for i in pe.member_ids:
            if type(i) is not int and not is_integer(i):    # a plain int skips the call
                raise SomError(f"cell {k}: member id {i!r} is not an integer")
            if not 0 <= i < n:
                raise SomError(f"cell {k}: member id {i!r} is outside 0..{n - 1}")
            if owner[i] >= 0:
                raise SomError(f"cell {k}: member id {i} is also in cell {owner[i]}")
            owner[i] = k
        ids += pe.member_ids
    return np.fromiter(ids, np.intp, n), np.array(owner, dtype=np.intp)


def _initial_weights(rng: np.random.Generator, dataset: Dataset, n_pes: int) -> np.ndarray:
    # Random data rows (with replacement) keep initial weights in data range,
    # and training keeps them there up to rounding; so below this bound no cell
    # sum of n values or squared deviations, nor squared distance over M
    # attributes, passes half the float range.
    n, m = dataset.samples.shape
    bound = math.sqrt(np.finfo(float).max / (8 * max(n, m)))
    over = np.abs(dataset.samples).max(axis=0) > bound
    if over.any():
        raise SomError(f"attribute {dataset.attribute_names[over.argmax()]!r} has a value "
                       f"beyond {bound:.6g} in magnitude, which training could overflow")
    return dataset.samples[rng.integers(0, n, size=n_pes)]


def _stats_from_weights(dataset: Dataset, config: SomConfig, weights: np.ndarray) -> SomMap:
    """Assign every sample to its unbiased nearest cell and build PeStats."""
    samples = dataset.samples
    rows = _chunk_rows(len(samples), weights.size)      # samples per (rows, P, M) temporary
    nearest = np.concatenate([((samples[i:i + rows, None] - weights) ** 2).sum(axis=2).argmin(1)
                              for i in range(0, len(samples), rows)])  # ties: lowest cell index
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
    weights = _initial_weights(rng, dataset, config.rows * config.cols)
    return _stats_from_weights(dataset, config, weights)


def _neighborhoods(weights: np.ndarray, diff: np.ndarray, cols: int, hw: int) -> list[tuple]:
    """Per winner (row-major): the stretch of the (P, M) weights its update
    computes, a step buffer of the stretch's length, the mask its update
    writes through, and the same stretch of the (P, M) buffer diff, where
    training leaves x - w for the update to read.

    At half-width 0 the stretch is the winner's own (M,) weight row, all
    written.  Wider, it is the contiguous run of the whole grid rows that
    the square of half-width hw, clamped at the grid edges, spans; the mask
    holds the square's columns, or is True where the square holds whole
    rows (numpy writes faster unmasked).  Step buffers are shared per band
    height, masks per band height and span of columns.
    """
    n_pes, m = weights.shape
    if hw == 0:
        return [(row, np.empty_like(row), True, d) for row, d in zip(weights, diff)]
    rows, width = n_pes // cols, cols * m       # width: the floats of a grid row
    flat, flat_diff = weights.reshape(-1), diff.reshape(-1)     # views: stretches update weights
    bands, masks, hoods = {}, {}, []
    for r in range(rows):
        r0, r1 = max(r - hw, 0), min(r + hw + 1, rows)
        h = r1 - r0
        if h not in bands:
            bands[h] = np.empty(h * width)
        for c in range(cols):
            c0, c1 = max(c - hw, 0), min(c + hw + 1, cols)
            if (h, c0, c1) not in masks:
                square = np.zeros((h, cols, m), dtype=bool)
                square[:, c0:c1] = True
                masks[h, c0, c1] = square.reshape(-1) if c1 - c0 < cols else True
            stretch = slice(r0 * width, r1 * width)
            hoods.append((flat[stretch], bands[h], masks[h, c0, c1], flat_diff[stretch]))
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
    weights, _ = _train_weights(dataset, config)
    return _stats_from_weights(dataset, config, weights)


# The bytes of _train_weights' chunk of per-cell sample copies and of each
# nearest-cell temporary; a chunk holds at least one sample whatever its size.
_CHUNK_BYTES = 1 << 18


def _chunk_rows(n: int, row_floats: int) -> int:
    """How many of n rows of row_floats float64s _CHUNK_BYTES holds, at least one."""
    return max(1, min(n, _CHUNK_BYTES // (8 * row_floats)))


def _train_weights(dataset: Dataset, config: SomConfig) -> tuple[np.ndarray, np.ndarray]:
    """The training loop of train: the (P, M) trained weights and the (P,)
    conscience win frequencies at the end of training."""
    samples = dataset.samples
    n, m = samples.shape
    n_pes = config.rows * config.cols
    rng = np.random.default_rng(config.seed)

    weights = _initial_weights(rng, dataset, n_pes)
    freq = np.full(n_pes, 1.0 / n_pes)
    beta, gamma = config.conscience_beta, config.conscience_gamma

    # Every step writes into these buffers instead of allocating temporaries,
    # through the IEEE operations of the plain expression beside it, up to
    # beta * -f == -(beta * f), f + -y == f - y, 1.0 * b == b and
    # (x - w)**2 == (w - x)**2, so the weights and frequencies keep its bits.
    # The distance subtracts the weights from a (P, M) copy of the sample, one
    # row per cell (faster than broadcasting one), made a chunk of presentations
    # at a time, and squares into sq: diff keeps x - w, the update's x - box
    # (negating w - x would give -0.0 where x == w).  The update computes whole
    # grid rows and writes only under the neighborhood mask, so a cell outside
    # the square keeps its bits, a zero's sign included.  The row sum stays
    # numpy's over each contiguous (M,) row: it sums 8 or more attributes
    # pairwise, which a sum over another layout does not.
    chunk = np.empty((_chunk_rows(n, n_pes * m), n_pes, m))
    copies = list(chunk)        # one view per presentation, refilled per chunk
    cell_rows = chunk.reshape(-1, m)
    diff = np.empty((n_pes, m))
    sq = np.empty((n_pes, m))
    d2 = np.empty(n_pes)
    bias = np.empty(n_pes)
    decay = np.empty(n_pes)
    # Ufuncs take a scalar faster as a 0-d array than as a Python float, and
    # out positionally; the scalar add freq[winner] += beta takes the float.
    inv_pes, beta_, gamma_ = (np.array(v) for v in (1.0 / n_pes, beta, gamma))
    subtract, multiply, add, square, add_reduce, putmask = (np.subtract, np.multiply, np.add,
                                                            np.square, np.add.reduce, np.putmask)
    argmin = d2.argmin
    hw, hoods = None, None

    for epoch in range(config.epochs):
        lr = np.array(config.lr_start + (config.lr_end - config.lr_start) * epoch
                      / max(config.epochs - 1, 1))
        if config.half_width_at(epoch) != hw:          # once per schedule phase
            hw = config.half_width_at(epoch)
            hoods = _neighborhoods(weights, diff, config.cols, hw)
        order = rng.permutation(n).tolist()
        for start in range(0, n, len(copies)):
            ids = order[start:start + len(copies)]
            cell_rows[:len(ids) * n_pes] = np.repeat(samples[ids], n_pes, axis=0)
            for x_all in copies[:len(ids)]:
                subtract(x_all, weights, diff)          # d2 = ((x - weights) ** 2)
                square(diff, sq)                        #      .sum(axis=1)
                add_reduce(sq, 1, None, d2)
                subtract(inv_pes, freq, bias)           # d2 - gamma * (1/P - freq)
                if gamma != 1.0:
                    multiply(gamma_, bias, bias)
                subtract(d2, bias, d2)
                winner = argmin()
                multiply(beta_, freq, decay)            # freq += beta * (-freq)
                subtract(freq, decay, freq)
                freq[winner] += beta
                box, step, mask, x_box = hoods[winner]  # box += lr * (x - box)
                multiply(lr, x_box, step)
                if mask is True:
                    add(box, step, box)
                else:                                   # writes the square only
                    add(box, step, step)
                    putmask(box, mask, step)
    return weights, freq


def quantization_error(som_map: SomMap, dataset: Dataset) -> float:
    """Mean Euclidean distance from each sample to its own cell's weight."""
    som_map.check_fits(dataset)
    d = dataset.samples - som_map.weights[som_map.assignment]
    return float(np.mean(np.sqrt(np.vecdot(d, d))))


def map_to_json(som_map: SomMap) -> str:
    """Deterministic JSON text for a map (exact float round-trip)."""
    doc = {
        "format_version": MAP_FORMAT_VERSION,
        "rows": som_map.rows,
        "cols": som_map.cols,
        "seed": som_map.config.seed,
        "config": asdict(som_map.config),
        "pes": [{name: _listed(getattr(pe, name)) for name in record_keys(PeStats)}
                for pe in (som_map.pe(r, c)
                           for r in range(som_map.rows) for c in range(som_map.cols))],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _listed(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def save_map(som_map: SomMap, path) -> None:
    write_text_atomic(path, map_to_json(som_map))


def load_map(path) -> SomMap:
    """Read a map file; each record holds exactly its fields, every other check is its owner's."""
    return read_json_file(path, "map", MAP_FORMAT_VERSION, SomError, _map_from_file)


def _map_from_file(rows, cols, seed, config, pes) -> SomMap:
    config = from_record(SomError, SomConfig, config, "config")
    if not is_integer(seed) or seed != config.seed:
        raise SomError(f"seed {reprlib.repr(seed)} differs from the config's "
                       f"{reprlib.repr(config.seed)}")
    if not isinstance(pes, list):
        raise SomError(f"pes must be a list of cell records, got {reprlib.repr(pes)}")
    cells = tuple(from_record(SomError, PeStats, rec, f"cell {k}") for k, rec in enumerate(pes))
    return SomMap(rows=rows, cols=cols, pes=cells, config=config)
