"""Marginal-likelihood cost of constant-value blocks.

A block is a set of cells, each contributing a per-attribute mean m_i with
width sigma_i, modeled as noisy observations of one shared underlying value
per attribute.  The shared value is unknown; it carries a uniform prior of
width R and is integrated out.  Per attribute, each cell's likelihood factor
is (1/(sqrt(pi)*sigma_i)) * exp(-(m_i - x)^2 / sigma_i^2), so sigma is the
width in the exponent, not a conventional standard deviation.  Integrating
the product of N such factors against the flat prior gives

    L = pi^(-(N-1)/2) * (prod sigma_i)^(-1) * exp(-resid) * S^(-1/2) / R

with S = sum 1/sigma_i^2, X = (sum m_i/sigma_i^2)/S the precision-weighted
mean, and resid = sum (m_i - X)^2/sigma_i^2.  The block cost is -ln L summed
over attributes; lower cost means a better single-value fit.  The prior
factor 1/R appears once per block ("per_block", the default).  The
alternative "per_pe" convention raises the R and sqrt(pi) prior factors to
the power (N-1) instead; both are kept selectable because they penalize
extra blocks in opposite directions.
"""

import copy
import math
import operator
import reprlib
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence

import numpy as np

from .data_model import AttributeSummary, float_array, is_number, require

if TYPE_CHECKING:
    from .partition import Partition
    from .som import PeStats, SomMap

RANGE_RULES = ("two_span", "two_max")
RANGE_EXPONENTS = ("per_block", "per_pe")


class CostError(ValueError):
    """Raised for invalid cost parameters or block inputs."""


def sqrt_scale(block_size: int) -> float:
    """Default block-size scale: square root of the cell count."""
    return math.sqrt(block_size)


def unit_scale(block_size: int) -> float:
    """Size-independent scale, for calibration tests."""
    return 1.0


N_SCALE_RULES: dict[str, Callable[[int], float]] = {
    "sqrt": sqrt_scale,
    "unit": unit_scale,
}


def n_scale_name(rule: Callable[[int], float]) -> str:
    """The N_SCALE_RULES name of a size-scale rule."""
    return next(k for k, v in N_SCALE_RULES.items() if v is rule)


@dataclass(frozen=True, eq=False)
class CostParams:
    """Range and width parameters of the block cost.

    R is the per-attribute range of the flat prior.  Cell widths are
    estimated as max(sigma_floor, sigma_const * n_scale_rule(N) * s) where s
    is the cell's observed sample standard deviation and N the block size.
    n_scale_rule is one of N_SCALE_RULES' rules, the function itself.
    scaled() makes the params of one stability-sweep point.

    Default calibration: unit size scale, sigma_const 1, and a floor of
    0.15 * span per attribute, so the floor is the operative width for
    typical cells and a cell's own scatter takes over only when larger.
    The block-size-scaled alternative (sqrt_scale, larger sigma_const) is
    fully supported but fragments real maps: scaling every member's width
    with block size adds a cost of about n*ln(2) per attribute to merging
    two n-cell blocks, which caps block growth regardless of how well the
    cell means agree.
    """

    R: np.ndarray
    sigma_floor: np.ndarray
    sigma_const: float = 1.0
    n_scale_rule: Callable[[int], float] = unit_scale
    range_exponent: str = "per_block"

    def __post_init__(self):
        for name in ("R", "sigma_floor"):
            object.__setattr__(self, name, float_array(CostError, name, getattr(self, name), 1))
        if not np.all((self.R > 0) & np.isfinite(self.R)):
            raise CostError("R must be a finite, strictly positive vector")
        if self.sigma_floor.shape != self.R.shape or not np.all(
                (self.sigma_floor > 0) & np.isfinite(self.sigma_floor)):
            raise CostError("sigma_floor must be finite and strictly positive, same shape as R")
        _require_factors(sigma_const=self.sigma_const)
        object.__setattr__(self, "sigma_const", float(self.sigma_const))
        if not any(self.n_scale_rule is rule for rule in N_SCALE_RULES.values()):
            raise CostError(f"n_scale_rule must be one of N_SCALE_RULES' rules "
                            f"{tuple(N_SCALE_RULES)}, got {reprlib.repr(self.n_scale_rule)}")
        if self.range_exponent not in RANGE_EXPONENTS:
            raise CostError(f"range_exponent must be one of {RANGE_EXPONENTS}")
        _check_inverse_floor(self.sigma_floor)

    @property
    def n_attributes(self) -> int:
        return self.R.shape[0]

    def scaled(self, f_R: float = 1.0, f_sigma: float = 1.0) -> "CostParams":
        """Copy with R scaled by f_R and sigma_const by f_sigma: one point of a
        stability sweep around these params."""
        _require_factors(f_R=f_R, f_sigma=f_sigma)
        f_R, f_sigma = float(f_R), float(f_sigma)
        with np.errstate(over="ignore"):
            R, sigma_const = self.R * f_R, self.sigma_const * f_sigma
        # Finite factors can still overflow ln R or the width scale.
        if not np.all((R > 0) & np.isfinite(R)):
            raise CostError(f"ln(f_R * R) must be finite, got f_R={f_R!r}")
        if not (sigma_const > 0 and math.isfinite(sigma_const)):
            raise CostError(f"f_sigma * sigma_const must be positive and finite, got "
                            f"f_sigma={f_sigma!r}, sigma_const={self.sigma_const!r}")
        # Only R and sigma_const change, and both were checked above.
        R.setflags(write=False)
        params = copy.copy(self)
        object.__setattr__(params, "R", R)
        object.__setattr__(params, "sigma_const", sigma_const)
        return params

    def echo(self) -> dict:
        """Serializable summary of every field for artifact provenance headers."""
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        echo["R"] = self.R.tolist()
        echo["sigma_floor"] = self.sigma_floor.tolist()
        echo["n_scale_rule"] = n_scale_name(self.n_scale_rule)
        return echo


def _require_factors(**values) -> None:
    """Refuse a value that is not a positive, finite number, naming it."""
    require(CostError, is_number, "a number", **values)
    require(CostError, lambda v: v > 0 and math.isfinite(v), "positive and finite", **values)


def params_from_summary(summary: AttributeSummary, *,
                        range_rule: str = "two_max",
                        sigma_floor_frac: float = 0.15, f_R: float = 1.0,
                        **options) -> CostParams:
    """Build CostParams from observed attribute extremes.

    The range is f_R times 2*(max-min) under two_span or 2*max under
    two_max, and the width floor is sigma_floor_frac times the attribute
    span.  The other options (range_exponent, sigma_const, n_scale_rule)
    pass through to CostParams, which owns their defaults.
    """
    if range_rule == "two_span":
        base_R = 2.0 * summary.spans
    elif range_rule == "two_max":
        for j, top in enumerate(summary.maxs):
            if not top > 0:
                raise CostError(f"two_max range rule needs a positive maximum, but attribute "
                                f"{j} has maximum {float(top)!r}; use range_rule=\"two_span\"")
        base_R = 2.0 * summary.maxs
    else:
        raise CostError(f"range_rule must be one of {RANGE_RULES}")
    _require_factors(sigma_floor_frac=sigma_floor_frac)
    for j, span in enumerate(summary.spans):
        if not span > 0:
            raise CostError(f"sigma floor needs positive span on every attribute, but "
                            f"attribute {j} has span {float(span)!r}")
    sigma_floor = sigma_floor_frac * summary.spans
    _check_inverse_floor(sigma_floor, f" from sigma_floor_frac={sigma_floor_frac!r}")
    return CostParams(R=base_R, sigma_floor=sigma_floor, **options).scaled(f_R=f_R)


def _check_inverse_floor(sigma_floor: np.ndarray, source: str = "") -> None:
    """Refuse floors whose 1/sigma_floor**2 overflows, or underflows to 0;
    source ends the message."""
    with np.errstate(over="ignore", divide="ignore"):
        inverse = 1.0 / sigma_floor**2
    if not np.all(np.isfinite(inverse)):
        raise CostError(f"1/sigma_floor**2 must be finite, got sigma_floor "
                        f"{float(sigma_floor.min())!r}{source}")
    if not np.all(inverse > 0):
        raise CostError(f"1/sigma_floor**2 must be positive, got sigma_floor "
                        f"{float(sigma_floor.max())!r}{source}")


def block_stat(means: np.ndarray, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per attribute of an (N, M) table of means and widths: the summed
    precision S, the precision-weighted mean X and the weighted squared
    deviation resid about X.

    Sums use exact accumulation so results do not depend on member order.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    if means.shape != sigmas.shape or means.size == 0:
        raise CostError("means and sigmas must be non-empty and congruent")
    if np.any(sigmas <= 0):
        raise CostError("all sigmas must be strictly positive")
    m = means.shape[1]
    w = 1.0 / sigmas**2
    S = np.array([math.fsum(w[:, j]) for j in range(m)])
    X = np.array([math.fsum(w[:, j] * means[:, j]) for j in range(m)]) / S
    resid = np.array([math.fsum(w[:, j] * (means[:, j] - X[j]) ** 2) for j in range(m)])
    return S, X, resid


def width_scale(params: CostParams, block_size: int) -> float:
    """sigma_const * n_scale_rule(block_size): the factor on a cell's observed
    std in a block of block_size non-empty cells."""
    return params.sigma_const * params.n_scale_rule(block_size)


def widths_at_floor(som_map: "SomMap", params: CostParams) -> bool:
    """True when every cell's width is its floor in blocks of every size.

    A block holds 1..N non-empty cells, N the map's count of them, and a
    cell's width in it is max(floor, scale * std).  Both size rules are
    non-decreasing and rounded float multiplication is monotone, so the
    largest of those scales is the one at N, and scale * std <= floor there
    holds at each size: every width BlockCosts could compute for these
    params is the floor, bit for bit, the same widths as under any other
    params with the same floors for which this is True.  A scale that
    overflows answers False, as inf * std is inf, or NaN for a std of 0.
    """
    scale = width_scale(params, max(1, int(np.count_nonzero(som_map.counts))))
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.all(scale * som_map.stds <= params.sigma_floor))


def sigma_estimate(pe: "PeStats", block_size: int, params: CostParams) -> np.ndarray:
    """Per-attribute width of one non-empty cell inside a block of given size.

    sigma = max(floor, sigma_const * n_scale_rule(block_size) * s);
    the floor absorbs cells whose observed s is zero.
    """
    if pe.n == 0:
        raise CostError("sigma_estimate needs a non-empty cell")
    if block_size < 1:
        raise CostError("block_size must be a positive integer")
    return np.maximum(params.sigma_floor, width_scale(params, block_size) * pe.std)


def block_cost(members: Sequence[tuple[np.ndarray, np.ndarray]], params: CostParams) -> float:
    """Negative log marginal likelihood of one block.

    members is a sequence of (mean vector, sigma vector) pairs, one per
    non-empty cell.  Per attribute j, with stats S, X, resid over the block,

        per_block: C_j = ln(R_j) + ((N-1)/2) ln(pi)
                         + sum_i ln(sigma_ij) + ln(S_j)/2 + resid_j
        per_pe:    C_j = (N-1) (ln(R_j) + ln(pi)/2)
                         + sum_i ln(sigma_ij) + ln(S_j)/2 + resid_j

    and the returned cost is sum_j C_j.
    """
    if len(members) == 0:
        raise CostError("block must have at least one member")
    means = np.stack([np.asarray(m, dtype=float) for m, _ in members])
    sigmas = np.stack([np.asarray(s, dtype=float) for _, s in members])
    if means.shape[1] != params.n_attributes:
        raise CostError("member width does not match params.R")
    S, _, resid = block_stat(means, sigmas)
    n = len(members)
    log_R = np.log(params.R)
    log_pi = math.log(math.pi)
    terms = []
    for j in range(params.n_attributes):
        sum_log_sigma = math.fsum(math.log(s) for s in sigmas[:, j])
        common = sum_log_sigma + 0.5 * math.log(S[j]) + resid[j]
        if params.range_exponent == "per_block":
            terms.append(log_R[j] + 0.5 * (n - 1) * log_pi + common)
        else:
            terms.append((n - 1) * (log_R[j] + 0.5 * log_pi) + common)
    return math.fsum(terms)


def block_cost_for_pes(pes: Sequence["PeStats"], params: CostParams) -> float:
    """Cost of a set of grid cells treated as one block.

    Empty cells contribute nothing; the per-cell sigma uses the count of
    non-empty cells as the block size.  A block with no non-empty cell
    costs 0.
    """
    occupied = [pe for pe in pes if pe.n > 0]
    if not occupied:
        return 0.0
    n = len(occupied)
    members = [(pe.mean, sigma_estimate(pe, n, params)) for pe in occupied]
    return block_cost(members, params)


def _logs(values: np.ndarray, common: np.ndarray) -> np.ndarray:
    """math.log of each entry of a 2-D array of positive floats, with one
    math.log per column for the entries equal to that column's common value:
    equal positive floats have the same bits, and so the same log."""
    logs = np.full(values.shape, list(map(math.log, common.tolist())))
    own = values != common
    logs[own] = list(map(math.log, values[own].tolist()))
    return logs


def _bits(flags: np.ndarray) -> int:
    """Row-major bitmask of the true entries of a boolean array."""
    return int.from_bytes(np.packbits(flags.ravel(), bitorder="little").tobytes(), "little")


def _mask_cells(mask: int) -> list[int]:
    """Indices of the set bits of mask, in ascending order."""
    cells = []
    while mask:
        low = mask & -mask
        cells.append(low.bit_length() - 1)
        mask ^= low
    return cells


class BlockCosts:
    """Cached block costs of one map under one cost setting.

    A block is a bitmask over the map's row-major cells.  Only its occupied
    cells enter its cost, so both caches are keyed by those: masks that
    differ only in empty cells share one entry.  The first request for a
    block computes its size n (non-empty cells) and, per attribute, the
    width-dependent part of block_cost, sum ln sigma + ln(S)/2 + resid,
    with the operations of block_stat and block_cost, summed in Python; the
    entry also keeps each attribute's S, X and resid for join_rejected.
    Both caches are made with the empty block in them (n = 0, cost 0), and
    the width terms with every occupied cell as a block of one.

    The engine's width state (_build) holds one per-cell table: the columns
    [w, w * mean, ln sigma, mean] of every cell as a block of one, with
    w = 1/sigma^2.  Its ln sigma column takes math.log once per attribute
    for the widths at the floor (often most of them: empty cells and cells
    with std 0) and once for each width above it.  Under unit_scale every
    block has these widths, so a block's rows are gathered from the table
    by index.  Under sqrt_scale a block of n > 1 cells takes its cells'
    widths at width_scale(n) from their own std and mean, with the table's
    float operations: max(floor, scale * std), 1/(sigma * sigma) and the
    floor's one log; no table is built per block size.  A 1/sigma^2 of 0
    or inf in the table or in a block, or a block's width scale that is not
    finite, is refused with a CostError.  The range prior is added last, per
    attribute once_j for the block and each_j for every further occupied
    cell (_set_range).  It depends only on the engine and the block size n,
    so each engine builds it once per size, [once_j + (n - 1) each_j], at
    its first block of n occupied cells (_priors), and a cost adds it to the
    width terms attribute by attribute and sums in block_cost's order, so
    cost(mask) equals block_cost_for_pes of the same cells bit for bit.

    Shared width state (_build).  The table and the width terms depend only
    on the map and the cells' widths.  at(f_R) hands its engine this
    engine's width state; BlockCosts(...) builds its own and never reads or
    writes the one-entry width record.  _shared(som_map, params) takes the
    record's width state when its map is that very object and its widths
    have the same bits in blocks of every size (_same_widths), else builds
    one, and leaves its engine's state there.  partition_som without costs,
    exhaustive_partition and one column of the sweep (its reference, or the
    first floor column when the reference copies it) go through _shared.
    So the oracle then partition_som on one map and params, or
    partition_som(m, base) then sweep(m, ...), share width states: on
    either 5x5 golden the latter pair builds 8 (13 under sqrt_scale at
    sigma_const 12) for the default 13x13 grid, as many as the sweep alone.
    A partition_som(m, base), or one at base.scaled(f_R=...), after the
    sweep builds no width state; after the default sweep of either golden
    the two compute no width term either.  The record keeps one width state
    alive until _shared builds another: after a 5x5 oracle, about 8,600
    width terms.  partition_som takes an engine only with its own som_map
    and params.

    The f_R interval.  interval is [lo, hi], made (-inf, inf) with every
    engine and narrowed, in _narrow, by every decision partition_som makes
    through the engine: each quadtree and merge test (lowers) and each join
    that join_rejected settles.  Let x = ln(R' / R) for an engine of the
    same map and widths whose range is R' (an at() of the same column).
    Only the range prior depends on R, by once_j per occupied block and
    each_j per further occupied cell, so the winning side's lead g (old
    blocks against new; a tie keeps old) is g + s x there in real
    arithmetic, with s = c (winner's k - loser's k), k a side's occupied
    blocks, c = -M under per_block and +M under per_pe.  The interval
    keeps the x on which every decision's g + s x exceeds a margin, and
    shrinks to [0, 0], the point itself, when a decision is within the
    margin of a tie at x = 0; so partition_som through an engine whose x
    lies strictly inside it makes the same decisions and returns the same
    partition.  An s of 0 constrains nothing: partition_som makes one only
    where both sides hold the same occupied cells in one block (a quadtree
    node with at most one occupied child), equal floats at every R.  Each
    end that moves keeps the decision that moved it last in decided_by:
    (old, new, g, s, scale), with lowers' old and new, or join_rejected's
    ((a, b), (a | b,)) on the blocks' occupied cells.  The end is then
    0.0 if g <= 1e-9 scale + _margin and else (1e-9 scale + _margin - g) / s.
    join_rejected leaves to lowers only the unions this engine has costed,
    so the interval follows from this engine's decisions alone, whatever
    engines that share its width state cached before.

    The margin is 1e-9 (|old| + |new|) + 1e-5 M N (_margin), with |old|
    and |new| the sides' summed costs and N the map's occupied cells.  The
    engine refuses every width whose 1/sigma^2 is 0 or not finite, so
    |ln sigma| < 355, and |ln y| < 745 for every positive finite double y;
    so at every R a block's prior, sum ln sigma and ln(S)/2 are, per
    attribute and occupied cell, below 745.1, 355 and 355.5, below
    C = 1456 M in all.  A block's resids thus
    sum to at most its cost plus C per occupied cell, and with n <= N the
    occupied cells a decision covers, the magnitudes of all the terms of
    its costs, at this R or any other, sum to at most |old| + |new| +
    4 n C.  Each cost is a correctly rounded sum (fsum) of a few
    single roundings per attribute, the log of the rounded R_j included,
    so at either point it lies within 2^-48 (those magnitudes + n C) of its
    real value; with the one rounding of each side's sum, the x the sweep
    computes (a rounded ratio and its log: |x| < 710 and |s| <= M n) and
    the division that places an end, the two points' computed decisions
    stay within about 2^-46 (|old| + |new| + 5 n C) of g + s x, over
    10^4 times below the margin.  A join that join_rejected settles puts
    its own scale for |old| + |new|, which bounds them up to a factor
    of 2 and its delta's error to (M + 100) 2^-53 scale, so the margin
    covers it for any M below about 10^6.
    """

    def __init__(self, som_map: "SomMap", params: CostParams):
        if som_map.n_attributes != params.n_attributes:
            raise CostError(f"map has {som_map.n_attributes} attributes, "
                            f"cost params have {params.n_attributes}")
        self._set_range(params)
        self._take(self._build(som_map))

    @classmethod
    def _shared(cls, som_map: "SomMap", params: CostParams) -> "BlockCosts":
        """An engine of som_map at params with the record's (_last) width
        state when its map is som_map itself and _same_widths holds, else
        its own; the record then holds the engine's width state."""
        global _last
        last = _last
        if last is not None and last[0] is som_map and _same_widths(som_map, last[1], params):
            engine = cls._with(last[2], params)
        else:
            engine = cls(som_map, params)
        _last = som_map, params, engine._widths
        return engine

    @classmethod
    def _with(cls, widths: "_Widths", params: CostParams) -> "BlockCosts":
        """An engine at params that shares this width state."""
        engine = object.__new__(cls)
        engine._take(widths)
        engine._set_range(params)
        return engine

    def _take(self, widths: "_Widths") -> None:
        """Share this width state; its fields become this engine's attributes."""
        self._widths = widths
        (self.som_map, self._occupied, self._table, self._table_columns, self._columns,
         self._top, self._margin, self._terms) = widths

    def _set_range(self, params: CostParams) -> None:
        """Take params' range setting.  Per attribute, a block pays once_j
        when it opens and each_j for every further occupied cell:
        ln(R_j) and ln(pi)/2 under per_block, 0 and ln(R_j) + ln(pi)/2
        under per_pe.  The interval starts unbounded, and _slope is c, the
        interval's slope per occupied block (see above); decided_by holds
        no decision yet."""
        self.params = params
        self._costs: dict[int, float] = {0: 0.0}     # occupied cells -> cost
        self._priors: dict[int, list[float]] = {}    # block size n -> range prior
        self._join = None                            # join_rejected's constants
        self.interval = [-math.inf, math.inf]
        self.decided_by: list[tuple | None] = [None, None]
        log_R = np.log(params.R).tolist()
        half_log_pi = 0.5 * math.log(math.pi)
        if params.range_exponent == "per_block":
            self._once, self._each = log_R, [half_log_pi] * len(log_R)
            self._slope = -len(log_R)
        else:
            self._once, self._each = [0.0] * len(log_R), [v + half_log_pi for v in log_R]
            self._slope = len(log_R)

    def at(self, f_R: float) -> "BlockCosts":
        """This engine at params.scaled(f_R=f_R), one stability-sweep point:
        a new engine that shares the cached width terms, with its own
        interval."""
        return self._with(self._widths, self.params.scaled(f_R=f_R))

    def _refuse_widths(self, scale: float, n: int) -> NoReturn:
        raise CostError(f"cell widths must keep 1/sigma**2 positive and finite, got "
                        f"sigma_const={self.params.sigma_const!r} "
                        f"(width scale {scale!r} for blocks of {n} cells)")

    def _build(self, som_map: "SomMap") -> "_Widths":
        """som_map's width state at these params' widths.  Its table holds the
        columns [w, w * mean, ln sigma, mean], each M wide, of every cell as a
        block of one; w = 1 / sigma^2.  Its width terms start with the empty
        block and every occupied cell's one-cell block.

        ln sigma is math.log of each width, taken once per attribute for the
        widths at that attribute's floor (_logs).  The one-cell entries are
        one numpy pass with the float operations of _width_terms: a fsum of
        one value returns it, except that it turns -0.0 into +0.0, which
        adding 0.0 does too, and ln(S)/2 takes math.log per value, as there.
        Raises CostError when some w is 0 or not finite, which finite but
        extreme width settings can cause.
        """
        p, m = self.params, self.params.n_attributes
        scale = width_scale(p, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            sigmas = np.maximum(p.sigma_floor, scale * som_map.stds)
            w = 1.0 / sigmas**2
        if not np.all((w > 0.0) & np.isfinite(w)):
            self._refuse_widths(scale, 1)
        means = som_map.means
        table = np.hstack([w, w * means, _logs(sigmas, p.sigma_floor), means])
        cells = np.flatnonzero(som_map.counts > 0)
        w, w_means, log_sigmas, means = np.hsplit(table[cells], 4)
        X = (w_means + 0.0) / w
        resid = w * ((means - X) * (means - X))
        terms = log_sigmas + 0.5 * _logs(w, 1.0 / p.sigma_floor**2) + resid
        # occupied cells -> (n, and per attribute: width terms, S, X, resid)
        cache = {1 << k: (1, t, S, x, r) for k, t, S, x, r in zip(
            cells.tolist(), terms.tolist(), w.tolist(), X.tolist(), resid.tolist())}
        cache[0] = (0, [], [], [], [])
        columns = None
        if p.n_scale_rule is not unit_scale:
            # per attribute: floor, its log, and every cell's std and mean
            floors = p.sigma_floor.tolist()
            columns = list(zip(floors, map(math.log, floors),
                               som_map.stds.T.tolist(), som_map.means.T.tolist()))
        occupied = _bits(som_map.counts > 0)
        # join_rejected's largest |ln sigma| and |mean| per attribute, and the
        # interval's margin less its part in the decision's costs (see above)
        return _Widths(som_map, occupied, table, table.T.tolist() if columns is None else None,
                       columns, np.abs(table[:, 2 * m:]).max(axis=0).tolist(),
                       1e-5 * m * max(1, occupied.bit_count()), cache)

    def _own_columns(self, cells: list[int]) -> list[list[float]]:
        """The table's columns [w, w * mean, ln sigma, mean], each M wide, on
        these cells at the width scale of a block of all of them (sqrt_scale).

        The float operations are _build's (the larger of floor and
        scale * std, either one's bits when they are equal), so the values
        are the bits of a table built at that scale.  The floor is positive
        and 1/floor^2 finite, so w is refused only when it is 0; a scale that
        is not finite is refused too, as inf * 0 would be NaN, which the
        comparison with the floor would pass over.
        """
        scale = width_scale(self.params, len(cells))
        if not math.isfinite(scale):
            self._refuse_widths(scale, len(cells))
        ws, w_means, log_sigmas, means = [], [], [], []
        for floor, log_floor, std_column, mean_column in self._columns:
            sigmas = [s if s > floor else floor for s in [scale * std_column[k] for k in cells]]
            w = [1.0 / (sigma * sigma) for sigma in sigmas]
            if not min(w) > 0.0:
                self._refuse_widths(scale, len(cells))
            mean = [mean_column[k] for k in cells]
            ws.append(w)
            w_means.append([wi * mi for wi, mi in zip(w, mean)])
            log_sigmas.append([log_floor if sigma == floor else math.log(sigma)
                               for sigma in sigmas])
            means.append(mean)
        return ws + w_means + log_sigmas + means

    def _width_terms(self, occupied: int) -> tuple:
        """(n, width terms, S, X, resid) of the block of these occupied cells."""
        hit = self._terms.get(occupied)
        if hit is None:
            cells = _mask_cells(occupied)
            if self._columns is None:
                # the empty and one-cell blocks are cached from the start, so a
                # miss has two or more cells and itemgetter returns tuples
                take = operator.itemgetter(*cells)
                columns = [take(column) for column in self._table_columns]
            else:
                columns = self._own_columns(cells)
            # Most blocks have a few cells, where numpy's per-call overhead
            # would outweigh the sums.  Each step is the float operation
            # block_stat does, (m - X)**2 included, so the bits agree.
            m = len(columns) // 4
            terms, S_all, X_all, resid_all = [], [], [], []
            for j in range(m):
                w, means = columns[j], columns[3 * m + j]
                S = math.fsum(w)
                X = math.fsum(columns[m + j]) / S
                resid = math.fsum([wi * ((mi - X) * (mi - X)) for wi, mi in zip(w, means)])
                terms.append(math.fsum(columns[2 * m + j]) + 0.5 * math.log(S) + resid)
                S_all.append(S)
                X_all.append(X)
                resid_all.append(resid)
            hit = self._terms[occupied] = (len(cells), terms, S_all, X_all, resid_all)
        return hit

    def least_increments(self) -> list[float] | None:
        """Per cell, a lower bound on what placing it adds to a partition's cost.

        Placing an occupied cell either opens a block, which adds
        sum_j once_j, or joins a block that has an occupied cell.  Joining
        never lowers the block's ln(S)/2 or its resid, so it adds at least
        sum_j (ln sigma_j + each_j).  Each cell's entry is the smaller of the
        two, and 0 on empty cells.  None unless widths follow unit_scale:
        a width that grows with block size moves every member's ln sigma.
        """
        if self.params.n_scale_rule is not unit_scale:
            return None
        m = self.params.n_attributes
        log_sigmas = self._table[:, 2 * m:3 * m].sum(axis=1)
        least = np.minimum(math.fsum(self._once), log_sigmas + math.fsum(self._each))
        return np.where(self.som_map.counts > 0, least, 0.0).tolist()

    def cost(self, mask: int) -> float:
        """Cost of the cells in mask as one block; 0 when none is occupied."""
        occupied = mask & self._occupied
        hit = self._costs.get(occupied)
        if hit is None:
            n, terms, _, _, _ = self._terms.get(occupied) or self._width_terms(occupied)
            prior = self._priors.get(n)
            if prior is None:
                prior = self._priors[n] = [once + (n - 1) * each
                                           for once, each in zip(self._once, self._each)]
            hit = self._costs[occupied] = math.fsum(map(operator.add, prior, terms))
        return hit

    def join_rejected(self, a: int, b: int) -> bool:
        """True only when cost(a | b) < cost(a) + cost(b) is certainly False.

        a and b are disjoint blocks.  If either has no occupied cell, the
        union's cost is the other block's, bit for bit, so the comparison is
        False.  Otherwise the answer comes from the two blocks' cached S, X
        and resid, under either width rule, and only while this engine has
        not costed the union (its exact cost is cheap then; width terms
        that another engine cached do not count: class docstring).  Let N = n_a + n_b and
        rho = width_scale(N) / width_scale(min(n_a, n_b)), which is 1 under
        unit_scale.  A cell's width in the union is at least its width in
        its own block and at most rho times it.  Widening widths never
        lowers sum ln sigma + ln(S)/2, and it keeps at least rho^-2 of
        resid.  So in real arithmetic the pairwise update of Chan, Golub &
        LeVeque (1979) bounds the join's change of cost from below, with
        H_j = S_aj S_bj / (S_aj + S_bj) and d_j = X_aj - X_bj:

            delta = sum_j [q_j - ln(H_j)/2 + H_j d_j^2]
                    - (1 - rho^-2) sum_j [H_j d_j^2 + resid_aj + resid_bj],
            q_j = each_j - once_j (see _set_range).

        Under unit_scale rho is 1, the second line is not computed, and
        delta is the join's exact change.

        Rounding.  Up to a small factor, scale (below) bounds every quantity
        that enters the three costs or delta: each sum ln sigma, ln(S)/2,
        resid and prior term (through the blocks' cached terms and cell
        counts, and under sqrt_scale the growth of each ln sigma with block
        size, at most ln(width_scale(N) / width_scale(1))), the addends of
        delta, the error H |d| max|m| that rounding X puts into H d^2, and
        the error 2^-53 S max m^2 it puts into resid (at second order only,
        since sum_i w_i (m_i - X) = 0).  rho is a ratio of rounded scales and
        each width a rounded product of scale and std, so the computed rho
        may fall short of the widths' own ratio by a few roundings, which
        moves delta by a few 2^-53 (H d^2 + resid); scale holds H d^2, and
        (1 - rho^-2) resid with 1 - rho^-2 >= 1/2, as N >= 2 min(n_a, n_b).
        Each value is a correctly rounded sum (fsum) or a few single
        roundings per attribute, so the computed delta and the computed
        cost(a | b) - (cost(a) + cost(b)) differ by at most about
        (M + 100) 2^-53 scale for M attributes.  A join is rejected when
        delta exceeds 1e-7 scale, 10^7 times that difference for any M below
        about 10^7; joins nearer a tie go to the exact comparison.  So does
        any non-finite value (a comparison with NaN, or with an infinite
        scale, is False, so a union whose width scale overflows is costed,
        and refused) and an H that underflows to 0.  A join rejected by
        delta narrows interval (_narrow): delta moves with the union's
        prior like the exact change, by c per unit of x.
        """
        a &= self._occupied
        b &= self._occupied
        if not (a and b):
            return True
        if a | b in self._costs:
            return False
        if self._join is None:
            self._join = self._join_constants()
        q_sum, q_size, cell_size, top = self._join
        entries = self._terms
        n_a, terms_a, S_a, X_a, resid_a = entries.get(a) or self._width_terms(a)
        n_b, terms_b, S_b, X_b, resid_b = entries.get(b) or self._width_terms(b)
        n = n_a + n_b
        delta, scale, gaps = q_sum, q_size + n * cell_size, 0.0
        for sa, sb, xa, xb, ta, tb, mu in zip(S_a, S_b, X_a, X_b, terms_a, terms_b, top):
            h = sa * sb / (sa + sb)
            if not h > 0.0:
                return False
            d = xa - xb
            gap = h * d * d
            half_log = 0.5 * math.log(h)
            delta += gap - half_log
            scale += (abs(ta) + abs(tb) + gap + abs(half_log)
                      + h * abs(d) * mu + 2.0**-53 * (sa + sb) * mu * mu)
            gaps += gap
        if self._columns is not None:       # sqrt_scale, where rho > 1
            p = self.params
            union_scale = width_scale(p, n)
            rho = union_scale / width_scale(p, min(n_a, n_b))
            loss = 1.0 - 1.0 / (rho * rho)
            resid = math.fsum(resid_a + resid_b)
            delta -= loss * (gaps + resid)
            scale += (loss * resid
                      + 4.0 * n * len(top) * math.log(union_scale / width_scale(p, 1)))
        if not delta > 1e-7 * scale:
            return False
        self._narrow(delta, self._slope, scale, (a, b), (a | b,))
        return True

    def lowers(self, old: Sequence[int], new: Sequence[int]) -> bool:
        """True when the blocks new, covering the cells of old, cost strictly
        less by fsum; a tie keeps old.  Narrows interval (class docstring)."""
        cost, occupied, k = self.cost, self._occupied, 0
        before, after = math.fsum(map(cost, old)), math.fsum(map(cost, new))
        for mask in new:                # k: new's occupied blocks less old's
            k += mask & occupied != 0
        for mask in old:
            k -= mask & occupied != 0
        lower = after < before
        g, k = (before - after, k) if lower else (after - before, -k)
        self._narrow(g, self._slope * k, abs(before) + abs(after), old, new)
        return lower

    def _narrow(self, g: float, s: float, scale: float, old: Sequence[int],
                new: Sequence[int]) -> None:
        """Keep in interval the x at which a decision won by g + s x exceeds
        the margin 1e-9 scale + _margin, or only x = 0 if g does not; an s
        of 0 constrains nothing (class docstring).  An end that moves keeps
        the decision, (old, new, g, s, scale), in decided_by."""
        if not s:
            return
        margin, interval = 1e-9 * scale + self._margin, self.interval
        # interval holds 0, so an end moves only toward it
        if g <= margin:
            if interval[0] < 0.0:
                interval[0] = 0.0
                self.decided_by[0] = old, new, g, s, scale
            if interval[1] > 0.0:
                interval[1] = 0.0
                self.decided_by[1] = old, new, g, s, scale
        else:
            x = (margin - g) / s
            if s > 0:
                if x > interval[0]:
                    interval[0] = x
                    self.decided_by[0] = old, new, g, s, scale
            elif x < interval[1]:
                interval[1] = x
                self.decided_by[1] = old, new, g, s, scale

    def _join_constants(self) -> tuple:
        """join_rejected's sum and size of the q_j, its per-cell size, and
        each attribute's largest |mean|.

        The per-cell size, sum_j (|ln R_j| + ln pi + 4 (max|ln sigma_j| + 1)),
        with max|ln sigma_j| over the blocks of one cell, times a block's cell
        count bounds its sum ln sigma, ln(S)/2, prior terms and, with its
        cached terms, its resid; join_rejected adds the growth of ln sigma
        with block size.
        """
        m, top = self.params.n_attributes, self._top
        log_R = np.log(self.params.R).tolist()
        log_pi = math.log(math.pi)
        q = [each - once for once, each in zip(self._once, self._each)]
        cell_size = math.fsum(abs(v) + log_pi + 4.0 * (lam + 1.0)
                              for v, lam in zip(log_R, top[:m]))
        return math.fsum(q), math.fsum(map(abs, q)), cell_size, top[m:]


# What a BlockCosts engine keeps that does not depend on R (BlockCosts._build)
_Widths = namedtuple("_Widths", "som_map occupied table table_columns columns top margin terms")
# (som_map, params, widths) of the last engine BlockCosts._shared made
_last: tuple | None = None


def _same_widths(som_map: "SomMap", a: CostParams, b: CostParams) -> bool:
    """Whether a and b give som_map's cells the same width bits in blocks of
    every size: one rule and floor, and one sigma_const or all at the floor."""
    return (a.n_scale_rule is b.n_scale_rule and np.array_equal(a.sigma_floor, b.sigma_floor)
            and (a.sigma_const == b.sigma_const
                 or widths_at_floor(som_map, b) and widths_at_floor(som_map, a)))


def partition_cost(partition: "Partition", som_map: "SomMap", params: CostParams) -> float:
    """Total cost of a partition: the sum of its blocks' block_cost_for_pes,
    so a block made only of empty cells contributes 0."""
    return math.fsum(
        block_cost_for_pes([som_map.pe(r, c)
                            for r, c in zip(*np.nonzero(partition.block_of == block_id))], params)
        for block_id in range(partition.n_blocks))
