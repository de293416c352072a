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
import logging
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .data_model import AttributeSummary

if TYPE_CHECKING:
    from .partition import Partition
    from .som import PeStats, SomMap

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class CostParams:
    """Range and width parameters of the block cost.

    R is the base per-attribute range of the flat prior; the effective range
    is f_R * R.  Cell widths are estimated as
    max(sigma_floor, f_sigma * sigma_const * n_scale_rule(N) * s) where s is
    the cell's observed sample standard deviation and N the block size.
    f_R and f_sigma are multiplicative sweep factors, 1 by default.

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
    range_rule: str = "two_max"
    range_exponent: str = "per_block"
    f_R: float = 1.0
    f_sigma: float = 1.0
    sigma_floor_frac: float | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "sigma_floor", np.asarray(self.sigma_floor, dtype=float))
        if self.R.ndim != 1 or not np.all((self.R > 0) & np.isfinite(self.R)):
            raise CostError("R must be a finite, strictly positive vector")
        if self.sigma_floor.shape != self.R.shape or not np.all(
                (self.sigma_floor > 0) & np.isfinite(self.sigma_floor)):
            raise CostError("sigma_floor must be finite and strictly positive, same shape as R")
        for name in ("sigma_const", "f_R", "f_sigma"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise CostError(f"{name} must be positive and finite, got {value!r}")
        if self.range_rule not in RANGE_RULES:
            raise CostError(f"range_rule must be one of {RANGE_RULES}")
        if self.range_exponent not in RANGE_EXPONENTS:
            raise CostError(f"range_exponent must be one of {RANGE_EXPONENTS}")
        # Finite inputs can still overflow the terms every cost is built from.
        with np.errstate(over="ignore", divide="ignore"):
            log_R = np.log(self.effective_R())
            inverse_floor = 1.0 / self.sigma_floor**2
        if not np.all(np.isfinite(log_R)):
            raise CostError(f"ln(f_R * R) must be finite, got f_R={self.f_R!r}")
        if not np.all(np.isfinite(inverse_floor)):
            frac = ("" if self.sigma_floor_frac is None
                    else f" from sigma_floor_frac={self.sigma_floor_frac!r}")
            raise CostError(f"1/sigma_floor**2 must be finite, got sigma_floor "
                            f"{float(self.sigma_floor.min())!r}{frac}")

    @property
    def n_attributes(self) -> int:
        return self.R.shape[0]

    def effective_R(self) -> np.ndarray:
        return self.f_R * self.R

    def scaled(self, f_R: float = 1.0, f_sigma: float = 1.0) -> "CostParams":
        """Copy with sweep factors replaced (not compounded)."""
        return replace(self, f_R=f_R, f_sigma=f_sigma)

    def echo(self) -> dict:
        """Serializable summary for artifact provenance headers."""
        name = next((k for k, v in N_SCALE_RULES.items() if v is self.n_scale_rule),
                    getattr(self.n_scale_rule, "__name__", "custom"))
        return {
            "R": [float(v) for v in self.R],
            "sigma_floor": [float(v) for v in self.sigma_floor],
            "sigma_const": self.sigma_const,
            "sigma_floor_frac": self.sigma_floor_frac,
            "n_scale_rule": name,
            "range_rule": self.range_rule,
            "range_exponent": self.range_exponent,
            "f_R": self.f_R,
            "f_sigma": self.f_sigma,
        }


def params_from_summary(
    summary: AttributeSummary,
    *,
    range_rule: str = "two_max",
    range_exponent: str = "per_block",
    sigma_const: float = 1.0,
    sigma_floor_frac: float = 0.15,
    sigma_floor: np.ndarray | None = None,
    n_scale_rule: Callable[[int], float] = unit_scale,
    f_R: float = 1.0,
    f_sigma: float = 1.0,
) -> CostParams:
    """Build CostParams from observed attribute extremes.

    The base range is 2*(max-min) under two_span or 2*max under two_max, and
    the default width floor is sigma_floor_frac times the attribute span.
    """
    if range_rule == "two_span":
        if np.any(summary.spans <= 0):
            raise CostError("two_span range rule needs positive span on every attribute")
        base_R = 2.0 * summary.spans
    elif range_rule == "two_max":
        for j, top in enumerate(summary.maxs):
            if not top > 0:
                raise CostError(f"two_max range rule needs a positive maximum, but attribute "
                                f"{j} has maximum {float(top)!r}; use range_rule=\"two_span\"")
        base_R = 2.0 * summary.maxs
    else:
        raise CostError(f"range_rule must be one of {RANGE_RULES}")
    if sigma_floor is None:
        if not (sigma_floor_frac > 0 and math.isfinite(sigma_floor_frac)):
            raise CostError(f"sigma_floor_frac must be positive and finite, "
                            f"got {sigma_floor_frac!r}")
        if np.any(summary.spans <= 0):
            raise CostError("default sigma floor needs positive span on every attribute")
        sigma_floor = sigma_floor_frac * summary.spans
    return CostParams(
        R=base_R,
        sigma_floor=np.asarray(sigma_floor, dtype=float),
        sigma_const=sigma_const,
        n_scale_rule=n_scale_rule,
        range_rule=range_rule,
        range_exponent=range_exponent,
        f_R=f_R,
        f_sigma=f_sigma,
        sigma_floor_frac=sigma_floor_frac,
    )


@dataclass(frozen=True)
class BlockStat:
    """Sufficient statistics of one block, per attribute.

    S is the summed precision, X the precision-weighted mean and resid the
    weighted squared deviation about X; n is the block size (non-empty cells).
    """

    S: np.ndarray
    X: np.ndarray
    resid: np.ndarray
    n: int


def block_stat(means: np.ndarray, sigmas: np.ndarray) -> BlockStat:
    """Compute S, X and resid for an (N, M) table of means and widths.

    Sums use exact accumulation so results do not depend on member order.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    if means.shape != sigmas.shape or means.size == 0:
        raise CostError("means and sigmas must be non-empty and congruent")
    if np.any(sigmas <= 0):
        raise CostError("all sigmas must be strictly positive")
    n, m = means.shape
    w = 1.0 / sigmas**2
    S = np.array([math.fsum(w[:, j]) for j in range(m)])
    X = np.array([math.fsum(w[:, j] * means[:, j]) for j in range(m)]) / S
    resid = np.array([math.fsum(w[:, j] * (means[:, j] - X[j]) ** 2) for j in range(m)])
    return BlockStat(S=S, X=X, resid=resid, n=n)


def sigma_estimate(pe: "PeStats", block_size: int, params: CostParams) -> np.ndarray:
    """Per-attribute width of one non-empty cell inside a block of given size.

    sigma = max(floor, f_sigma * sigma_const * n_scale_rule(block_size) * s);
    the floor absorbs cells whose observed s is zero.
    """
    if pe.n == 0:
        raise CostError("sigma_estimate needs a non-empty cell")
    if block_size < 1:
        raise CostError("block_size must be a positive integer")
    scale = params.f_sigma * params.sigma_const * params.n_scale_rule(block_size)
    return np.maximum(params.sigma_floor, scale * pe.std)


def block_cost(members: Sequence[tuple[np.ndarray, np.ndarray]], params: CostParams) -> float:
    """Negative log marginal likelihood of one block.

    members is a sequence of (mean vector, sigma vector) pairs, one per
    non-empty cell.  Per attribute j, with stats S, X, resid over the block,

        per_block: C_j = ln(f_R R_j) + ((N-1)/2) ln(pi)
                         + sum_i ln(sigma_ij) + ln(S_j)/2 + resid_j
        per_pe:    C_j = (N-1) (ln(f_R R_j) + ln(pi)/2)
                         + sum_i ln(sigma_ij) + ln(S_j)/2 + resid_j

    and the returned cost is sum_j C_j.
    """
    if len(members) == 0:
        raise CostError("block must have at least one member")
    means = np.stack([np.asarray(m, dtype=float) for m, _ in members])
    sigmas = np.stack([np.asarray(s, dtype=float) for _, s in members])
    if means.shape[1] != params.n_attributes:
        raise CostError("member width does not match params.R")
    stat = block_stat(means, sigmas)
    n = stat.n
    log_R = np.log(params.effective_R())
    log_pi = math.log(math.pi)
    terms = []
    for j in range(params.n_attributes):
        sum_log_sigma = math.fsum(math.log(s) for s in sigmas[:, j])
        common = sum_log_sigma + 0.5 * math.log(stat.S[j]) + stat.resid[j]
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
    with the operations of block_stat and block_cost, on the block's rows of
    a per-cell table gathered by index and summed in Python; the entry also
    keeps each attribute's S and X for join_rejected.  The first one-cell
    block computes every cell's entry in one numpy pass with the same float
    operations (_single_cells), since a cold quadtree split meets many of
    them.  A width setting whose table has a 1/sigma^2 of 0 or inf is
    refused with a CostError.  The range prior is added last and the terms
    are summed in block_cost's order, so cost(mask) equals
    block_cost_for_pes of the same cells bit for bit.  The width terms do
    not depend on R, f_R or the range exponent, so at() hands out an engine
    for another range setting that shares them.
    """

    def __init__(self, som_map: "SomMap", params: CostParams):
        if som_map.n_attributes != params.n_attributes:
            raise CostError(f"map has {som_map.n_attributes} attributes, "
                            f"cost params have {params.n_attributes}")
        self.som_map = som_map
        self._occupied = int.from_bytes(
            np.packbits(som_map.counts > 0, bitorder="little").tobytes(), "little")
        self._tables: dict[float, np.ndarray] = {}  # width scale -> per-cell columns
        # occupied cells -> (n, and per attribute: width terms, S, X)
        self._terms: dict[int, tuple] = {}
        self._set_range(params)

    def _set_range(self, params: CostParams) -> None:
        self.params = params
        self._costs: dict[int, float] = {}           # occupied cells -> cost
        self._join = None                            # join_rejected's constants
        log_R = np.log(params.effective_R())
        log_pi = math.log(math.pi)
        self._per_block = params.range_exponent == "per_block"
        if self._per_block:
            self._prior = list(log_R)
        else:
            self._prior = [v + 0.5 * log_pi for v in log_R]

    def at(self, som_map: "SomMap", params: CostParams) -> "BlockCosts":
        """Engine for the same map and cell widths under params' range setting.

        Returns self when params is this engine's own; otherwise a new engine
        that shares the cached width terms.  Raises CostError when the map or
        anything that sets the cell widths differs.
        """
        if som_map is not self.som_map:
            raise CostError("block costs were cached for another map")
        if params is self.params:
            return self
        own = self.params
        if not (params.f_sigma == own.f_sigma and params.sigma_const == own.sigma_const
                and params.n_scale_rule is own.n_scale_rule
                and np.array_equal(params.sigma_floor, own.sigma_floor)):
            raise CostError("block costs were cached under another cell-width setting")
        engine = copy.copy(self)
        engine._set_range(params)
        return engine

    def _table(self, n: int) -> np.ndarray:
        """Per-cell columns [w, w * mean, ln sigma, mean], each M wide, for
        blocks of n non-empty cells; w = 1 / sigma^2.

        Raises CostError when some w is 0 or not finite, which finite but
        extreme width settings can cause.
        """
        p = self.params
        scale = p.f_sigma * p.sigma_const * p.n_scale_rule(n)
        table = self._tables.get(scale)
        if table is None:
            with np.errstate(over="ignore", invalid="ignore"):
                sigmas = np.maximum(p.sigma_floor, scale * self.som_map.stds)
                w = 1.0 / sigmas**2
            if not np.all((w > 0.0) & np.isfinite(w)):
                raise CostError(f"cell widths must keep 1/sigma**2 positive and finite, got "
                                f"f_sigma={p.f_sigma!r}, sigma_const={p.sigma_const!r} "
                                f"(width scale {scale!r} for blocks of {n} cells)")
            log_sigmas = [[math.log(s) for s in row] for row in sigmas.tolist()]
            means = self.som_map.means
            table = self._tables[scale] = np.hstack([w, w * means, log_sigmas, means])
        return table

    def _width_terms(self, occupied: int) -> tuple:
        """(n, width terms, S, X) of the block of these occupied cells."""
        hit = self._terms.get(occupied)
        if hit is None:
            n = occupied.bit_count()
            if n == 0:
                hit = (0, (), (), ())
            elif n == 1:
                self._terms.update(self._single_cells())
                hit = self._terms[occupied]
            else:
                # Most blocks have a few cells, where numpy's per-call
                # overhead would outweigh the sums.  Each step is the float
                # operation block_stat does, (m - X)**2 included, so the bits
                # agree.
                columns = self._table(n)[_mask_cells(occupied)].T.tolist()
                m = len(columns) // 4
                terms, S_all, X_all = [], [], []
                for j in range(m):
                    w, means = columns[j], columns[3 * m + j]
                    S = math.fsum(w)
                    X = math.fsum(columns[m + j]) / S
                    resid = math.fsum([wi * ((mi - X) * (mi - X)) for wi, mi in zip(w, means)])
                    terms.append(math.fsum(columns[2 * m + j]) + 0.5 * math.log(S) + resid)
                    S_all.append(S)
                    X_all.append(X)
                hit = (n, terms, S_all, X_all)
            self._terms[occupied] = hit
        return hit

    def _single_cells(self) -> dict[int, tuple]:
        """_width_terms' entry of every occupied cell as a block of one.

        One pass over the cells' rows of the table, with the float
        operations of the general path: a fsum of one value returns it,
        except that it turns -0.0 into +0.0, which adding 0.0 does too, and
        ln(S)/2 takes math.log per value, as there.
        """
        m = self.params.n_attributes
        cells = np.flatnonzero(self.som_map.counts > 0)
        rows = self._table(1)[cells]
        w, w_means, log_sigmas, means = (rows[:, k * m:(k + 1) * m] for k in range(4))
        X = (w_means + 0.0) / w
        half_log_S = 0.5 * np.array([[math.log(v) for v in row] for row in w.tolist()])
        terms = log_sigmas + half_log_S + w * ((means - X) * (means - X))
        return {1 << k: (1, t, S, x) for k, t, S, x in
                zip(cells.tolist(), terms.tolist(), w.tolist(), X.tolist())}

    def least_increments(self) -> list[float] | None:
        """Per cell, a lower bound on what placing it adds to a partition's cost.

        Placing an occupied cell either opens a block, which adds
        sum_j ln(f_R R_j) under per_block and 0 under per_pe, or joins a block
        that has an occupied cell.  Joining never lowers the block's ln(S)/2
        or its resid, so it adds at least sum_j (ln sigma_j + ln(pi)/2), plus
        sum_j ln(f_R R_j) under per_pe.  Each cell's entry is the smaller of
        the two, and 0 on empty cells.  None unless widths follow unit_scale:
        a width that grows with block size moves every member's ln sigma.
        """
        if self.params.n_scale_rule is not unit_scale:
            return None
        m = self.params.n_attributes
        log_sigmas = self._table(1)[:, 2 * m:3 * m].sum(axis=1)
        prior = math.fsum(self._prior)
        if self._per_block:
            least = np.minimum(prior, log_sigmas + 0.5 * m * math.log(math.pi))
        else:
            least = np.minimum(0.0, log_sigmas + prior)
        return np.where(self.som_map.counts > 0, least, 0.0).tolist()

    def cost(self, mask: int) -> float:
        """Cost of the cells in mask as one block; 0 when none is occupied."""
        occupied = mask & self._occupied
        hit = self._costs.get(occupied)
        if hit is None:
            n, terms, _, _ = self._width_terms(occupied)
            if n == 0:
                hit = 0.0
            elif self._per_block:
                occam = 0.5 * (n - 1) * math.log(math.pi)
                hit = math.fsum([prior + occam + t for prior, t in zip(self._prior, terms)])
            else:
                hit = math.fsum([(n - 1) * prior + t for prior, t in zip(self._prior, terms)])
            self._costs[occupied] = hit
        return hit

    def join_rejected(self, a: int, b: int) -> bool:
        """True only when cost(a | b) < cost(a) + cost(b) is certainly False.

        a and b are disjoint blocks.  If either has no occupied cell, the
        union's cost is the other block's, bit for bit, so the comparison is
        False under any width rule.  Otherwise the answer comes from the two
        blocks' cached S and X, and only under the unit width rule, where
        every block reads the same cell widths, and only while the union is
        not cached (its exact cost is cheap then).  In real arithmetic on the
        cell table, the pairwise update of Chan, Golub & LeVeque (1979) gives
        the join's change of cost, with H_j = S_aj S_bj / (S_aj + S_bj) and
        d_j = X_aj - X_bj,

            delta = sum_j [q_j - ln(H_j)/2 + H_j d_j^2],
            q_j = ln(pi)/2 - ln(f_R R_j) (per_block), ln(f_R R_j) + ln(pi)/2 (per_pe).

        Rounding.  Up to a small factor, scale (below) bounds every quantity
        that enters the three costs or delta: each sum ln sigma, ln(S)/2,
        resid and prior term (through the blocks' cached terms and cell
        counts), the addends of delta, the error H |d| max|m| that rounding
        X puts into H d^2, and the error 2^-53 S max m^2 it puts into resid
        (at second order only, since sum_i w_i (m_i - X) = 0).  Each value is
        a correctly rounded sum (fsum) or a few single roundings per
        attribute, so the computed delta and the computed
        cost(a | b) - (cost(a) + cost(b)) differ by at most about
        (M + 100) 2^-53 scale for M attributes.  A join is rejected when
        delta exceeds 1e-7 scale, 10^7 times that difference for any M below
        about 10^7; joins nearer a tie go to the exact comparison.  So does
        any non-finite value (a comparison with NaN, or with an infinite
        scale, is False) and an H that underflows to 0.
        """
        a &= self._occupied
        b &= self._occupied
        if not (a and b):
            return True
        if self.params.n_scale_rule is not unit_scale or a | b in self._terms:
            return False
        if self._join is None:
            self._join = self._join_constants()
        q_sum, q_size, cell_size, top = self._join
        n_a, terms_a, S_a, X_a = self._width_terms(a)
        n_b, terms_b, S_b, X_b = self._width_terms(b)
        delta, scale = q_sum, q_size + (n_a + n_b) * cell_size
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
        return delta > 1e-7 * scale

    def _join_constants(self) -> tuple:
        """join_rejected's sum and size of the q_j, its per-cell size, and
        each attribute's largest |mean|.

        The per-cell size, sum_j (|ln(f_R R_j)| + ln pi + 4 (max|ln sigma_j| + 1)),
        times a block's cell count bounds its sum ln sigma, ln(S)/2, prior
        terms and, with its cached terms, its resid.
        """
        m = self.params.n_attributes
        top = np.abs(self._table(1)[:, 2 * m:]).max(axis=0).tolist()
        log_R = np.log(self.params.effective_R()).tolist()
        log_pi = math.log(math.pi)
        q = [0.5 * log_pi - v for v in log_R] if self._per_block else self._prior
        cell_size = math.fsum(abs(v) + log_pi + 4.0 * (lam + 1.0)
                              for v, lam in zip(log_R, top[:m]))
        return math.fsum(q), math.fsum(map(abs, q)), cell_size, top[m:]


def partition_cost(partition: "Partition", som_map: "SomMap", params: CostParams) -> float:
    """Total cost of a partition: sum of block costs over its blocks.

    Blocks made only of empty cells contribute 0 and are flagged at debug
    level.
    """
    costs = []
    for block_id in range(partition.n_blocks):
        pes = [som_map.pe(r, c)
               for r, c in zip(*np.nonzero(partition.block_of == block_id))]
        if all(pe.n == 0 for pe in pes):
            logger.debug("block %d has no non-empty cells; contributes 0", block_id)
            costs.append(0.0)
        else:
            costs.append(block_cost_for_pes(pes, params))
    return math.fsum(costs)
